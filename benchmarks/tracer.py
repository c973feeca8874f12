"""Spans and counts recorded from outside the library.

``Tracer.install`` rebinds each target function object in every ``blaschkelab``
module namespace that holds it (so ``pathbuild``'s own ``evaluate_grid`` name is
caught as well as ``blaschke.evaluate_grid``), plus ``PathStep.g_interior``, and
``uninstall`` puts every original object back.  Spans are kept in memory as
``(name, start, end, parent, op)`` tuples and written out once, at the end of
the run.  Nothing inside the library is edited.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter

import numpy as np

# (module, attribute) of every wrapped public function.  geometry has no
# entry: its scalar helpers run once per point pair, so a span around them
# would cost more than the work it measures.
TARGETS = (
    ("blaschke", "evaluate_grid"),
    ("blaschke", "eval_boundary"),
    ("cauchy", "cauchy_on_circle"),
    ("cauchy", "outer_correction"),
    ("cauchy", "verify_intwin"),
    ("gridfn", "harmonic_conjugate"),
    ("gridfn", "winding_number"),
    ("matching", "bottleneck_match"),
    ("pathbuild", "build_path"),
    ("pathbuild", "choose_partition"),
    ("pathbuild", "certify_path"),
    ("pathbuild", "neighborhood_contours"),
    ("pathbuild", "PathStep.g_interior"),
    ("contours", "level_set_components"),
    ("contours", "build_atlas"),
    ("contours", "harmonic_measure"),
    ("contours", "harmonic_measure_paired"),
    ("contours", "log_quotient_via_contour"),
    ("carleson", "box_carleson_norm"),
    ("carleson", "interpolation_constant"),
    ("carleson", "separation_split"),
)

# root span of one benchmark operation; its self time is the work done
# outside every wrapped function (gates, unwrapped helpers)
OP_SPAN = "op"


def _walk_samples(a: dict, paired: bool) -> int:
    """Walkers launched by one harmonic-measure call; a coupled pair is two."""
    if paired:
        return 2 * a["n_samples"]
    exact = a["curve"].is_disk_fixture and a["method"] in ("auto", "exact")
    return 0 if exact else a["n_samples"]


# extra counts taken at a span boundary: name -> f(bound arguments, result)
COUNT_HOOKS = {
    "blaschke.evaluate_grid": lambda a, r: {
        "blaschke.evaluate_grid.zero_points": int(np.size(a["points"])) * a["b"].degree
    },
    "cauchy.cauchy_on_circle": lambda a, r: {
        "cauchy.cauchy_on_circle.segment_nodes": len(a["sigma"].segments) * a["n"]
    },
    "gridfn.harmonic_conjugate": lambda a, r: {"gridfn.harmonic_conjugate.samples": a["f"].n},
    "pathbuild.certify_path": lambda a, r: {"pathbuild.certify_path.failed": int(not r.ok)},
    "pathbuild.build_path": lambda a, r: {"pathbuild.paths": 1, "pathbuild.vertices": len(r.vertices)},
    "contours.harmonic_measure": lambda a, r: {"contours.walkers": _walk_samples(a, paired=False)},
    "contours.harmonic_measure_paired": lambda a, r: {"contours.walkers": _walk_samples(a, paired=True)},
}


class Tracer:
    """Records spans around the calls into each layer's public functions."""

    def __init__(self):
        self.names: list[str] = [OP_SPAN]
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "blaschkelab" or n.startswith("blaschkelab.")]
        for mod_name, attr in TARGETS:
            module = sys.modules["blaschkelab." + mod_name]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = vars(owner)[meth]
                self._rebind(owner, meth, original, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)

        matching = sys.modules["blaschkelab.matching"]
        feasibility = matching.maximum_bipartite_matching
        counts = self.counts

        def counted(*args, **kwargs):
            counts["matching.feasibility_calls"] += 1
            return feasibility(*args, **kwargs)

        self._rebind(matching, "maximum_bipartite_matching", feasibility, counted)

    def _rebind(self, owner, key: str, original, replacement) -> None:
        setattr(owner, key, replacement)
        self._rebound.append((owner, key, original))

    def uninstall(self) -> None:
        """Put every original object back and check that each one is in place."""
        for owner, key, original in reversed(self._rebound):
            setattr(owner, key, original)
        stale = [f"{getattr(o, '__name__', o)}.{k}" for o, k, orig in self._rebound if vars(o)[k] is not orig]
        self._rebound.clear()
        if stale:
            raise RuntimeError(f"names not restored after tracing: {stale}")

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = COUNT_HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[slot] = (idx, start, clock(), parent, self.op)
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts.update(hook(bound.arguments, result))
            return result

        return traced

    def run_op(self, op_id: int, fn):
        """Run fn() as the root span of operation op_id."""
        self.op = op_id
        slot = len(self.spans)
        self.spans.append(None)
        self._stack.append(slot)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self.spans[slot] = (0, start, time.perf_counter(), -1, op_id)
            self._stack.pop()

    def mark(self) -> tuple[int, Counter]:
        """A point in the record; two marks bound one pass over the deck."""
        return len(self.spans), self.counts.copy()

    def totals(self, lo: tuple[int, Counter], hi: tuple[int, Counter]) -> tuple[Counter, Counter, Counter]:
        """Calls, self seconds and extra counts between two marks.

        Self time is a span's duration minus the time its direct children
        cover; the run is single-threaded, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(lo[0], hi[0]):
            idx, start, end, _, _ = self.spans[i]
            calls[self.names[idx]] += 1
            self_s[self.names[idx]] += (end - start) - child[i]
        counts = hi[1].copy()
        counts.subtract(lo[1])
        return calls, self_s, counts

    def write(self, path) -> None:
        """Write every span as [name index, start, end, parent, op], plus the counts."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "counts": dict(self.counts), "spans": self.spans}, fh)
