"""Functions sampled on a uniform grid of the unit circle.

Carries boundary traces and the analysis kernels acting on them: harmonic
conjugation (the -i sgn(n) Fourier multiplier) and the library's one
argument-principle count, ``winding_number``, which bisects the sampled
curves until every phase increment is unambiguous.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ContourThroughZeroError

MIN_GRID = 8
# winding_number's settings: the cap on the relative jump of f between
# consecutive samples, and the distinct points per set of closed curves
_ETA = 0.5
_MAX_PTS_PER_LOOP = 1 << 16


@dataclass(frozen=True, eq=False)
class BoundaryGridFunction:
    """Samples at the n-th roots of unity e^{2 pi i j / n}, j = 0..n-1.

    Real-valued functions are stored with a float dtype, complex ones with a
    complex dtype; the dtype is the real-valuedness flag.
    """

    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.samples)
        if arr.ndim != 1 or arr.size < MIN_GRID:
            raise ValueError(f"need a 1-d grid of at least {MIN_GRID} samples, got shape {arr.shape}")
        if not np.iscomplexobj(arr):
            arr = arr.astype(np.float64)
        else:
            arr = arr.astype(np.complex128)
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.samples)

    def thetas(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n) / self.n

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "samples": [{"re": float(s.real), "im": float(s.imag)} for s in self.samples],
        }

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["theta", "re", "im"])
            for theta, s in zip(self.thetas(), self.samples):
                writer.writerow([repr(float(theta)), repr(float(np.real(s))), repr(float(np.imag(s)))])


@lru_cache(maxsize=8)
def circle_nodes(n: int) -> np.ndarray:
    """The grid points e^{2 pi i j / n}, one shared read-only array per n."""
    if n < MIN_GRID:
        raise ValueError(f"grid size must be at least {MIN_GRID}, got {n}")
    nodes = np.exp(2j * np.pi * np.arange(n) / n)
    nodes.flags.writeable = False
    return nodes


def harmonic_conjugate(f: BoundaryGridFunction) -> BoundaryGridFunction:
    """Discrete harmonic conjugate: multiplier -i sgn(n), zero mean.

    Input must be real-valued.  The Nyquist bin (even grids) is dropped; grid
    functions produced by the toolkit are band-limited well below it.
    """
    if not f.is_real:
        raise ValueError("harmonic conjugate is defined here for real-valued grid functions")
    coeffs = np.fft.rfft(f.samples)
    coeffs *= -1j
    coeffs[0] = 0.0
    if f.n % 2 == 0:
        coeffs[-1] = 0.0
    return BoundaryGridFunction(np.fft.irfft(coeffs, n=f.n))


def winding_number(
    fs: Sequence[Callable[[np.ndarray], np.ndarray]],
    pts: np.ndarray,
    vals: np.ndarray,
    arc_ends: np.ndarray,
    group_ends: np.ndarray,
) -> list[tuple[float, int] | ContourThroughZeroError]:
    """Min |f| over each group of arcs that together form closed curves, and
    the winding number of f along them, for groups laid end to end: ``pts``
    holds every arc's points (at least two each), ``vals`` the values of the
    group's f = ``fs[g]`` there, and ``arc_ends`` and ``group_ends`` the
    offsets in ``pts`` after each arc and each group.  Returns one result per
    group, a ContourThroughZeroError in its group's place.

    No edge joins one arc's last point to the next arc's first.  One pass over
    all the groups finds the moduli, the relative jumps |f(p_{k+1}) - f(p_k)| /
    min(|f|) and the phase increments.  A group with a sample on a zero of f
    gives (0.0, 0); one whose jumps all stay within ``_ETA`` is counted from
    that pass, or fails with a phase sum farther than 0.1 from an integer
    (``_phase_count``).  Every other group runs ``_refined_count`` alone, which
    bisects its edges while a jump exceeds ``_ETA`` (so every phase increment
    stays below arcsin(eta) and the sum is unambiguous) and evaluates its f at
    the inserted midpoints only.
    """
    last = np.zeros(pts.size, dtype=bool)  # marks each arc's last point
    last[np.asarray(arc_ends) - 1] = True
    ends = np.asarray(group_ends)
    starts = np.concatenate(([0], ends[:-1]))
    mods = np.abs(vals)
    low = np.minimum.reduceat(mods, starts)
    edges = ~last[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        jump = np.abs(vals[1:] - vals[:-1]) / np.minimum(mods[:-1], mods[1:])
        bad = np.add.reduceat(edges & (jump > _ETA), starts)
        total = np.add.reduceat(np.where(edges, np.angle(vals[1:] / vals[:-1]), 0.0), starts) / (2.0 * np.pi)
    count = np.rint(total)
    out: list[tuple[float, int] | ContourThroughZeroError] = []
    for g, (s, e) in enumerate(zip(starts.tolist(), ends.tolist())):
        try:
            if low[g] == 0.0:
                out.append((0.0, 0))
            elif bad[g]:
                out.append(_refined_count(fs[g], pts[s:e], vals[s:e], last[s:e]))
            elif abs(total[g] - count[g]) <= 0.1:
                out.append((float(low[g]), int(count[g])))
            else:  # refused on the group's own sum, which does not depend on its neighbours
                out.append((float(low[g]), _phase_count(vals[s:e], edges[s : e - 1])))
        except ContourThroughZeroError as exc:
            out.append(exc)
    return out


def _phase_count(vals: np.ndarray, edges: np.ndarray) -> int:
    """The nearest integer to the phase increments over ``edges`` summed in
    turns; ContourThroughZeroError when the sum lies farther than 0.1 from it."""
    total = float(np.angle(vals[1:][edges] / vals[:-1][edges]).sum() / (2.0 * np.pi))
    count = round(total)
    if abs(total - count) > 0.1:
        raise ContourThroughZeroError(f"phase sum {total} over the contour is not near an integer")
    return count


def _refined_count(
    f: Callable[[np.ndarray], np.ndarray], pts: np.ndarray, vals: np.ndarray, last: np.ndarray
) -> tuple[float, int]:
    """``winding_number`` for one group, ``last`` marking its arcs' last
    points, by bisection.  Needing more than ``_MAX_PTS_PER_LOOP`` distinct
    points (the arcs' shared ends count once) raises ContourThroughZeroError."""
    n_arcs = int(np.count_nonzero(last))
    while True:
        mods = np.abs(vals)
        low = float(mods.min())
        if low == 0.0:
            return 0.0, 0
        edges = ~last[:-1]
        jump = np.abs(vals[1:] - vals[:-1]) / np.minimum(mods[:-1], mods[1:])
        bad = np.flatnonzero(edges & (jump > _ETA))
        if bad.size == 0:
            return low, _phase_count(vals, edges)
        if pts.size - n_arcs + bad.size > _MAX_PTS_PER_LOOP:
            raise ContourThroughZeroError(
                f"modulus {low:.3e} needs more than {_MAX_PTS_PER_LOOP} points for a safe winding count"
            )
        mids = 0.5 * (pts[bad] + pts[bad + 1])
        pts = np.insert(pts, bad + 1, mids)
        vals = np.insert(vals, bad + 1, f(mids))
        last = np.insert(last, bad + 1, False)
