"""Functions sampled on a uniform grid of the unit circle.

Carries boundary traces and the analysis kernels acting on them: harmonic
conjugation (the -i sgn(n) Fourier multiplier) and the library's one
argument-principle count, ``winding_number``, which bisects the sampled
curves until every phase increment is unambiguous.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import lru_cache, partial
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
    f: Callable[[np.ndarray], np.ndarray], arcs: Sequence[np.ndarray], vals: np.ndarray
) -> tuple[float, int] | list[tuple[float, int] | ContourThroughZeroError]:
    """Min |f| over arcs that together form closed curves, and the winding
    number of f along them, given the values ``vals`` of f at the arcs' points
    laid end to end.

    No edge joins one arc's last point to the next arc's first.  An edge is
    bisected while the relative jump |f(p_{k+1}) - f(p_k)| / min(|f|) on it
    exceeds ``_ETA``, which caps every phase increment at arcsin(eta) and makes
    the sum of the increments unambiguous; f is evaluated at the inserted
    midpoints only.  A sample on a zero of f gives (0.0, 0).  Needing more
    than ``_MAX_PTS_PER_LOOP`` distinct points (the arcs' shared ends count once), or a
    phase sum farther than 0.1 from an integer, raises ContourThroughZeroError.

    ``vals`` of shape (k, N) holds k functions on the same points, and f(w)
    then returns their k rows at w.  The rows share one first pass of
    moduli, jumps and phase sums; a row that needs bisection is refined on
    its own, with its own midpoints.  The result is the list, in row order,
    of what a 1-D call on each row would return, or the
    ContourThroughZeroError it would raise.
    """
    pts = np.concatenate(arcs)
    last = np.zeros(pts.size, dtype=bool)  # marks each arc's last point
    last[np.cumsum([arc.size for arc in arcs]) - 1] = True
    if np.ndim(vals) == 2:
        return _count_rows(f, pts, last, len(arcs), vals)
    (result,) = _count_rows(lambda w: f(w)[None], pts, last, len(arcs), vals[None])
    if isinstance(result, ContourThroughZeroError):
        raise result
    return result


def _count_rows(
    f: Callable[[np.ndarray], np.ndarray], pts: np.ndarray, last: np.ndarray, n_arcs: int, vals: np.ndarray
) -> list[tuple[float, int] | ContourThroughZeroError]:
    """``winding_number`` on the rows of vals; a row that needs bisection
    goes back on the work list alone, with its own points and f's row."""
    eta, max_pts = _ETA, _MAX_PTS_PER_LOOP
    out: list = [None] * len(vals)
    work = [(range(len(vals)), f, pts, last, vals)]
    while work:
        rows, f, pts, last, vals = work.pop()
        edges = ~last[:-1]
        mods = np.abs(vals)
        # a row with a zero sample divides by it here; its result is (0.0, 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            bad = edges & (np.abs(vals[:, 1:] - vals[:, :-1]) / np.minimum(mods[:, :-1], mods[:, 1:]) > eta)
            # compress keeps each row contiguous, so it is summed as a 1-D row is
            turns = np.angle(np.compress(edges, vals[:, 1:] / vals[:, :-1], axis=1)).sum(axis=1) / (2.0 * np.pi)
        rows_out = zip(rows, mods.min(axis=1).tolist(), turns.tolist(), bad.any(axis=1).tolist())
        for r, (i, low, total, bisect) in enumerate(rows_out):
            if low == 0.0:
                out[i] = (0.0, 0)
            elif not bisect:
                count = round(total)
                if abs(total - count) > 0.1:
                    out[i] = ContourThroughZeroError(f"phase sum {total} over the contour is not near an integer")
                else:
                    out[i] = (low, count)
            elif pts.size - n_arcs + np.count_nonzero(bad[r]) > max_pts:
                out[i] = ContourThroughZeroError(
                    f"modulus {low:.3e} needs more than {max_pts} points for a safe winding count"
                )
            else:
                at = np.flatnonzero(bad[r]) + 1
                mids = 0.5 * (pts[at - 1] + pts[at])
                row_f = partial(_row, f, r)
                row = np.insert(vals[r], at, row_f(mids)[0])
                work.append(([i], row_f, np.insert(pts, at, mids), np.insert(last, at, False), row[None]))
    return out


def _row(f: Callable[[np.ndarray], np.ndarray], r: int, w: np.ndarray) -> np.ndarray:
    """Row r of f(w), kept two-dimensional."""
    return f(w)[r : r + 1]
