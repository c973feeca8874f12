"""Functions sampled on a uniform grid of the unit circle.

Carries boundary traces and the analysis kernels acting on them: harmonic
conjugation (the -i sgn(n) Fourier multiplier) and winding numbers of
sampled curves.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

MIN_GRID = 8


@dataclass(frozen=True)
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


def winding_number(values: np.ndarray) -> int:
    """Winding number around 0 of a closed sampled curve (last point wraps to first).

    Requires consecutive phase steps below pi; callers must sample densely
    enough for that to hold.
    """
    v = np.asarray(values)
    if np.any(np.abs(v) == 0.0):
        raise ValueError("curve passes through 0; winding number undefined")
    ratios = np.roll(v, -1) / v
    total = float(np.angle(ratios).sum() / (2.0 * np.pi))
    k = round(total)
    if abs(total - k) > 0.1:
        raise ValueError(f"winding sum {total} not close to an integer; sample more densely")
    return k
