"""Hyperbolic geometry of the unit disk.

The Mobius involution interchanging 0 and z together with the
pseudohyperbolic and hyperbolic metrics, as scalars and as the array kernel
``rho_matrix`` / ``beta_matrix`` that every pairwise distance goes through,
and the one Euclidean point-to-segment kernel, ``segment_distances``.
Points are plain complex numbers; ``interior_value`` is the interior guard.

The one union-of-disks geometry, of certification's neighborhood contours
and of ``carleson.alpha_b``: hyperbolic disks as Euclidean ones, the arcs
bounding their union and one sampling pass over the arcs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInputError

# Points at least this close to the circle are rejected as "interior".
INTERIOR_GUARD = 1e-12
DEGENERATE_DENOMINATOR = 1e-14
# Points this close to 0 are folded into the origin-zero order of a product.
ORIGIN_FOLD = 1e-14
# rho is clamped here before it becomes beta: two interior points may round to rho = 1
RHO_CAP = 1.0 - 1e-16


def interior_value(z) -> complex:
    """z as a complex number; ValueError unless |z| < 1 - ``INTERIOR_GUARD``."""
    w = complex(z)
    if not abs(w) < 1.0 - INTERIOR_GUARD:
        raise ValueError(f"point must be interior (|z| < 1 - 1e-12), got |z| = {abs(w):.17g}")
    return w


def mobius(z, w) -> complex:
    """The involution (z - w) / (1 - conj(z) w) interchanging 0 and z.

    Holomorphic in w and an isometry of the pseudohyperbolic metric; the
    modulus agrees with the variant that conjugates w instead.
    """
    zz = interior_value(z)
    ww = complex(w)
    if abs(ww) > 1.0 + INTERIOR_GUARD:
        raise ValueError(f"second argument must satisfy |w| <= 1, got {abs(ww)}")
    den = 1.0 - zz.conjugate() * ww
    if abs(den) < DEGENERATE_DENOMINATOR:
        raise DegenerateInputError(f"mobius denominator {abs(den):.3e} below 1e-14")
    return (zz - ww) / den


def pseudo_distance(z, w) -> float:
    """Pseudohyperbolic distance rho(z, w) = |(z - w)/(1 - conj(z) w)|."""
    zz = interior_value(z)
    ww = interior_value(w)
    return abs((zz - ww) / (1.0 - zz.conjugate() * ww))


def hyper_distance(z, w) -> float:
    """Hyperbolic distance beta(z, w) = log((1 + rho)/(1 - rho)), rho clamped at ``RHO_CAP``."""
    return beta_from_rho(min(pseudo_distance(z, w), RHO_CAP))


def rho_matrix(points_a, points_b) -> np.ndarray:
    """Pseudohyperbolic distances |(a - b)/(1 - conj(b) a)|, a row per point of
    ``points_a`` and a column per point of ``points_b``; no interior guard."""
    a = np.asarray(points_a, dtype=np.complex128)[:, None]
    b = np.asarray(points_b, dtype=np.complex128)[None, :]
    return np.abs((a - b) / (1.0 - np.conj(b) * a))


def clamped_beta(rho: np.ndarray) -> np.ndarray:
    """Elementwise log((1 + rho)/(1 - rho)) of rho clamped at ``RHO_CAP``."""
    rho = np.minimum(rho, RHO_CAP)
    return np.log1p(rho) - np.log1p(-rho)


def beta_matrix(points_a, points_b) -> np.ndarray:
    """Hyperbolic distances ``clamped_beta(rho_matrix(points_a, points_b))``."""
    return clamped_beta(rho_matrix(points_a, points_b))


def segment_distances(p, starts, dvec, dd) -> np.ndarray:
    """Elementwise distance from p to the segment [start, start + dvec], with
    dd = |dvec|^2 > 0; operands broadcast."""
    diff = p - starts
    t = np.clip((diff * np.conj(dvec)).real / dd, 0.0, 1.0)
    return np.abs(diff - t * dvec)


def beta_from_rho(rho: float) -> float:
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    # log1p keeps full precision for rho near 0 and near 1
    return math.log1p(rho) - math.log1p(-rho)


def rho_from_beta(beta: float) -> float:
    if beta < 0.0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    return math.tanh(beta / 2.0)


def _hyperbolic_disks(centers: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean centres and radii of the disks {beta(z, c) <= radius} about
    ``centers``: with rho = tanh(radius/2), the centre c (1 - rho^2) / (1 - rho^2 |c|^2)
    and the radius rho (1 - |c|^2) / (1 - rho^2 |c|^2).  Each array operation
    repeats a scalar complex one's bits: |c| is a hypot, its square a pow,
    and the centre a complex times a real, then over a real, part by part."""
    rho = math.tanh(radius / 2.0)
    cr, ci = centers.real, centers.imag
    ac2 = np.array([h**2 for h in np.hypot(cr, ci).ravel().tolist()]).reshape(centers.shape)
    den = 1.0 - rho * rho * ac2
    f = 1.0 - rho * rho
    re, im = cr * f - ci * 0.0, cr * 0.0 + ci * f
    o = np.empty(centers.shape, dtype=np.complex128)
    o.real, o.imag = (re + im * 0.0) / den, (im - re * 0.0) / den
    return o, rho * (1.0 - ac2) / den


def _uncovered_spans(o: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arcs bounding the union of each row's disks (centres ``o``, radii
    ``r``, both of shape (rows, n)), as flat arrays (row * n + disk, start
    angle, end angle); an uncovered circle is the span (0, 2 pi).

    Every arc runs counterclockwise on its own circle, so the union lies on
    its left, holes included: phase increments of f summed over all the arcs
    give the signed count of zeros of f in the union.  A disk within 1e-13
    of a kept earlier one is dropped, and so is a disk inside a larger one,
    or inside an equal one listed first.  Each kept disk's covered intervals
    are reduced mod 2 pi, split at 0, sorted and merged while the next one
    starts within 1e-12 of the running end; a first merged interval starting
    within 1e-12 of 0 takes in a last one ending within 1e-12 of 2 pi, and
    the gaps wider than 1e-12 are the arcs, each disk's in order.
    """
    two_pi = 2.0 * math.pi
    rows, n = r.shape
    diff = o[:, None, :] - o[:, :, None]  # [row, i, j]: o_j - o_i
    dist = np.hypot(diff.real, diff.imag)
    ri, rj = r[:, :, None], r[:, None, :]
    earlier = np.tri(n, k=-1, dtype=bool)  # [i, j]: j < i
    keep = np.ones((rows, n), dtype=bool)
    same = (dist < 1e-13) & (np.abs(ri - rj) < 1e-13) & earlier
    if same.any():
        for i in range(1, n):
            keep[:, i] = ~(same[:, i, :i] & keep[:, :i]).any(axis=1)
    larger = (rj > ri) | ((rj == ri) & earlier)
    active = keep & ~((dist + ri <= rj + 1e-15) & larger & keep[:, None, :]).any(axis=2)
    cover = active[:, :, None] & active[:, None, :] & (dist < ri + rj - 1e-15) & (dist + rj > ri)

    # disk i's covered interval (phi - half, phi + half) under each overlapping j, by libm as the scalars are
    row, i, j = np.nonzero(cover)
    d, r1, r2, dij = dist[cover], r[row, i], r[row, j], diff[cover]
    phi = np.array(list(map(math.atan2, dij.imag.tolist(), dij.real.tolist())))
    cos_half = np.minimum(1.0, np.maximum(-1.0, (d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1)))
    half = np.array(list(map(math.acos, cos_half.tolist())))
    a = np.mod(phi - half, two_pi)
    b = a + ((phi + half) - (phi - half))
    wraps = b > two_pi
    disk = np.concatenate((row * n + i, (row * n + i)[wraps]))
    a = np.concatenate((a, np.zeros(np.count_nonzero(wraps))))
    b = np.concatenate((np.minimum(b, two_pi), b[wraps] - two_pi))

    # per disk, by start: a run goes on while a start is within 1e-12 of its running end
    order = np.lexsort((a, disk))
    disk, a, b = disk[order], a[order], b[order]
    first = np.flatnonzero(np.diff(disk, prepend=-1))
    count = np.diff(np.append(first, disk.size))
    at = (np.repeat(np.arange(first.size), count), np.arange(disk.size) - np.repeat(first, count))
    padded = np.full((first.size, count.max(initial=0)), -np.inf)
    padded[at] = b
    reach = np.maximum.accumulate(padded, axis=1)[at]
    run = np.flatnonzero((at[1] == 0) | (a > np.concatenate(([0.0], reach[:-1])) + 1e-12))
    m_disk, m_lo, m_hi = disk[run], a[run], reach[np.append(run, disk.size)[1:] - 1]

    # the wrap-around join, then the gap after each merged interval
    head = np.flatnonzero(np.diff(m_disk, prepend=-1))
    tail = np.append(head, m_disk.size)[1:] - 1
    join = (tail > head) & (m_lo[head] <= 1e-12) & (m_hi[tail] >= two_pi - 1e-12)
    m_lo[head[join]] = m_lo[tail[join]] - two_pi
    live = np.ones(m_disk.size, dtype=bool)
    live[tail[join]] = False
    tail[join] -= 1
    nxt, turn = np.minimum(np.arange(1, m_disk.size + 1), m_disk.size - 1), np.zeros(m_disk.size)
    nxt[tail], turn[tail] = head, two_pi
    gap_hi = m_lo[nxt] + turn
    arc = live & (gap_hi > m_hi + 1e-12)

    lone = np.flatnonzero(active.ravel() & (np.bincount(disk, minlength=rows * n) == 0))
    disk = np.concatenate((m_disk[arc], lone))
    start = np.concatenate((m_hi[arc], np.zeros(lone.size)))
    end = np.concatenate((gap_hi[arc], np.full(lone.size, two_pi)))
    return disk, start, end


def _sample_arcs(
    o: np.ndarray, r: np.ndarray, a: np.ndarray, b: np.ndarray, pts_per_circle: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each span (centre o, radius r, start a, end b) sampled with both of its
    ends, at ``pts_per_circle`` points per full circle, in one array pass and
    one ``exp``: the points laid end to end, and the offset after each span."""
    two_pi = 2.0 * math.pi
    n_pts = np.maximum(2, np.ceil(pts_per_circle * ((b - a) / two_pi)).astype(np.int64))
    sizes = n_pts + 1
    ends = np.cumsum(sizes)
    k = np.arange(ends[-1] if ends.size else 0) - np.repeat(ends - sizes, sizes)
    theta = np.repeat(a, sizes) + np.repeat(b - a, sizes) * k / np.repeat(n_pts, sizes)
    # ufunc calls, not operators: numpy would reuse a large temporary in place, which rounds differently
    return np.add(np.repeat(o, sizes), np.multiply(np.repeat(r, sizes), np.exp(1j * theta))), ends
