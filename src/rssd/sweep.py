"""Grid sweep with golden-section refinement around local maxima.

It finds the peak of the nu-gap's Psi on the frequency grid; accuracy is
guarded by dense-grid oracle tests.  L-infinity norms do not use it: they
are certified by Hamiltonian iteration in ``rssd.margins.linf_norm``.
"""

from __future__ import annotations

import numpy as np

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def golden_max(f, lo: float, hi: float, rel_tol: float = 1e-4,
               max_iter: int = 40):
    """Golden-section maximization of a scalar function on [lo, hi]."""
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if (b - a) <= rel_tol * max(abs(a), abs(b), 1e-300):
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def grid_peak(f_batch, grid, max_refined: int = 8):
    """Maximum of a scalar frequency function over a refined grid.

    f_batch maps an array of omega to an array of values.  Every grid-local
    maximum (up to ``max_refined``, largest first) is polished with a
    golden-section search between its neighbouring grid points.

    Returns (value, omega).
    """
    pts = grid.points
    vals = np.asarray(f_batch(pts), dtype=float)
    best_i = int(np.argmax(vals))
    best_v, best_w = vals[best_i], pts[best_i]

    interior = np.arange(1, pts.size - 1)
    is_max = (vals[interior] >= vals[interior - 1]) & (vals[interior] >= vals[interior + 1])
    cand = list(interior[is_max])
    if vals[0] >= vals[1]:
        cand.append(0)
    if vals[-1] >= vals[-2]:
        cand.append(pts.size - 1)
    cand.sort(key=lambda i: -vals[i])

    def f_scalar(w):
        return float(f_batch(np.array([w]))[0])

    for i in cand[:max_refined]:
        lo = pts[max(i - 1, 0)]
        hi = pts[min(i + 1, pts.size - 1)]
        if hi <= lo:
            continue
        # search in log-frequency when the bracket allows it
        if lo > 0:
            w, v = golden_max(
                lambda t: f_scalar(10.0**t), np.log10(lo), np.log10(hi),
                grid.rel_tol, grid.max_refine_depth,
            )
            w = 10.0**w
        else:
            w, v = golden_max(f_scalar, lo, hi, grid.rel_tol,
                              grid.max_refine_depth)
        if v > best_v:
            best_v, best_w = v, w
    return float(best_v), float(best_w)
