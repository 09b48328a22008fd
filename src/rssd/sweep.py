"""Grid sweep with batched bracket refinement around local maxima.

It finds the peak of the nu-gap's Psi on the frequency grid; accuracy is
guarded by dense-grid oracle tests.  L-infinity norms do not use it: they
are certified by Hamiltonian iteration in ``rssd.margins.linf_norm``.
"""

from __future__ import annotations

import numpy as np

# Interior samples per bracket and round; each round keeps the two
# intervals around the best sample, shrinking a bracket by 2/9.
_ROUND_POINTS = 8
# Brackets stop this much tighter than FrequencyGrid.rel_tol: stopped at
# rel_tol itself, the coarser 2/9 steps left some nu-gap peaks up to 8e-10
# below a golden-section polish to the same tolerance.
_TOL_FACTOR = 0.1


def grid_peak(f_batch, grid, max_refined: int = 8):
    """Maximum of a scalar frequency function over a refined grid.

    f_batch maps an array of omega to an array of values.  Every grid-local
    maximum (up to ``max_refined``, largest first) is bracketed by its
    neighbouring grid points, in log-frequency when the bracket allows it.
    Each round samples ``_ROUND_POINTS`` interior points of every live
    bracket in one ``f_batch`` call and shrinks each bracket to the
    neighbours of its best sample.  A bracket stops once its width is within
    ``grid.rel_tol / 10`` of its position; at most ``grid.max_refine_depth``
    rounds run.  The best value seen is returned, so it is never below the
    grid maximum.

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
    cand = np.array(sorted(cand, key=lambda i: -vals[i])[:max_refined], dtype=int)

    lo = pts[np.maximum(cand - 1, 0)]
    hi = pts[np.minimum(cand + 1, pts.size - 1)]
    log = lo > 0
    a = np.where(log, np.log10(np.maximum(lo, 1e-300)), lo)
    b = np.where(log, np.log10(hi), hi)
    steps = np.arange(_ROUND_POINTS + 2) / (_ROUND_POINTS + 1)
    tol = _TOL_FACTOR * grid.rel_tol
    for _ in range(grid.max_refine_depth):
        live = (b - a) > tol * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
        if not live.any():
            break
        a, b, log = a[live], b[live], log[live]
        t = a[:, None] + (b - a)[:, None] * steps
        w = t.copy()
        w[log] = 10.0 ** t[log]
        v = np.asarray(f_batch(w[:, 1:-1].ravel()), dtype=float).reshape(a.size, -1)
        j = np.argmax(v, axis=1)
        rows = np.arange(a.size)
        peak = v[rows, j]
        k = int(np.argmax(peak))
        if peak[k] > best_v:
            best_v, best_w = peak[k], w[k, j[k] + 1]
        a, b = t[rows, j], t[rows, j + 2]
    return float(best_v), float(best_w)
