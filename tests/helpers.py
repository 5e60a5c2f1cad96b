"""Independent numerical oracles used only by the tests.

These deliberately avoid the package's quadrature stack: composite Simpson
with interval doubling, central finite differences, and brute-force grids.
The equilibrium and threshold oracles use only xi and xi' and never a
package solver; the Phi-route oracle finds equilibria as fixed points of the
public best-response map instead of roots of the first-order condition. The
full-scan planner prices the planner's whole threshold grid, with no cutoff.
"""

import numpy as np
from scipy.optimize import brentq

from harvestfield import meanfield
from harvestfield.diffusion import _calculus
from harvestfield.impulse import critical_bounds, zero_cost_threshold
from harvestfield.meanfield import phi_map, resolve_payoff


def simpson(f, a, b, n):
    xs = np.linspace(a, b, n + 1)
    ys = np.array([f(x) for x in xs])
    h = (b - a) / n
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())


def simpson_refine(f, a, b, tol=1e-10, n0=16, max_doublings=22):
    """Composite Simpson, doubling the panel count until successive values agree."""
    n = n0
    prev = simpson(f, a, b, n)
    for _ in range(max_doublings):
        n *= 2
        cur = simpson(f, a, b, n)
        if abs(cur - prev) <= tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise AssertionError(f"Simpson oracle did not converge on [{a}, {b}]")


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def second_diff(f, x, h):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / h**2


def fd_step(y):
    # balances truncation against rounding for quantities of size ~1..100
    return max(1e-5, 1e-6 * y)


def first_order_root(ev, k_tilde, bracket):
    """Root of ``F(y) = xi(y) - (y - y0 - k_tilde) xi'(y)`` on ``bracket`` by brentq.

    The maximizer of ``(y - y0 - k_tilde)/xi(y)``, found without ``xi''``.
    """
    y0 = ev.y0
    return brentq(
        lambda y: ev.xi(y) - (y - y0 - k_tilde) * ev.xi_prime(y), *bracket, xtol=1e-14, rtol=1e-14
    )


def equilibria_oracle(model, phi, cost, c, c_max):
    """Equilibria from the first-order condition, and sup Phi.

    A threshold y is the best response at price p iff ``p * k(y) = K`` with
    ``k(y) = y - y0 - xi(y)/xi'(y)``, so the equilibria are the roots of
    ``phi(c(y)) * k(y) - K``. Since c(y) <= c_max and phi is nonincreasing,
    every one lies below sup Phi, the root of ``phi(c_max) * k(y) - K``. The
    roots are bracketed by a dense sign scan up to twice sup Phi and refined
    by brentq. Only xi, xi' and the caller's c are used: no equilibrium
    solver, Phi step or threshold optimizer.
    """
    ev = _calculus(model)
    y0 = model.restart_level

    def k(y):
        return y - y0 - ev.xi(y) / ev.xi_prime(y)

    def gap(y):
        return float(phi(c(y))) * k(y) - cost

    y_start = y0 * (1.0 + 1e-3)
    # s(y) in xi'(y) overflows past y ~ 800, so the bracket stops at 100
    sup_phi = brentq(lambda y: float(phi(c_max)) * k(y) - cost, y_start, 100.0, xtol=1e-12)
    ys = np.geomspace(y_start, 2.0 * sup_phi, 2000)
    gaps = np.array([gap(y) for y in ys])
    brackets = np.nonzero(np.sign(gaps[:-1]) != np.sign(gaps[1:]))[0]
    roots = [brentq(gap, ys[i], ys[i + 1], xtol=1e-12, rtol=1e-14) for i in brackets]
    return roots, sup_phi


def phi_route_equilibria(model, payoff):
    """Equilibria as fixed points of Phi: ``[(threshold, map slope, label), ...]``.

    ``psi(y) = Phi(y) - y`` from the public ``phi_map`` on the cells of the
    package's scan grid that meet the best-response range ``[y_lo, y_hi]``,
    every sign change refined by brentq. The slope is a central difference
    of Phi at ``y* +/- h`` with ``h = 1e-3 y*`` and ``h/2``, Richardson
    extrapolated: the plain difference at ``h`` is off by ``4e-4`` on a
    strongly unstable root. Labels follow the package's rule: "marginal"
    within 1e-3 of ``|Phi'| = 1``, else "stable" below 1.
    """
    payoff = resolve_payoff(model, payoff)
    y_lo, y_hi = critical_bounds(model, payoff)
    y0 = model.restart_level
    y_cap = max(20.0 * zero_cost_threshold(model).threshold, 2.0 * y_hi)
    grid = np.geomspace(y0 * (1.0 + 1e-3), y_cap, meanfield._SCAN_POINTS)
    lo = max(int(np.searchsorted(grid, y_lo)) - 1, 0)
    hi = min(int(np.searchsorted(grid, y_hi, side="right")) + 1, len(grid))
    ys = grid[lo:hi]

    def phi(y):
        return phi_map(model, payoff, float(y)).threshold

    psi = np.array([phi(y) - y for y in ys])
    roots = [float(y) for y in ys[psi == 0.0]]
    roots += [
        brentq(lambda y: phi(y) - y, ys[i], ys[i + 1], xtol=1e-12, rtol=1e-14)
        for i in np.flatnonzero(psi[:-1] * psi[1:] < 0.0)
    ]

    def slope(y):
        h = 1e-3 * y
        coarse, fine = central_diff(phi, y, h), central_diff(phi, y, h / 2.0)
        return (4.0 * fine - coarse) / 3.0

    points = []
    for y in sorted(roots):
        d = slope(y)
        label = "marginal" if abs(abs(d) - 1.0) < 1e-3 else "stable" if abs(d) < 1.0 else "unstable"
        points.append((y, d, label))
    return points


def full_scan_planner(model, payoff):
    """The planner optimum from every point of the package's scan grid.

    The package's planner stops pricing the grid where the zero-cost bound
    rules out every later maximum; this one prices all of it, then refines
    each local maximum of the grid the same way, so the two agree exactly.
    """
    scan = meanfield._scan(model, payoff)
    payoff, grid = scan.payoff, scan.grid
    y0 = model.restart_level
    h_grid = (scan.prices() * (grid - y0) - payoff.cost) / scan.xi()
    interior = np.arange(1, len(grid) - 1)
    local_max = interior[
        (h_grid[interior] >= h_grid[interior - 1]) & (h_grid[interior] >= h_grid[interior + 1])
    ]
    refined = [meanfield._refine_maximum(scan, int(i)) for i in local_max]
    refined.sort(key=lambda t: -t[1])
    best_y, best_v = refined[0]
    tol = meanfield._TIE_REL_TOL * max(abs(best_v), 1e-12)
    ties = sorted(set(round(y, 12) for y, v in refined if abs(v - best_v) <= tol))
    flags = []
    if len(ties) > 1:
        flags.append("multiple maximizers within tolerance; smallest threshold reported")
        best_y = ties[0]
        best_v = meanfield._planner_value(model, payoff, best_y)[2]
    z_best, _ = meanfield._clamp_to_domain(
        meanfield.interaction_level(model, payoff, best_y), payoff.domain
    )
    return meanfield.MfcSolution(
        threshold=best_y,
        value=best_v,
        interaction_level=z_best,
        ties=tuple(ties) if len(ties) > 1 else (),
        flags=tuple(flags),
    )
