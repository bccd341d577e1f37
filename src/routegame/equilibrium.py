"""Best response of the non-participating population and obedience checking.

Given a forecast theta of the disobedience fraction, the non-participating
mass 1 - nu splits across links so that no used link has higher expected
latency than any other (expectation over the state prior, with the forecast
participating flows as background).  That split is the unique minimizer of a
convex separable potential over the scaled simplex; we solve it by projected
gradient descent and certify the result through the equivalent variational
inequality, which only needs checking at the simplex vertices because the
inequality is linear in the comparison point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import ConfigurationError, SolverError
from .model import (CompiledGame, GameConfig, OUTPUT_TOL, _check_unit_interval, eval_latency,
                    flows, p_flows, poly_rows)

ARMIJO_C1 = 1e-4
MAX_ITER = 10_000
# Absolute slack added to the Armijo test so it cannot spuriously reject once
# potential differences fall below representable precision; safe because the
# trial step is capped at 1/L, which keeps the projected iteration contractive.
_NOISE_GUARD = 1e-14


@dataclass(frozen=True)
class BestResponse:
    """Certified minimizer of the expected-latency potential on the scaled simplex."""

    y: np.ndarray
    theta: float
    potential_value: float
    vi_margin: float
    iterations: int

    def to_dict(self) -> dict:
        return {
            "y": [float(v) for v in self.y],
            "theta": self.theta,
            "potential_value": self.potential_value,
            "vi_margin": self.vi_margin,
            "iterations": self.iterations,
        }


@dataclass(frozen=True)
class ObedienceReport:
    """Verdict and slack matrices for both inequality families of the obedience condition.

    The condition is existential in the background response y; this report
    evaluates the canonical witness y(0), the best response the dynamics
    converge around, so a failing verdict means this witness fails, not that
    no witness exists.
    """

    obedient: bool
    y0: BestResponse
    worst_obedience_slack: float
    worst_nash_slack: float
    obedience_slacks: np.ndarray
    nash_slacks: np.ndarray
    tol: float
    witness: str = "best response at theta=0"

    def to_dict(self) -> dict:
        return {
            "obedient": self.obedient,
            "y0": self.y0.to_dict(),
            "worst_obedience_slack": self.worst_obedience_slack,
            "worst_nash_slack": self.worst_nash_slack,
            "obedience_slacks": [[float(v) for v in row] for row in self.obedience_slacks],
            "nash_slacks": [[float(v) for v in row] for row in self.nash_slacks],
            "tol": self.tol,
            "witness": self.witness,
        }


def project_simplex(v: np.ndarray, mass: float) -> np.ndarray:
    """Euclidean projection onto {y >= 0, sum(y) = mass} by sort and threshold."""
    if mass < 0:
        raise ConfigurationError(f"simplex mass must be nonnegative, got {mass}")
    v = np.asarray(v, dtype=float)
    if mass == 0.0:
        return np.zeros_like(v)
    u = np.sort(v)[::-1]
    cssv = np.cumsum(u) - mass
    idx = np.arange(1, v.size + 1)
    rho = idx[u - cssv / idx > 0][-1]
    tau = cssv[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


def response_coeffs(game: CompiledGame, pi: np.ndarray, shift: np.ndarray,
                    theta: float) -> np.ndarray:
    """Coefficients c[p, i] of the expected latency on link i as a polynomial in y_i.

    Expands each latency term around the forecast participating flows for the
    given theta and averages over the prior.  The d = p terms are compiled;
    the others are added to them in the expansion's order.
    """
    xhat = flows(pi, shift, theta)
    out = game.response_const.copy()
    for d in range(1, game.coeffs.shape[0]):
        alpha_d = game.coeffs[d]
        for p in range(d):
            out[p] += comb(d, p) * (game.mu0 @ (alpha_d * xhat ** (d - p)))
    return out


def _potential_from_coeffs(coeffs: np.ndarray, y: np.ndarray) -> float:
    powers = np.arange(1, coeffs.shape[0] + 1, dtype=float)[:, None]
    return float(np.sum(coeffs / powers * y ** powers))


def _trial_step(coeffs: np.ndarray, mass: float) -> float:
    """Largest safe gradient step: 1 over the gradient's Lipschitz bound on the box."""
    if coeffs.shape[0] < 2:
        return 1.0
    p = np.arange(1, coeffs.shape[0], dtype=float)[:, None]
    lip = float((p * np.abs(coeffs[1:]) * mass ** (p - 1.0)).sum(axis=0).max())
    return 1.0 if lip == 0.0 else min(1.0, 1.0 / lip)


def _check_candidate(y: np.ndarray, n: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (n,) or not np.all(np.isfinite(y)) or np.any(y < 0):
        raise ConfigurationError(
            "candidate vector must be finite and nonnegative with one entry per link")
    return y


def expected_latency(config: GameConfig, theta: float, y: np.ndarray) -> np.ndarray:
    """Prior-averaged per-link latency at forecast participating flows plus y."""
    y = _check_candidate(y, config.latency.n)
    acc = np.zeros(config.latency.n)
    for w in range(config.latency.num_states):
        xw = p_flows(config.signal, config.disobedience, theta, w)
        acc += config.prior.mu0[w] * eval_latency(config.latency, w, xw + y)
    return acc


def potential(config: GameConfig, theta: float, y: np.ndarray) -> float:
    """Convex potential whose gradient is :func:`expected_latency`.

    Integrated in closed form per monomial, so gradients carry no quadrature
    error.
    """
    _check_unit_interval(theta, "theta")
    y = _check_candidate(y, config.latency.n)
    game = CompiledGame.of(config)
    return _potential_from_coeffs(response_coeffs(game, game.pi, game.shift, theta), y)


def _vi_margin(grad: np.ndarray, y: np.ndarray, mass: float) -> float:
    return float(mass * grad.min() - grad @ y)


def verify_vi(config: GameConfig, theta: float, y: np.ndarray) -> float:
    """Worst variational-inequality slack of y over the simplex vertices.

    The slack is linear in the comparison point, so the vertex minimum equals
    the minimum over the whole simplex; a value >= -tol certifies y.
    """
    y = np.asarray(y, dtype=float)
    mass = 1.0 - config.signal.nu
    if np.any(y < -OUTPUT_TOL) or abs(float(y.sum()) - mass) > OUTPUT_TOL:
        raise ConfigurationError(f"y is not on the simplex of mass {mass}")
    return _vi_margin(expected_latency(config, theta, np.maximum(y, 0.0)), y, mass)


def best_response(game: CompiledGame, pi: np.ndarray, shift: np.ndarray, theta: float,
                  start: np.ndarray | None = None):
    """Kernel of :func:`solve_bwe` on a compiled game, for recommendation rows ``pi``.

    Returns ``(y, coeffs, vi_margin, iterations)``; ``coeffs`` is None when
    the response mass is zero.  The potential and the trial step are needed
    only once the start point fails its certificate, so they are computed then.
    """
    mass, n = game.mass, pi.shape[1]
    if mass == 0.0:
        return np.zeros(n), None, 0.0, 0
    coeffs = response_coeffs(game, pi, shift, theta)
    if start is None:
        y = np.full(n, mass / n)
    else:
        y = project_simplex(np.asarray(start, dtype=float), mass)
    tol = game.solver_tol
    phi = t_init = None
    margin = 0.0
    for it in range(MAX_ITER):
        grad = poly_rows(coeffs, y)
        margin = _vi_margin(grad, y, mass)
        if margin >= -tol:
            return y, coeffs, margin, it
        if phi is None:
            phi = _potential_from_coeffs(coeffs, y)
            t_init = _trial_step(coeffs, mass)
        t = t_init
        guard = _NOISE_GUARD * max(1.0, abs(phi))
        while True:
            y_new = project_simplex(y - t * grad, mass)
            phi_new = _potential_from_coeffs(coeffs, y_new)
            if phi_new <= phi + ARMIJO_C1 * float(grad @ (y_new - y)) + guard:
                break
            t *= 0.5
            if t < 1e-18:
                raise SolverError("line search stalled before reaching the VI certificate",
                                  last_iterate=y, vi_margin=margin, iterations=it)
        if np.array_equal(y_new, y):
            raise SolverError("iterate stopped moving before reaching the VI certificate",
                              last_iterate=y, vi_margin=margin, iterations=it)
        y, phi = y_new, phi_new
    raise SolverError(f"no VI certificate after {MAX_ITER} iterations",
                      last_iterate=y, vi_margin=margin, iterations=MAX_ITER)


def solve_bwe(config: GameConfig, theta: float, *,
              start: np.ndarray | None = None) -> BestResponse:
    """Best response of the non-participating mass 1 - nu to the forecast theta.

    Deterministic projected gradient descent with halving Armijo line search,
    started from the uniform point unless ``start`` is given.  Converged when
    the vertex VI margin clears ``-config.solver_tol``.
    """
    _check_unit_interval(theta, "theta")
    if config.signal.nu == 1.0:  # nothing to respond with; skip compiling the game
        return BestResponse(y=np.zeros(config.latency.n), theta=theta, potential_value=0.0,
                            vi_margin=0.0, iterations=0)
    game = CompiledGame.of(config)
    y, coeffs, margin, it = best_response(game, game.pi, game.shift, theta, start)
    return BestResponse(y=y, theta=theta, potential_value=_potential_from_coeffs(coeffs, y),
                        vi_margin=margin, iterations=it)


def check_obedience(config: GameConfig, tol: float | None = None) -> ObedienceReport:
    """Evaluate both obedience inequality families at the canonical witness y(0).

    Family one weighs the latency gap between a recommended link and any fixed
    deviation by the recommendation mass; family two weighs it by the witness
    response itself.  A signal passes when every pairwise slack is at most
    ``tol``.
    """
    if tol is None:
        tol = config.solver_tol
    y0 = solve_bwe(config, 0.0)
    coeffs, mu0, pi = config.latency.coeffs, config.prior.mu0, config.signal.pi
    full = np.stack([
        poly_rows(coeffs[:, w, :], pi[w] + y0.y) for w in range(pi.shape[0])
    ])                                        # full[w, i] = latency on i in state w
    gap = full[:, :, None] - full[:, None, :]  # gap[w, i, j] = cost of i minus cost of j
    obedience = np.einsum("w,wi,wij->ij", mu0, pi, gap)
    expected = mu0 @ full
    nash = y0.y[:, None] * (expected[:, None] - expected[None, :])
    worst_obedience = float(obedience.max())
    worst_nash = float(nash.max())
    return ObedienceReport(
        obedient=bool(worst_obedience <= tol and worst_nash <= tol),
        y0=y0,
        worst_obedience_slack=worst_obedience,
        worst_nash_slack=worst_nash,
        obedience_slacks=obedience,
        nash_slacks=nash,
        tol=tol,
    )


def lipschitz_estimate(config: GameConfig, grid_size: int) -> float:
    """Largest L1 slope of the best-response map over a uniform theta grid."""
    if grid_size < 2:
        raise ConfigurationError(f"grid_size must be >= 2, got {grid_size}")
    thetas = np.linspace(0.0, 1.0, grid_size)
    responses = [solve_bwe(config, float(t)).y for t in thetas]
    diffs = [
        float(np.abs(responses[i + 1] - responses[i]).sum()) / (thetas[i + 1] - thetas[i])
        for i in range(grid_size - 1)
    ]
    return max(diffs)
