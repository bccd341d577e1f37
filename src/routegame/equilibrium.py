"""Best response of the non-participating population and obedience checking.

Given a forecast theta of the disobedience fraction, the non-participating
mass 1 - nu splits across links so that no used link has higher expected
latency than any other (expectation over the state prior, with the forecast
participating flows as background).  That split minimizes a separable
potential over the scaled simplex; we solve it by projected gradient descent
with a fixed step and certify the result through the equivalent variational
inequality, which only needs checking at the simplex vertices because the
inequality is linear in the comparison point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, inf

import numpy as np

from .errors import ConfigurationError, SolverError, _real
from .model import (CompiledGame, GameConfig, OUTPUT_TOL, _link_vector, _unit_interval, flows,
                    poly_rows, rerouting_shift)

MAX_ITER = 10_000


@dataclass(frozen=True)
class BestResponse:
    """Certified minimizer of the expected-latency potential on the scaled simplex."""

    y: np.ndarray
    theta: float
    vi_margin: float
    iterations: int

    def to_dict(self) -> dict:
        return {
            "y": [float(v) for v in self.y],
            "theta": self.theta,
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


_RANKS: dict[int, np.ndarray] = {}  # 1.0 .. n per length n; read-only, so callers share them


def project_simplex(v: np.ndarray, mass: float) -> np.ndarray:
    """Euclidean projection onto {y >= 0, sum(y) = mass} by sort and threshold.

    With u the entries sorted in decreasing order, the threshold is
    tau = q[rho - 1] for q[k - 1] = (u[0] + ... + u[k - 1] - mass) / k and rho
    the last k with u[k - 1] > q[k - 1] (Duchi et al., ICML 2008).  q is built
    in place in one array and tau is read from it, so tau is the same
    quotient, with the same bits, as dividing the shifted cumulative sum at
    rho by rho.  For finite doubles with gradual underflow, u > q decides as
    u - q > 0 does: a difference of two doubles rounds to zero only when they
    are equal.  The cumulative sum calls ``np.add.accumulate`` itself:
    ``cumsum`` reaches it by a name string made for each call, which Python
    3.11's type method cache may keep alive in a slot picked by its address,
    so the traced peak memory of a run varied by kilobytes between processes.
    The ranks 1 .. n are one cached read-only array per n.

    The solver's kernel: it checks nothing.  ``v`` is a finite float vector
    and ``mass`` is the game's finite, positive ``1 - nu``, since
    :func:`best_response` returns before projecting at mass 0; the one
    outside vector, :func:`solve_bwe`'s ``start``, is checked there.

    When no rank has u > q, as for a mass below half an ulp of the largest
    entry, rank 1 failed, so u[0] - mass rounded to u[0] and the mass is at
    most half the spacing below u[0].  The exact projection is then the
    entries tied at the maximum sharing the mass equally: the next distinct
    entry lies at least one spacing below, farther than the mass, so it
    stays at zero.
    """
    u = v.copy()
    u.sort()
    u = u[::-1]
    q = np.add.accumulate(u)
    q -= mass
    ranks = _RANKS.get(v.size)
    if ranks is None:
        ranks = _RANKS[v.size] = np.arange(1.0, v.size + 1.0)
        ranks.setflags(write=False)
    q /= ranks
    passing = (u > q).nonzero()[0]
    if not passing.size:
        top = v == u[0]
        return top * (mass / np.count_nonzero(top))
    out = v - q[passing[-1]]
    np.maximum(out, 0.0, out=out)
    return out


def response_coeffs(game: CompiledGame, xhat: np.ndarray) -> list[np.ndarray]:
    """Rows c[p] of the expected latency's coefficients, c[p][i] multiplying y_i ** p.

    Expands each latency term around ``xhat``, the forecast participating
    flows of every state (one row each), and averages over the prior.  The
    d = p terms are compiled; row p is their row plus the term of d = p + 1,
    a new array, to which the terms of d = p + 2, p + 3, ... are added in
    place in that order: the IEEE adds of copying the compiled row and adding
    every term in place.  The top row is the compiled row itself, never
    written.  Each power of ``xhat`` is computed once, the first is ``xhat``
    itself, and a binomial of 1 multiplies nothing.
    """
    coeffs, mu0, const = game.coeffs, game.mu0, game.response_const
    top = len(const) - 1
    powers = [None, xhat]
    for d in range(2, top + 1):
        powers.append(xhat ** d)
    rows = []
    for p in range(top):
        row = None
        for d in range(p + 1, top + 1):
            term = mu0.dot(coeffs[d] * powers[d - p])
            binomial = comb(d, p)
            if binomial != 1:
                term *= binomial
            if row is None:
                row = const[p] + term
            else:
                row += term
        rows.append(row)
    rows.append(const[top])
    return rows


def _potential_from_coeffs(coeffs: np.ndarray, y: np.ndarray) -> float:
    powers = np.arange(1, coeffs.shape[0] + 1, dtype=float)[:, None]
    return float(np.sum(coeffs / powers * y ** powers))


def _trial_step(game: CompiledGame, rows) -> float:
    """The solver's step, min(1, 1/L) for L the gradient's Lipschitz bound on the scaled simplex.

    The Hessian is diagonal with |entry i| <= sum_p p |c[p, i]| mass**(p - 1) there, so
    any step <= 1/L gives phi(y+) <= phi(y) + grad . (y+ - y) / 2 <= phi(y), convex or
    not (Beck and Teboulle 2009, Lemma 2.3): every step descends, with no line search.
    The columns p and mass**(p - 1) are compiled with the game; the rows of
    degree >= 1 are stacked here, once a solve iterates.
    """
    bound = game.step_rank * np.abs(np.array(rows[1:])) * game.step_mass_powers
    lip = float(np.maximum.reduce(np.add.reduce(bound, axis=0)))
    return 1.0 if lip == 0.0 else min(1.0, 1.0 / lip)


def _theta_and_y(config: GameConfig, theta: float, y,
                 on_simplex: bool = False) -> tuple[float, np.ndarray]:
    """``theta`` as a float in [0, 1], and ``y`` as a finite link vector.

    ``y`` must be nonnegative, or, with ``on_simplex``, on the simplex of
    mass 1 - nu within ``OUTPUT_TOL``.
    """
    theta = _unit_interval(theta, "theta")
    y = _link_vector(y, config.latency.n, "y")
    if on_simplex:
        mass = 1.0 - config.signal.nu
        if np.any(y < -OUTPUT_TOL) or abs(float(y.sum()) - mass) > OUTPUT_TOL:
            raise ConfigurationError(f"y is not on the simplex of mass {mass}")
    elif np.any(y < 0.0):
        raise ConfigurationError("y must be nonnegative")
    return theta, y


def _expected_latency(config: GameConfig, theta: float, y: np.ndarray) -> np.ndarray:
    """:func:`expected_latency` at a ``theta`` and ``y`` that :func:`_theta_and_y` has read."""
    coeffs, matrix = config.latency.coeffs, config.disobedience.matrix
    acc = np.zeros(config.latency.n)
    for w, pi_w in enumerate(config.signal.pi):
        xw = flows(pi_w, rerouting_shift(matrix, pi_w), theta)
        acc += config.prior.mu0[w] * poly_rows(coeffs[:, w, :], xw + y)
    return acc


def expected_latency(config: GameConfig, theta: float, y: np.ndarray) -> np.ndarray:
    """Prior-averaged per-link latency at forecast participating flows plus y.

    Each state's latencies are evaluated at its own flows, not through the best
    response's binomial expansion, so :func:`verify_vi` is an independent check.
    """
    return _expected_latency(config, *_theta_and_y(config, theta, y))


def potential(config: GameConfig, theta: float, y: np.ndarray) -> float:
    """Convex potential whose gradient is :func:`expected_latency`.

    Integrated in closed form per monomial, so gradients carry no quadrature
    error.
    """
    theta, y = _theta_and_y(config, theta, y)
    game = CompiledGame.of(config)
    rows = response_coeffs(game, flows(game.pi, game.shift, theta))
    return _potential_from_coeffs(np.array(rows), y)


def _vi_margin(grad: np.ndarray, y: np.ndarray, mass: float) -> float:
    """The vertex VI margin ``mass * min(grad) - grad . y``, on Python floats.

    The minimum is read at ``argmin``.  Doubles that compare equal have the
    same bits, zeros of opposite sign and NaNs aside, so only a zero or NaN
    minimum is taken from ``np.minimum.reduce``, whose pick among them is
    ``ndarray.min``'s.
    """
    low = grad.item(grad.argmin())
    if low == 0.0 or low != low:
        low = float(np.minimum.reduce(grad))
    return mass * low - float(grad.dot(y))


def verify_vi(config: GameConfig, theta: float, y: np.ndarray) -> float:
    """Worst variational-inequality slack of y over the simplex vertices.

    The slack is linear in the comparison point, so the vertex minimum equals
    the minimum over the whole simplex; a value >= -tol certifies y.
    """
    theta, y = _theta_and_y(config, theta, y, on_simplex=True)
    return _vi_margin(_expected_latency(config, theta, np.maximum(y, 0.0)), y, 1.0 - config.signal.nu)


def _stalled(y: np.ndarray, margin: float, iterations: int) -> SolverError:
    return SolverError("iterate stopped moving before reaching the VI certificate",
                       last_iterate=y, vi_margin=margin, iterations=iterations)


def best_response(game: CompiledGame, xhat: np.ndarray | None,
                  start: np.ndarray | None = None, start_fixed: bool = False):
    """Kernel of :func:`solve_bwe` on a compiled game, for the forecast flows ``xhat``.

    ``xhat`` holds one row of forecast participating flows per state.
    Returns ``(y, vi_margin, iterations)``.  A zero response mass does not
    read ``xhat`` and returns the compiled read-only zero vector.  ``start``
    is projected, not checked, unless ``start_fixed`` says it is a float
    array whose projection onto the simplex of mass ``game.mass`` has its own
    bytes; then it is used as is,
    which gives the same bits, since the projection is a pure function.  A
    response that certifies at iteration 0 is the start point itself, the
    same array.  The coefficient rows of :func:`response_coeffs` are built
    once per solve; the step of :func:`_trial_step` is computed once the
    start point fails its certificate.

    An iterate that stopped moving raises :class:`SolverError` with the
    iterate it failed to leave.  The arrays are compared one iteration late,
    and only when the margin repeats (or is nan), and once more after the
    last iteration: an iterate equal to the one before has the same gradient
    up to the sign of a zero entry, so the same margin, which is below
    ``-solver_tol`` and so never a zero of either sign.  The error is the one
    a comparison after every projection raises, with the same iterations,
    margin and ``last_iterate``.
    """
    mass, n = game.mass, game.pi.shape[1]
    if mass == 0.0:
        return game.zero_response, 0.0, 0
    rows = response_coeffs(game, xhat)
    if start is None:
        y = np.empty(n)
        y.fill(mass / n)
    elif start_fixed:
        y = start
    else:
        y = project_simplex(start, mass)
    tol = game.solver_tol
    y_prev, margin_prev = None, 0.0
    for it in range(MAX_ITER):
        grad = poly_rows(rows, y)
        margin = _vi_margin(grad, y, mass)
        if margin >= -tol:
            return y, margin, it
        if it == 0:
            t = _trial_step(game, rows)
        elif (margin == margin_prev or margin != margin) and np.array_equal(y, y_prev):
            raise _stalled(y_prev, margin_prev, it - 1)
        y_prev, margin_prev = y, margin
        y = project_simplex(y - t * grad, mass)
    if np.array_equal(y, y_prev):
        raise _stalled(y_prev, margin_prev, MAX_ITER - 1)
    raise SolverError(f"no VI certificate after {MAX_ITER} iterations",
                      last_iterate=y, vi_margin=margin_prev, iterations=MAX_ITER)


def solve_bwe(config: GameConfig, theta: float, *,
              start: np.ndarray | None = None) -> BestResponse:
    """Best response of the non-participating mass 1 - nu to the forecast theta.

    Deterministic projected gradient descent with the fixed step of
    :func:`_trial_step`, started from the uniform point or the projection of
    ``start``, a finite vector with one entry per link.  Converged when the
    vertex VI margin clears ``-config.solver_tol``.
    """
    theta = _unit_interval(theta, "theta")
    if start is not None:
        start = _link_vector(start, config.latency.n, "start")
    if config.signal.nu == 1.0:  # nothing to respond with; skip compiling the game
        return BestResponse(y=np.zeros(config.latency.n), theta=theta, vi_margin=0.0,
                            iterations=0)
    game = CompiledGame.of(config)
    y, margin, it = best_response(game, flows(game.pi, game.shift, theta), start)
    return BestResponse(y=y, theta=theta, vi_margin=margin, iterations=it)


def check_obedience(config: GameConfig, tol: float | None = None) -> ObedienceReport:
    """Evaluate both obedience inequality families at the canonical witness y(0).

    Family one weighs the latency gap between a recommended link and any fixed
    deviation by the recommendation mass; family two weighs it by the witness
    response itself.  A signal passes when every pairwise slack is at most
    ``tol``, which must be finite and nonnegative.
    """
    if tol is None:
        tol = config.solver_tol
    if not 0.0 <= _real(tol, "tol") < inf:  # NaN fails too
        raise ConfigurationError(f"tol must be finite and nonnegative, got {tol}")
    y0 = solve_bwe(config, 0.0)
    coeffs, mu0, pi = config.latency.coeffs, config.prior.mu0, config.signal.pi
    full = poly_rows(coeffs, pi + y0.y)      # full[w, i] = latency on i in state w
    gap = full[:, :, None] - full[:, None, :]  # gap[w, i, j] = cost of i minus cost of j
    obedience = np.einsum("w,wi,wij->ij", mu0, pi, gap)
    expected = mu0.dot(full)
    nash = y0.y[:, None] * (expected[:, None] - expected[None, :])
    worst_obedience = float(np.maximum.reduce(obedience, axis=None))
    worst_nash = float(np.maximum.reduce(nash, axis=None))
    return ObedienceReport(
        obedient=bool(worst_obedience <= tol and worst_nash <= tol),
        y0=y0,
        worst_obedience_slack=worst_obedience,
        worst_nash_slack=worst_nash,
        obedience_slacks=obedience,
        nash_slacks=nash,
        tol=tol,
    )
