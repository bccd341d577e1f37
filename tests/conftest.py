from __future__ import annotations

from bisect import bisect_right
from math import comb

import numpy as np
import pytest
from hypothesis import strategies as st

from routegame import (ConfigurationError, DisobedienceMatrix, GameConfig, LatencyModel, Prior,
                       Signal, SmoothingSpec)
from routegame.model import CompiledGame, flows

# Affine two-link, two-state benchmark network used throughout: constants
# (5, 25) / (20, 15) and slopes (4, 2) / (1, 2) per state.
AFFINE_COEFFS = [[[5.0, 25.0], [20.0, 15.0]], [[4.0, 2.0], [1.0, 2.0]]]


def affine_latency() -> LatencyModel:
    return LatencyModel(states=("omega1", "omega2"), coeffs=AFFINE_COEFFS)


def revealing_signal(nu: float) -> Signal:
    """State-revealing recommendation: all participating mass on the per-state best link."""
    return Signal(pi=[[nu, 0.0], [0.0, nu]], nu=nu)


def benchmark_config(nu: float = 0.5, **overrides) -> GameConfig:
    kwargs = dict(
        latency=affine_latency(),
        prior=Prior([0.6, 0.4]),
        signal=revealing_signal(nu),
        disobedience=DisobedienceMatrix.default(2),
        m_init=25.5,
        theta_hat_init=0.25,
    )
    kwargs.update(overrides)
    return GameConfig(**kwargs)


@pytest.fixture
def paper_config() -> GameConfig:
    return benchmark_config()


def reference_sample_state(rng: np.random.Generator, cum_prior: tuple[float, ...]) -> int:
    """One inverse-CDF draw, with the states' listed order as the cumulative order."""
    idx = bisect_right(cum_prior, rng.random())
    return min(idx, len(cum_prior) - 1)  # the cumulative sum can round a hair below 1


def reference_states(config: GameConfig) -> np.ndarray:
    """A run's states drawn one :func:`reference_sample_state` per round.

    The byte reference for the ``omega`` column that ``Trajectory.for_run``
    draws in one call.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    cum_prior = tuple(np.add.accumulate(config.prior.mu0).tolist())
    return np.array([reference_sample_state(rng, cum_prior) for _ in range(config.rounds)],
                    dtype=np.intp)


def grid_best_response(config: GameConfig, theta: float, step: float = 1e-3) -> np.ndarray:
    """Exhaustive search oracle for affine instances.

    Evaluates the summed per-link latency integrals directly per state (exact
    for affine latencies), without touching the solver's closed-form path.
    """
    lat = config.latency
    assert lat.degree == 1, "oracle written for affine instances"
    mass = 1.0 - config.signal.nu
    mu0 = config.prior.mu0
    P = config.disobedience.matrix
    n = lat.n

    def objective(grid: np.ndarray) -> np.ndarray:
        total = np.zeros(grid.shape[0])
        for w in range(lat.num_states):
            pi_w = config.signal.pi[w]
            xhat = pi_w + theta * (P.T @ pi_w - pi_w)
            a0, a1 = lat.coeffs[0, w], lat.coeffs[1, w]
            for i in range(n):
                y = grid[:, i]
                total += mu0[w] * ((a0[i] + a1[i] * xhat[i]) * y + 0.5 * a1[i] * y ** 2)
        return total

    if n == 2:
        y1 = np.arange(0.0, mass + step / 2, step)
        grid = np.column_stack([y1, mass - y1])
    elif n == 3:
        pts = np.arange(0.0, mass + step / 2, step)
        y1, y2 = np.meshgrid(pts, pts, indexing="ij")
        keep = y1 + y2 <= mass + 1e-12
        y1, y2 = y1[keep], y2[keep]
        grid = np.column_stack([y1, y2, mass - y1 - y2])
    else:
        raise NotImplementedError
    grid = np.clip(grid, 0.0, None)
    return grid[int(np.argmin(objective(grid)))]


def random_affine_config(rng: np.random.Generator, n: int, s: int = 2,
                         nu: float | None = None) -> GameConfig:
    """Strictly increasing affine instance with random signal and rerouting."""
    alpha0 = rng.uniform(0.0, 10.0, size=(s, n))
    alpha1 = rng.uniform(1.0, 4.0, size=(s, n))
    latency = LatencyModel(states=tuple(f"s{w}" for w in range(s)),
                           coeffs=np.stack([alpha0, alpha1]))
    mu0 = rng.dirichlet(np.ones(s))
    mu0 = mu0 / mu0.sum()
    if nu is None:
        nu = float(rng.uniform(0.2, 0.8))
    pi = rng.dirichlet(np.ones(n), size=s) * nu
    pi = pi * (nu / pi.sum(axis=1, keepdims=True))
    if n == 2:
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
    else:
        P = np.zeros((n, n))
        for i in range(n):
            row = rng.dirichlet(np.ones(n - 1))
            P[i, [j for j in range(n) if j != i]] = row / row.sum()
    return GameConfig(
        latency=latency,
        prior=Prior(mu0),
        signal=Signal(pi=pi, nu=nu),
        disobedience=DisobedienceMatrix(P),
    )


def delta_tilde(k: int, beta_min: float) -> float:
    """Accumulated harmonic drift sum_{t=2..k} (1 - beta_min)^(k-t) / t, in closed form.

    The reference for the drift that ``envelope_series`` accumulates by recursion.
    """
    if k < 2:
        return 0.0
    t = np.arange(2, k + 1, dtype=float)
    return float(np.sum((1.0 - beta_min) ** (k - t) / t))


def beta_weight(smoothing: SmoothingSpec, t: int) -> float:
    """The smoothing weight of round t >= 2, read from the spec's public ``beta``.

    The reference for the weight that ``step`` and ``envelope_series`` read
    through the spec's internal accessor.
    """
    beta = smoothing.beta
    return beta if isinstance(beta, float) else beta[t - 2]


def reference_project_simplex(v: np.ndarray, mass: float) -> np.ndarray:
    """Sort-and-threshold projection onto {y >= 0, sum(y) = mass}, written out of place.

    The byte reference for ``equilibrium.project_simplex``, which builds the
    same quantities in place.  When no rank passes the threshold test (a mass
    below half an ulp of the largest entry), the entries tied at the maximum
    share the mass equally, which is the exact projection.
    """
    if mass < 0:
        raise ConfigurationError(f"simplex mass must be nonnegative, got {mass}")
    v = np.asarray(v, dtype=float)
    if mass == 0.0:
        return np.zeros_like(v)
    u = np.sort(v)[::-1]
    cssv = np.cumsum(u) - mass
    idx = np.arange(1, v.size + 1)
    passing = idx[u - cssv / idx > 0]
    if passing.size == 0:
        top = v == u[0]
        return np.where(top, mass / top.sum(), 0.0)
    rho = passing[-1]
    tau = cssv[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


def reference_poly_rows(coeffs: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Horner's rule written out of place; the byte reference for ``model.poly_rows``."""
    out = coeffs[-1]
    for d in range(coeffs.shape[0] - 2, -1, -1):
        out = out * f + coeffs[d]
    return out


@st.composite
def edge_vectors(draw, min_size: int = 2, max_size: int = 1024) -> np.ndarray:
    """Float vectors with ties, signed and exact zeros, 1-ulp neighbours.

    Entry magnitudes span 1e-300 to 1e300, within one vector or across them.
    """
    n = draw(st.integers(min_size, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = draw(st.integers(-300, 300))
    high = draw(st.integers(low, 300))
    v = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(low, high, size=n)
    ties = rng.integers(0, n, size=draw(st.integers(0, n)))
    v[ties] = v[rng.integers(0, n)]
    zeros = rng.integers(0, n, size=draw(st.integers(0, n)))
    v[zeros] = rng.choice([0.0, -0.0], size=zeros.size)
    for _ in range(draw(st.integers(0, 8))):
        i, j = rng.integers(0, n, size=2)
        v[j] = np.nextafter(v[i], rng.choice([-np.inf, np.inf]))
    return v


def kernel_outcome(kernel, *args):
    """The bytes a kernel returns, with overflow to inf and nan allowed."""
    with np.errstate(over="ignore", invalid="ignore"):
        return kernel(*args).tobytes()


def reference_response_coeffs(game: CompiledGame, pi: np.ndarray, shift: np.ndarray,
                              theta: float) -> np.ndarray:
    """The expansion with every power and binomial taken per term, as first written.

    The byte reference for ``equilibrium.response_coeffs``, which takes the
    forecast flows, computes each power once and skips binomials of 1.
    """
    xhat = flows(pi, shift, theta)
    out = game.response_const.copy()
    for d in range(1, game.coeffs.shape[0]):
        alpha_d = game.coeffs[d]
        for p in range(d):
            out[p] += comb(d, p) * (game.mu0 @ (alpha_d * xhat ** (d - p)))
    return out


def reference_trial_step(coeffs: np.ndarray, mass: float) -> float:
    """The fixed step with its rank and mass-power columns built per call.

    The byte reference for ``equilibrium._trial_step``, which reads both
    columns from the compiled game.
    """
    p = np.arange(1, coeffs.shape[0], dtype=float)[:, None]
    lip = float((p * np.abs(coeffs[1:]) * mass ** (p - 1.0)).sum(axis=0).max())
    return 1.0 if lip == 0.0 else min(1.0, 1.0 / lip)


def reference_vi_margin(grad: np.ndarray, y: np.ndarray, mass: float) -> float:
    """The vertex VI margin through ``ndarray.min`` and ``@``; the reference for ``_vi_margin``."""
    return float(mass * grad.min() - grad @ y)
