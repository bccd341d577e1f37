from __future__ import annotations

import numpy as np
import pytest

from routegame import (DisobedienceMatrix, GameConfig, LatencyModel, Prior, Signal)

# Affine two-link, two-state benchmark network used throughout: constants
# (5, 25) / (20, 15) and slopes (4, 2) / (1, 2) per state.
AFFINE_COEFFS = [[[5.0, 25.0], [20.0, 15.0]], [[4.0, 2.0], [1.0, 2.0]]]


def affine_latency(require_strict_increase: bool = False) -> LatencyModel:
    return LatencyModel(states=("omega1", "omega2"), coeffs=AFFINE_COEFFS,
                        require_strict_increase=require_strict_increase)


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
                           coeffs=np.stack([alpha0, alpha1]),
                           require_strict_increase=True)
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
