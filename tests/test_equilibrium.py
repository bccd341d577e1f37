from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import routegame.equilibrium as equilibrium
from routegame import (ConfigurationError, DisobedienceMatrix, GameConfig, LatencyModel, Prior,
                       Signal, SolverError, check_obedience, expected_latency, potential,
                       simulate, solve_bwe, verify_vi)
from routegame.equilibrium import (_potential_from_coeffs, _trial_step, _vi_margin,
                                   best_response, project_simplex, response_coeffs)
from routegame.model import CompiledGame, flows, poly_rows

from conftest import (benchmark_config, edge_vectors, grid_best_response, kernel_outcome,
                      random_affine_config, reference_poly_rows, reference_project_simplex,
                      reference_response_coeffs, reference_trial_step, reference_vi_margin)
from test_golden import cubic_config

ARMIJO_C1 = 1e-4
NOISE_GUARD = 1e-14


def armijo_best_response(game: CompiledGame, pi: np.ndarray, shift: np.ndarray, theta: float,
                         start: np.ndarray | None, halvings: list,
                         project=reference_project_simplex):
    """Projected gradient with a halving Armijo line search that starts at the fixed step.

    The reference that the fixed-step ``best_response`` is checked against: the
    same iteration, with every step tested for sufficient decrease of the
    potential and halved until it passes, and the stall test made eagerly
    after every projection.  Each halved step is appended to ``halvings``.
    Coefficients, step, gradients, margins and projections come from the
    reference kernels of ``conftest``, not from the package's.
    """
    mass, n = game.mass, pi.shape[1]
    if mass == 0.0:
        return np.zeros(n), 0.0, 0
    coeffs = reference_response_coeffs(game, pi, shift, theta)
    y = np.full(n, mass / n) if start is None else project(start, mass)
    phi = t_init = None
    margin = 0.0
    for it in range(equilibrium.MAX_ITER):
        grad = reference_poly_rows(coeffs, y)
        margin = reference_vi_margin(grad, y, mass)
        if margin >= -game.solver_tol:
            return y, margin, it
        if phi is None:
            phi = _potential_from_coeffs(coeffs, y)
            t_init = reference_trial_step(coeffs, mass)
        t = t_init
        # slack for potential differences below representable precision
        guard = NOISE_GUARD * max(1.0, abs(phi))
        while True:
            y_new = project(y - t * grad, mass)
            phi_new = _potential_from_coeffs(coeffs, y_new)
            if phi_new <= phi + ARMIJO_C1 * float(grad @ (y_new - y)) + guard:
                break
            t *= 0.5
            halvings.append(t)
            if t < 1e-18:
                raise SolverError("line search stalled before reaching the VI certificate",
                                  last_iterate=y, vi_margin=margin, iterations=it)
        if np.array_equal(y_new, y):
            raise SolverError("iterate stopped moving before reaching the VI certificate",
                              last_iterate=y, vi_margin=margin, iterations=it)
        y, phi = y_new, phi_new
    raise SolverError(f"no VI certificate after {equilibrium.MAX_ITER} iterations",
                      last_iterate=y, vi_margin=margin, iterations=equilibrium.MAX_ITER)


def _outcome(solver, *args):
    """``(error message or None, y, vi_margin, iterations)`` of a solver call."""
    try:
        y, margin, it = solver(*args)
        return None, y, margin, it
    except SolverError as exc:
        return str(exc), exc.last_iterate, exc.vi_margin, exc.iterations


@st.composite
def solver_instances(draw):
    """Random affine or cubic game, forecast and start; quadratic terms may be negative."""
    n, s = draw(st.integers(2, 256)), draw(st.integers(1, 3))
    degree = draw(st.sampled_from([1, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = [rng.uniform(0.0, 10.0, size=(s, n)), rng.uniform(1.0, 4.0, size=(s, n))]
    if degree == 3:
        low = -2.0 if draw(st.booleans()) else 0.0
        coeffs += [rng.uniform(low, 2.0, size=(s, n)), rng.uniform(0.0, 2.0, size=(s, n))]
    nu = float(rng.uniform(0.2, 0.8))
    pi = rng.dirichlet(np.ones(n), size=s) * nu
    P = np.zeros((n, n))
    for i in range(n):
        P[i, np.arange(n) != i] = rng.dirichlet(np.ones(n - 1))
    try:
        config = GameConfig(
            latency=LatencyModel(states=tuple(f"s{w}" for w in range(s)), coeffs=coeffs),
            prior=Prior(rng.dirichlet(np.ones(s))),
            signal=Signal(pi=pi * (nu / pi.sum(axis=1, keepdims=True)), nu=nu),
            disobedience=DisobedienceMatrix(P))
    except ConfigurationError:
        assume(False)
    start = rng.uniform(-0.5, 1.0, size=n) if draw(st.booleans()) else None
    return config, draw(st.floats(0.0, 1.0)), start


class TestFixedStep:
    @given(solver_instances())
    @settings(max_examples=100, deadline=None)
    def test_matches_armijo_reference_bit_for_bit(self, instance):
        config, theta, start = instance
        game = CompiledGame.of(config)
        args, halvings = (game, game.pi, game.shift, theta, start), []
        xhat = flows(game.pi, game.shift, theta)
        error, y, margin, it = _outcome(best_response, game, xhat, start)
        ref_error, ref_y, ref_margin, ref_it = _outcome(armijo_best_response, *args, halvings)
        assert halvings == []
        assert error == ref_error
        assert np.array_equal(y, ref_y)
        assert (margin, it) == (ref_margin, ref_it)

    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.7])
    def test_iteration_cap_raises_with_diagnostics(self, theta, monkeypatch):
        config = cubic_config()
        monkeypatch.setattr(equilibrium, "MAX_ITER", 2)
        with pytest.raises(SolverError, match="after 2 iterations") as info:
            solve_bwe(config, theta)
        exc, mass = info.value, 1.0 - config.signal.nu
        assert exc.iterations == 2
        assert exc.vi_margin < -config.solver_tol
        assert np.all(exc.last_iterate >= 0.0)
        assert exc.last_iterate.sum() == pytest.approx(mass, abs=1e-12)

    @pytest.mark.parametrize("max_iter, k",
                             [(m, k) for m in (1, 2, 3) for k in sorted({0, 1, m - 1})])
    def test_stall_matches_armijo_reference(self, max_iter, k, monkeypatch):
        """A projection that returns the current iterate at call k raises as the reference does.

        The reference compares arrays after every projection.  k counts the
        loop's projections (the start is the uniform point, which is not
        projected); k >= max_iter never stalls and ends at the iteration cap.
        """
        config = cubic_config()
        game = CompiledGame.of(config)
        n = config.latency.n
        monkeypatch.setattr(equilibrium, "MAX_ITER", max_iter)

        def stalling(project):
            iterates = [np.full(n, game.mass / n)]

            def projection(v, mass):
                out = iterates[-1].copy() if len(iterates) == k + 1 else project(v, mass)
                iterates.append(out)
                return out
            return projection

        ref_error, ref_y, ref_margin, ref_it = _outcome(
            armijo_best_response, game, game.pi, game.shift, 0.3, None, [],
            stalling(reference_project_simplex))
        monkeypatch.setattr(equilibrium, "project_simplex", stalling(equilibrium.project_simplex))
        error, y, margin, it = _outcome(best_response, game, flows(game.pi, game.shift, 0.3))
        if k < max_iter:
            assert ref_error == "iterate stopped moving before reaching the VI certificate"
            assert ref_it == k
        else:
            assert ref_error == f"no VI certificate after {max_iter} iterations"
            assert ref_it == max_iter
        assert (error, y.tobytes(), margin, it) == (ref_error, ref_y.tobytes(), ref_margin, ref_it)

    def test_iteration_cap_in_simulate_names_the_round(self, monkeypatch):
        monkeypatch.setattr(equilibrium, "MAX_ITER", 2)
        with pytest.raises(SolverError, match=r"^round 1: no VI certificate after 2 iterations"):
            simulate(replace(cubic_config(), rounds=3))


def bits(x: float) -> bytes:
    """The IEEE bytes of a float, so that -0.0 and 0.0 differ."""
    return np.float64(x).tobytes()


@st.composite
def expansion_instances(draw):
    """Game of degree 1-4, forecast and simplex point; terms of degree >= 2 may be < 0 or -0.0."""
    n, s, degree = draw(st.integers(2, 64)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = [rng.uniform(0.0, 10.0, size=(s, n)), rng.uniform(0.0, 4.0, size=(s, n))][:degree + 1]
    for _ in range(degree - 1):
        higher = rng.uniform(-2.0, 2.0, size=(s, n))
        higher[rng.random((s, n)) < 0.2] = -0.0
        coeffs.append(higher)
    coeffs = np.stack(coeffs)
    nu = float(rng.uniform(0.2, 0.8))
    pi = rng.dirichlet(np.ones(n), size=s) * nu
    P = np.zeros((n, n))
    for i in range(n):
        P[i, np.arange(n) != i] = rng.dirichlet(np.ones(n - 1))
    config = GameConfig(
        latency=LatencyModel(states=tuple(f"s{w}" for w in range(s)), coeffs=coeffs),
        prior=Prior(rng.dirichlet(np.ones(s))),
        signal=Signal(pi=pi * (nu / pi.sum(axis=1, keepdims=True)), nu=nu),
        disobedience=DisobedienceMatrix(P),
        m_max=float(np.abs(coeffs).max(axis=1).sum()) + 1.0)
    theta = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0, exclude_min=True,
                                                         exclude_max=True))
    return config, theta, rng.dirichlet(np.ones(n)) * (1.0 - nu)


class TestSolveSetup:
    @given(expansion_instances())
    @settings(max_examples=200, deadline=None)
    def test_bytes_match_references(self, instance):
        """Coefficient rows, step, gradient and margin have the bits of the per-call references."""
        config, theta, y = instance
        game = CompiledGame.of(config)
        rows = response_coeffs(game, flows(game.pi, game.shift, theta))
        ref = reference_response_coeffs(game, game.pi, game.shift, theta)
        coeffs = np.array(rows)
        assert (coeffs.dtype, coeffs.shape, coeffs.tobytes()) == (ref.dtype, ref.shape,
                                                                  ref.tobytes())
        # the top row is the compiled one, read-only; every other row is a new array
        assert np.shares_memory(rows[-1], game.response_const) and not rows[-1].flags.writeable
        assert not any(np.shares_memory(row, game.response_const) for row in rows[:-1])
        assert bits(_trial_step(game, rows)) == bits(reference_trial_step(ref, game.mass))
        grad = poly_rows(rows, y)
        ref_grad = reference_poly_rows(ref, y)
        assert grad.tobytes() == ref_grad.tobytes()
        assert bits(_vi_margin(grad, y, game.mass)) == bits(
            reference_vi_margin(ref_grad, y, game.mass))


# Gradient entries: the doubles that can compare equal with different bits
# (zeros and NaNs of either sign), infinities, and values that tie.
NAN = float("nan")
MARGIN_ENTRIES = [0.0, -0.0, NAN, -NAN, np.inf, -np.inf, 1.5, -2.0, 5e-324]


@st.composite
def margin_inputs(draw):
    """A gradient from ``MARGIN_ENTRIES``, a point with signed zeros, and a mass.

    A game has at least 2 links.  On one-entry arrays ``ndarray.dot``
    multiplies the two entries, with no ``ddot`` adding them to 0.0, so its
    zero can take the sign that ``@`` drops.
    """
    n = draw(st.integers(2, 12))
    grad = draw(st.lists(st.sampled_from(MARGIN_ENTRIES), min_size=n, max_size=n))
    y = draw(st.lists(st.sampled_from([0.0, -0.0, 0.25, 1.0]), min_size=n, max_size=n))
    mass = draw(st.sampled_from([0.0, 0.5, 1.0]))
    return np.array(grad), np.array(y), mass


class TestMarginMinimum:
    """``_vi_margin`` reads the minimum at ``argmin`` with the bits of ``ndarray.min``."""

    @pytest.mark.parametrize("grad", [
        [0.0, -0.0], [-0.0, 0.0], [0.0, -0.0, 1.0], [1.0, -0.0, 0.0, -0.0], [3.0, 0.0, 0.0],
        [NAN, 1.0], [1.0, -NAN], [NAN, -NAN], [-NAN, 1.0, NAN], [NAN, -np.inf],
        [np.inf, -np.inf], [-np.inf, 1.0, -np.inf],
        [np.inf, np.inf], [1.5, 1.5, 2.0], [2.0, -2.0, -2.0], [0.0] * 17 + [-0.0],
        [-0.0] * 16 + [0.0] * 3,
    ])
    @pytest.mark.parametrize("y", ["zeros", "uniform", "last vertex"])
    @pytest.mark.parametrize("mass", [0.0, 0.5, 1.0])
    def test_bits_on_edge_gradients(self, grad, y, mass):
        grad = np.array(grad)
        n = grad.size
        y = {"zeros": np.zeros(n), "uniform": np.full(n, mass / n),
             "last vertex": np.eye(n)[-1] * mass}[y]
        with np.errstate(invalid="ignore"):
            assert bits(_vi_margin(grad, y, mass)) == bits(reference_vi_margin(grad, y, mass))

    @given(margin_inputs())
    @settings(max_examples=300, deadline=None)
    def test_bits_on_drawn_gradients(self, inputs):
        grad, y, mass = inputs
        with np.errstate(invalid="ignore"):
            assert bits(_vi_margin(grad, y, mass)) == bits(reference_vi_margin(grad, y, mass))


class TestFixedStart:
    @given(solver_instances())
    @settings(max_examples=50, deadline=None)
    def test_fixed_start_gives_the_projected_start_bits(self, instance):
        config, theta, start = instance
        game = CompiledGame.of(config)
        args, n = (game, flows(game.pi, game.shift, theta)), config.latency.n
        # a vertex is always its own projection; most projections are not, byte for byte
        vertex = np.zeros(n)
        vertex[n // 2] = game.mass
        projected = project_simplex(np.ones(n) if start is None else start, game.mass)
        for fixed in (vertex, projected):
            if project_simplex(fixed, game.mass).tobytes() != fixed.tobytes():
                continue
            error, y, margin, it = _outcome(best_response, *args, fixed, True)
            ref_error, ref_y, ref_margin, ref_it = _outcome(best_response, *args, fixed)
            assert (error, y.tobytes(), margin, it) == (
                ref_error, ref_y.tobytes(), ref_margin, ref_it)
            if error is None and it == 0:
                assert y is fixed


class TestExpectedLatency:
    def test_benchmark_at_zero_response(self, paper_config):
        out = expected_latency(paper_config, 0.0, np.zeros(2))
        assert out == pytest.approx([12.2, 21.4], abs=1e-12)

    def test_benchmark_with_mass_on_first_link(self, paper_config):
        out = expected_latency(paper_config, 0.0, np.array([0.5, 0.0]))
        assert out == pytest.approx([13.6, 21.4], abs=1e-12)

    def test_single_state_reduces_to_latency_at_total_flow(self):
        cfg = GameConfig(
            latency=LatencyModel(states=("only",), coeffs=[[[2.0, 3.0]], [[1.0, 2.0]]]),
            prior=Prior([1.0]),
            signal=Signal(pi=[[0.2, 0.3]], nu=0.5),
            disobedience=DisobedienceMatrix.default(2))
        y = np.array([0.1, 0.4])
        xhat = np.array([0.2 + 0.3 * 0.1, 0.3 - 0.3 * 0.1])  # 0.3 of the swap's shift (0.1, -0.1)
        assert expected_latency(cfg, 0.3, y) == pytest.approx(
            [2.0 + 1.0 * (xhat[0] + 0.1), 3.0 + 2.0 * (xhat[1] + 0.4)], abs=1e-15)

    @pytest.mark.parametrize("theta", [-0.1, 1.5])
    def test_theta_outside_unit_interval_rejected(self, paper_config, theta):
        with pytest.raises(ConfigurationError, match="theta"):
            expected_latency(paper_config, theta, np.zeros(2))
        with pytest.raises(ConfigurationError, match="theta"):
            verify_vi(paper_config, theta, np.array([0.5, 0.0]))


class TestPotential:
    def test_zero_response_zero_potential(self, paper_config):
        assert potential(paper_config, 0.0, np.zeros(2)) == 0.0

    def test_benchmark_value(self, paper_config):
        assert potential(paper_config, 0.0, np.array([0.25, 0.25])) == pytest.approx(8.55, abs=1e-12)

    def test_matches_numerical_quadrature(self):
        # cubic latencies exercise the binomial expansion beyond the affine case
        rng = np.random.default_rng(3)
        coeffs = rng.uniform(0.0, 2.0, size=(4, 2, 2))
        cfg = GameConfig(
            latency=LatencyModel(states=("a", "b"), coeffs=coeffs),
            prior=Prior([0.35, 0.65]),
            signal=Signal(pi=[[0.4, 0.2], [0.1, 0.5]], nu=0.6),
            disobedience=DisobedienceMatrix.default(2))
        theta = 0.4
        y = np.array([0.15, 0.25])
        expected = 0.0
        for i in range(2):
            def integrand(s, i=i):
                probe = np.zeros(2)
                probe[i] = s
                return expected_latency(cfg, theta, probe)[i]
            val, err = quad(integrand, 0.0, y[i], epsabs=1e-12, epsrel=1e-12)
            expected += val
        assert potential(cfg, theta, y) == pytest.approx(expected, rel=1e-9)

    def test_gradient_is_expected_latency(self):
        rng = np.random.default_rng(11)
        cfg = benchmark_config()
        h = 1e-6
        for _ in range(20):
            theta = float(rng.uniform(0, 1))
            y = rng.uniform(0.05, 0.5, size=2)
            grad_fd = np.empty(2)
            for i in range(2):
                up, down = y.copy(), y.copy()
                up[i] += h
                down[i] -= h
                grad_fd[i] = (potential(cfg, theta, up) - potential(cfg, theta, down)) / (2 * h)
            assert grad_fd == pytest.approx(expected_latency(cfg, theta, y), rel=1e-5)


class TestProjection:
    def test_matches_bisection_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            v = rng.normal(0, 2, size=n)
            mass = float(rng.uniform(0.1, 2.0))
            got = project_simplex(v, mass)
            # independent reference: bisection on the threshold
            lo, hi = v.min() - mass, v.max()
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if np.maximum(v - mid, 0.0).sum() > mass:
                    lo = mid
                else:
                    hi = mid
            ref = np.maximum(v - hi, 0.0)
            assert got == pytest.approx(ref, abs=1e-8)
            assert got.sum() == pytest.approx(mass, abs=1e-12)
            assert np.all(got >= 0)

    def test_zero_mass(self):
        assert np.array_equal(project_simplex(np.array([0.3, -0.2]), 0.0), np.zeros(2))

    def test_mass_below_half_an_ulp_goes_to_the_tied_maxima(self):
        v = np.array([3.0, 1.0, 3.0, -2.0])  # half an ulp of 3.0 is 2.2e-16
        assert project_simplex(v, 1e-17).tobytes() == np.array([5e-18, 0.0, 5e-18, 0.0]).tobytes()
        assert project_simplex(v, 5e-324).tobytes() == np.array([0.0, 0.0, 0.0, 0.0]).tobytes()
        assert project_simplex(np.array([-1e300, 7.0]), 1e-20).tobytes() == np.array(
            [0.0, 1e-20]).tobytes()

    @given(edge_vectors(), st.sampled_from(["near zero", "any", "entry scale"]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_bytes_match_out_of_place_reference(self, v, scale, data):
        # A mass below half an ulp of the largest entry leaves no rank past the
        # threshold, as many draws of the first two kinds do: both kernels then
        # give the tied maxima equal shares.
        if scale == "near zero":
            mass = data.draw(st.sampled_from([5e-324, 1e-310, 1e-300, 1e-200, 1e-16, 1e-8]))
        elif scale == "any":
            mass = data.draw(st.floats(1e-300, 1e300))
        else:
            mass = data.draw(st.floats(1e-3, 1e3)) * (float(np.abs(v).max()) or 1.0)
        before = v.tobytes()
        assert kernel_outcome(project_simplex, v, mass) == kernel_outcome(
            reference_project_simplex, v, mass)
        assert v.tobytes() == before


class TestSolveBwe:
    def test_full_participation_gives_empty_response(self):
        cfg = benchmark_config(nu=1.0)
        br = solve_bwe(cfg, 0.7)
        assert np.array_equal(br.y, np.zeros(2))
        assert br.vi_margin == 0.0
        assert br.iterations == 0

    def test_benchmark_corner(self, paper_config):
        br = solve_bwe(paper_config, 0.0)
        assert br.y == pytest.approx([0.5, 0.0], abs=1e-8)
        assert br.vi_margin >= -paper_config.solver_tol

    def test_symmetric_model_splits_uniformly(self):
        cfg = GameConfig(
            latency=LatencyModel(states=("a", "b"),
                                 coeffs=[[[3.0, 3.0], [7.0, 7.0]], [[2.0, 2.0], [1.0, 1.0]]]),
            prior=Prior([0.5, 0.5]),
            signal=Signal(pi=[[0.2, 0.2], [0.2, 0.2]], nu=0.4),
            disobedience=DisobedienceMatrix.default(2))
        br = solve_bwe(cfg, 0.3)
        assert br.y == pytest.approx([0.3, 0.3], abs=1e-7)

    def test_grid_oracle_two_and_three_links(self):
        rng = np.random.default_rng(42)
        for trial in range(12):
            n = 2 if trial % 2 == 0 else 3
            cfg = random_affine_config(rng, n)
            theta = float(rng.uniform(0, 1))
            br = solve_bwe(cfg, theta)
            assert np.all(br.y >= 0)
            assert br.y.sum() == pytest.approx(1.0 - cfg.signal.nu, abs=1e-10)
            assert br.vi_margin >= -cfg.solver_tol
            oracle = grid_best_response(cfg, theta)
            assert np.abs(br.y - oracle).max() <= 2e-3, (trial, br.y, oracle)

    def test_cubic_instances_match_constrained_minimizer(self):
        # beyond the affine grid oracle: scipy SLSQP on the quadrature-checked
        # potential, over random convex cubic instances
        from scipy.optimize import minimize
        rng = np.random.default_rng(77)
        for _ in range(6):
            n = int(rng.integers(2, 4))
            coeffs = rng.uniform(0.0, 3.0, size=(4, 2, n))
            nu = float(rng.uniform(0.2, 0.8))
            pi = rng.dirichlet(np.ones(n), size=2) * nu
            cfg = GameConfig(
                latency=LatencyModel(states=("a", "b"), coeffs=coeffs),
                prior=Prior(rng.dirichlet(np.ones(2))),
                signal=Signal(pi=pi * (nu / pi.sum(axis=1, keepdims=True)), nu=nu),
                disobedience=DisobedienceMatrix.default(n))
            theta = float(rng.uniform(0, 1))
            mass = 1.0 - nu
            br = solve_bwe(cfg, theta)
            ref = minimize(
                lambda y: potential(cfg, theta, np.maximum(y, 0.0)),
                np.full(n, mass / n),
                jac=lambda y: expected_latency(cfg, theta, np.maximum(y, 0.0)),
                bounds=[(0.0, mass)] * n,
                constraints=[{"type": "eq", "fun": lambda y: y.sum() - mass}],
                method="SLSQP", options={"ftol": 1e-14, "maxiter": 500})
            assert ref.success
            assert np.abs(br.y - ref.x).max() <= 5e-6, (br.y, ref.x)

    @pytest.mark.parametrize("nu, start", [(0.5, [1e17, 0.0]), (1.0 - 2.0**-50, [1e3, 0.0])])
    def test_start_far_above_the_mass(self, nu, start):
        # the mass is below half an ulp of the start's largest entry
        config = benchmark_config(nu=nu)
        br = solve_bwe(config, 0.3, start=start)
        assert np.all(br.y >= 0.0)
        assert br.y.sum() == pytest.approx(1.0 - nu, rel=1e-12)
        assert br.vi_margin >= -config.solver_tol
        assert np.abs(br.y - solve_bwe(config, 0.3).y).max() <= 1e-6

    @pytest.mark.parametrize("start", [[np.nan, 0.5], [np.inf, 0.0], np.zeros(3), [[0.1, 0.2]]],
                             ids=["nan", "inf", "three_entries", "row_matrix"])
    def test_malformed_start_rejected(self, paper_config, start):
        with pytest.raises(ConfigurationError, match="start"):
            solve_bwe(paper_config, 0.5, start=start)

    def test_uniqueness_probe(self):
        rng = np.random.default_rng(99)
        for _ in range(5):
            cfg = random_affine_config(rng, 3)
            mass = 1.0 - cfg.signal.nu
            a = solve_bwe(cfg, 0.5)
            corner = np.zeros(3)
            corner[2] = mass
            b = solve_bwe(cfg, 0.5, start=corner)
            assert np.abs(a.y - b.y).max() <= 1e-6

    def test_solution_beats_random_feasible_points(self):
        rng = np.random.default_rng(17)
        cfg = random_affine_config(rng, 3)
        mass = 1.0 - cfg.signal.nu
        br = solve_bwe(cfg, 0.2)
        for _ in range(100):
            y = rng.dirichlet(np.ones(3)) * mass
            assert potential(cfg, 0.2, br.y) <= potential(cfg, 0.2, y) + 1e-10

    def test_corner_locked_region_is_flat(self, paper_config):
        responses = [solve_bwe(paper_config, t).y for t in (0.0, 0.05, 0.1)]
        for a, b in zip(responses, responses[1:]):
            assert np.abs(a - b).max() <= 1e-9

    def test_no_participation_gives_wardrop_regardless_of_theta(self):
        cfg = GameConfig(
            latency=LatencyModel(states=("only",), coeffs=[[[1.0, 1.0]], [[2.0, 2.0]]]),
            prior=Prior([1.0]),
            signal=Signal(pi=[[0.0, 0.0]], nu=0.0),
            disobedience=DisobedienceMatrix.default(2))
        # identical links, unit demand: the equilibrium split is (0.5, 0.5)
        for theta in (0.0, 0.4, 1.0):
            br = solve_bwe(cfg, theta)
            assert br.y == pytest.approx([0.5, 0.5], abs=1e-7)
            assert br.y.sum() == pytest.approx(1.0, abs=1e-12)


class TestVerifyVi:
    def test_solver_output_certified(self, paper_config):
        rng = np.random.default_rng(1)
        for _ in range(10):
            theta = float(rng.uniform(0, 1))
            br = solve_bwe(paper_config, theta)
            assert verify_vi(paper_config, theta, br.y) >= -paper_config.solver_tol

    def test_corner_margin_zero(self, paper_config):
        assert verify_vi(paper_config, 0.0, np.array([0.5, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_perturbed_point_fails(self, paper_config):
        margin = verify_vi(paper_config, 0.0, np.array([0.4, 0.1]))
        assert margin < -1e-3
        # vertex z = (0.5, 0): expected latencies there are (13.32, 21.6)
        e = expected_latency(paper_config, 0.0, np.array([0.4, 0.1]))
        assert margin == pytest.approx(0.1 * (e[0] - e[1]), abs=1e-12)

    def test_rejects_infeasible_point(self, paper_config):
        with pytest.raises(ConfigurationError):
            verify_vi(paper_config, 0.0, np.array([0.4, 0.4]))


LINK_VECTOR_TAKERS = {
    "expected_latency": lambda config, y: expected_latency(config, 0.3, y),
    "potential": lambda config, y: potential(config, 0.3, y),
    "verify_vi": lambda config, y: verify_vi(config, 0.3, y),
    "solve_bwe_start": lambda config, y: solve_bwe(config, 0.3, start=y),
}


@pytest.mark.parametrize("y", [[0.5, [0.0]], ["a", 0.5], [[0.25, 0.25]], [0.5, 0.0, 0.0],
                               [np.nan, 0.5], [np.inf, 0.0]],
                         ids=["ragged", "non_numeric", "two_d", "wrong_length", "nan", "inf"])
@pytest.mark.parametrize("taker", sorted(LINK_VECTOR_TAKERS))
def test_malformed_link_vector_rejected(paper_config, taker, y):
    # every public function that takes a link vector checks it through model._link_vector
    with pytest.raises(ConfigurationError, match="^(y|start) must be a "):
        LINK_VECTOR_TAKERS[taker](paper_config, y)


@pytest.mark.parametrize("taker", ["expected_latency", "potential"])
def test_negative_link_vector_rejected(paper_config, taker):
    with pytest.raises(ConfigurationError, match="^y must be nonnegative$"):
        LINK_VECTOR_TAKERS[taker](paper_config, [-0.1, 0.6])


def brute_force_obedience(config: GameConfig, y: np.ndarray, tol: float) -> bool:
    """Straight-line recomputation of both inequality families."""
    lat, mu0, pi = config.latency, config.prior.mu0, config.signal.pi
    n = lat.n
    for i in range(n):
        for j in range(n):
            fam1 = 0.0
            fam2 = 0.0
            for w in range(lat.num_states):
                cost_i = 0.0
                cost_j = 0.0
                for d in range(lat.degree + 1):
                    cost_i += lat.coeffs[d, w, i] * (pi[w, i] + y[i]) ** d
                    cost_j += lat.coeffs[d, w, j] * (pi[w, j] + y[j]) ** d
                fam1 += mu0[w] * pi[w, i] * (cost_i - cost_j)
                fam2 += mu0[w] * y[i] * (cost_i - cost_j)
            if fam1 > tol or fam2 > tol:
                return False
    return True


class TestObedience:
    def test_symmetric_uniform_signal_all_slacks_zero(self):
        cfg = GameConfig(
            latency=LatencyModel(states=("a", "b"),
                                 coeffs=[[[4.0, 4.0], [6.0, 6.0]], [[2.0, 2.0], [3.0, 3.0]]]),
            prior=Prior([0.5, 0.5]),
            signal=Signal(pi=[[0.25, 0.25], [0.25, 0.25]], nu=0.5),
            disobedience=DisobedienceMatrix.default(2))
        report = check_obedience(cfg)
        assert report.obedient
        assert np.abs(report.obedience_slacks).max() == pytest.approx(0.0, abs=1e-9)
        assert np.abs(report.nash_slacks).max() == pytest.approx(0.0, abs=1e-9)

    def test_benchmark_signal_matches_brute_force(self, paper_config):
        report = check_obedience(paper_config)
        assert report.obedient == brute_force_obedience(paper_config, report.y0.y, report.tol)
        assert report.obedient
        # hand values: family 1 is (i=1,j=2): 2.7 - 7.5, (i=2,j=1): 3.2 - 4.1
        assert report.obedience_slacks[0, 1] == pytest.approx(-4.8, abs=1e-12)
        assert report.obedience_slacks[1, 0] == pytest.approx(-0.9, abs=1e-12)

    def test_full_participation_signal_obedient(self):
        report = check_obedience(benchmark_config(nu=1.0))
        assert report.obedient
        assert np.array_equal(report.y0.y, np.zeros(2))
        assert np.abs(report.nash_slacks).max() == 0.0

    def test_worse_link_signal_rejected(self):
        # latencies 1 + f / 1024 and 2 + f / 1024, strictly ordered on the unit simplex;
        # recommending the slow link is disobeyed in expectation
        cfg = GameConfig(
            latency=LatencyModel(states=("only",), coeffs=[[[1.0, 2.0]], [[2.0**-10, 2.0**-10]]]),
            prior=Prior([1.0]),
            signal=Signal(pi=[[0.0, 0.5]], nu=0.5),
            disobedience=DisobedienceMatrix.default(2))
        report = check_obedience(cfg)
        assert not report.obedient
        assert report.obedience_slacks[1, 0] == pytest.approx(0.5, abs=1e-12)
        assert report.worst_obedience_slack == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_tolerance_must_be_finite_and_nonnegative(self, paper_config, tol):
        with pytest.raises(ConfigurationError, match="tol must be finite and nonnegative"):
            check_obedience(paper_config, tol=tol)

    @pytest.mark.parametrize("config", [cubic_config(), cubic_config(seed=3, n=5, s=4),
                                        benchmark_config()], ids=["cubic_n8", "cubic_s4", "paper"])
    def test_slacks_match_per_state_reference(self, config):
        """Latencies of all states in one evaluation have the bits of one row per state."""
        report = check_obedience(config)
        coeffs, mu0, pi, y = (config.latency.coeffs, config.prior.mu0, config.signal.pi,
                              report.y0.y)
        full = np.stack([reference_poly_rows(coeffs[:, w, :], pi[w] + y)
                         for w in range(pi.shape[0])])
        gap = full[:, :, None] - full[:, None, :]
        expected = mu0 @ full
        nash = y[:, None] * (expected[:, None] - expected[None, :])
        assert report.obedience_slacks.tobytes() == np.einsum("w,wi,wij->ij", mu0, pi,
                                                              gap).tobytes()
        assert report.nash_slacks.tobytes() == nash.tobytes()

    def test_random_configs_match_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            cfg = random_affine_config(rng, int(rng.integers(2, 4)))
            report = check_obedience(cfg)
            assert report.obedient == brute_force_obedience(cfg, report.y0.y, report.tol)

