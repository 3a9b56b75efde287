"""Tests for the tension solve, including a dense-matrix oracle.

The oracle assembles every operator (dealiasing, differentiation,
Fourier multipliers, tangential projection, lift and its adjoint) as an
explicit dense matrix built from the DFT matrix, composes them into the
tension system, and solves it directly — a code path sharing nothing
with the matrix-free FFT implementation beyond the conventions.
"""

import re

import numpy as np
import pytest

from filament.evolution import initial_curve
from filament.multipliers import build_table, force_map_for, rft_constants
from filament.spectral import (
    CurveBatch,
    Grid,
    PeriodicCurve,
    SobolevIndex,
    dealias,
    from_coeffs,
    sobolev_norm,
    to_coeffs,
)
from filament.tension import (
    SolverError,
    TensionField,
    TensionProblem,
    apply_B,
    assemble_rhs,
    lift,
    lift_adjoint,
    solve_tension,
    solve_tensions,
)

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------- oracle


def spectral_matrix(n, diag):
    """Dense real matrix of the Fourier multiplier with symbol diag(k)."""
    j = np.arange(n)
    forward = np.exp(-TWO_PI * 1j * np.outer(j, j) / n) / n  # samples -> coeffs
    inverse = np.exp(TWO_PI * 1j * np.outer(j, j) / n)  # coeffs -> samples
    return np.real(inverse @ np.diag(diag) @ forward)


def dense_operators(curve, model, epsilon):
    """Dense versions of the force-to-velocity map, lift, and adjoint."""
    n = curve.n
    k = np.fft.fftfreq(n, 1.0 / n)
    kabs = np.abs(k).astype(int)
    kcut = n // 3
    nyq = kabs == n // 2

    dealias_m = spectral_matrix(n, (kabs <= kcut).astype(float))
    deriv_diag = TWO_PI * 1j * k
    deriv_diag[nyq] = 0.0
    deriv_m = spectral_matrix(n, deriv_diag)

    eye3 = np.eye(3)
    dealias_v = np.kron(dealias_m, eye3)
    deriv_v = np.kron(deriv_m, eye3)

    # pointwise dot with the tangent (n x 3n) and its transpose
    dot_t = np.zeros((n, 3 * n))
    for i in range(n):
        dot_t[i, 3 * i:3 * i + 3] = curve.tangent[:, i]
    q = dealias_m @ dot_t @ dealias_v
    proj = q.T @ q

    if model == "leps":
        table = build_table(epsilon, n // 2)

        def mult(values):
            d = values[kabs].astype(float)
            d[nyq] = 0.0
            return np.kron(spectral_matrix(n, d), eye3)

        lmap = proj @ mult(table.mt) @ proj
        lmap += (np.eye(3 * n) - proj) @ mult(table.mn) @ (np.eye(3 * n) - proj)
    else:
        constants = rft_constants(epsilon)
        lmap = constants.normal * (np.eye(3 * n) + proj)

    lift_m = deriv_v @ dealias_v @ dot_t.T  # tau -> (tau X_s)_s
    adjoint_m = -dealias_m @ dot_t @ dealias_v @ deriv_v
    return lmap, lift_m, adjoint_m


def xssss(curve):
    """X_ssss samples, formed from the coefficients as the program forms
    it, grid-major (n, 3) as the oracle's vectors are."""
    return from_coeffs(curve.grid.ik_pow[4] * curve.coeffs, curve.n, axis=-1).T


def dense_solve(curve, model, epsilon):
    lmap, lift_m, adjoint_m = dense_operators(curve, model, epsilon)
    b = adjoint_m @ lmap @ lift_m
    rhs = adjoint_m @ lmap @ xssss(curve).reshape(-1)
    # restrict to an orthonormal basis of the retained band, where the
    # lift/adjoint sandwich is symmetric positive definite
    n = curve.n
    kabs = np.abs(np.fft.fftfreq(n, 1.0 / n)).astype(int)
    dealias_m = spectral_matrix(n, (kabs <= n // 3).astype(float))
    w, v = np.linalg.eigh(dealias_m)
    basis = v[:, w > 0.5]
    tau_band = np.linalg.solve(basis.T @ b @ basis, basis.T @ rhs)
    return basis @ tau_band


def band_noise(n, seed):
    rng = np.random.default_rng(seed)
    return dealias(rng.standard_normal(n))


def make_problem(curve, model, epsilon, **kwargs):
    if model == "leps":
        return TensionProblem(curve, "leps",
                              table=build_table(epsilon, curve.n // 2), **kwargs)
    return TensionProblem(curve, "rft", constants=rft_constants(epsilon), **kwargs)


def force_density(curve, tension):
    """rfft coefficients of Z_s = (X_sss - tau X_s)_s = X_ssss - (tau X_s)_s."""
    return curve.grid.ik_pow[4] * curve.coeffs - lift(curve, tension.values)


def velocity(problem, tension):
    """dX/dt = -L[Z_s], as samples (3, n)."""
    zs = force_density(problem.curve, tension)
    return -from_coeffs(problem.force_map.apply(problem.curve, zs)[0], problem.curve.n, axis=-1)


def reference_preconditioner(problem):
    """The earlier diagonal (|log eps| + (2 pi k)^2 m_n(k))^{-1}, with no
    curvature term and m_n on the gradient term."""
    grid = problem.curve.grid
    log_eps = np.array([m.log_eps for m in problem.force_map.maps])[:, None]
    diag = 1.0 / (log_eps + (TWO_PI * grid.k) ** 2 * problem.force_map.mn)
    diag[..., grid.above_band] = 0.0
    return diag


# ----------------------------------------------------------------- tests


class TestOperatorStructure:
    @pytest.mark.parametrize("model", ["leps", "rft"])
    def test_B_symmetric(self, model):
        curve = PeriodicCurve.perturbed_circle(64, 3, 0.05)
        problem = make_problem(curve, model, 1e-3)
        a, b = band_noise(64, 1), band_noise(64, 2)
        lhs = float(np.dot(a, apply_B(problem, b)[0][0]))
        rhs = float(np.dot(b, apply_B(problem, a)[0][0]))
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-13)

    @pytest.mark.parametrize("model", ["leps", "rft"])
    def test_B_positive_definite_on_band(self, model):
        curve = PeriodicCurve.perturbed_circle(64, 2, 0.03)
        problem = make_problem(curve, model, 1e-3)
        for seed in range(10):
            tau = band_noise(64, 10 + seed)
            assert float(np.dot(tau, apply_B(problem, tau)[0][0])) > 0.0

    def test_lift_adjoint_is_exact_adjoint(self):
        curve = PeriodicCurve.perturbed_circle(64, 3, 0.05)
        rng = np.random.default_rng(5)
        tau = band_noise(64, 3)
        vec = rng.standard_normal((64, 3)).T
        lhs = float(np.mean(np.sum(from_coeffs(lift(curve, tau), 64, axis=-1) * vec, axis=0)))
        rhs = float(np.mean(tau * lift_adjoint(curve, to_coeffs(vec, axis=-1))))
        # lift pairs with vec; the adjoint pairs tau with -d/ds terms
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-13)


class TestDenseOracle:
    @pytest.mark.parametrize("model", ["leps", "rft"])
    def test_matches_dense_solve_n32(self, model):
        curve = PeriodicCurve.perturbed_circle(32, 2, 0.04)
        problem = make_problem(curve, model, 1e-2)
        tau = solve_tension(problem)
        oracle = dense_solve(curve, model, 1e-2)
        err = sobolev_norm(tau.values - oracle, SobolevIndex(0.5))
        assert err < 1e-8

    def test_dense_rhs_matches_matrix_free(self):
        curve = PeriodicCurve.perturbed_circle(32, 3, 0.05)
        problem = make_problem(curve, "leps", 1e-2)
        _, lift_m, adjoint_m = dense_operators(curve, "leps", 1e-2)
        lmap, _, _ = dense_operators(curve, "leps", 1e-2)
        dense_rhs = adjoint_m @ lmap @ xssss(curve).reshape(-1)
        assert np.max(np.abs(dense_rhs - assemble_rhs(problem)[0])) < 1e-8

    def test_dense_B_matches_matrix_free_apply(self):
        curve = PeriodicCurve.perturbed_circle(32, 2, 0.04)
        problem = make_problem(curve, "rft", 1e-2)
        lmap, lift_m, adjoint_m = dense_operators(curve, "rft", 1e-2)
        b = adjoint_m @ lmap @ lift_m
        tau = band_noise(32, 7)
        assert np.max(np.abs(b @ tau - apply_B(problem, tau)[0])) < 1e-10


class TestCircle:
    @pytest.mark.parametrize("model", ["leps", "rft"])
    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    def test_circle_tension_is_minus_4pi2(self, model, eps):
        curve = PeriodicCurve.circle(128)
        tau = solve_tension(make_problem(curve, model, eps))
        target = -4.0 * np.pi**2
        assert np.max(np.abs(tau.values - target)) < 1e-5 * abs(target)

    def test_solution_independent_of_warm_start(self):
        curve = PeriodicCurve.perturbed_circle(64, 3, 0.05)
        problem = make_problem(curve, "leps", 1e-3)
        a = solve_tension(problem)
        b = solve_tension(problem, initial=band_noise(64, 9) * 10.0)
        assert np.max(np.abs(a.values - b.values)) < 1e-7


class TestSolveVelocity:
    """The velocity solve_tensions returns, taken from the force-map
    outputs of its own right-hand side and B applications, against the
    direct -L[X_ssss - (tau X_s)_s] of each member's tension."""

    @staticmethod
    def members(n):
        """(curve, force map) pairs, leps members first."""
        trefoil, circle = initial_curve("trefoil", n), PeriodicCurve.circle(n)
        mode3 = initial_curve("perturbed-circle(3,0.05)", n)
        mode2 = initial_curve("perturbed-circle(2,0.04)", n)
        return [(trefoil, build_table(1e-2, n // 2)), (mode3, build_table(1e-6, n // 2)),
                (circle, build_table(1e-6, n // 2)), (mode2, rft_constants(1e-2)),
                (trefoil, rft_constants(1e-6)), (circle, rft_constants(1e-2))]

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_matches_direct_velocity(self, n, warm):
        pairs = self.members(n)
        problem = TensionProblem(CurveBatch.of([c for c, _ in pairs]), [m for _, m in pairs])
        initial = None
        if warm:  # warm starts off the solution, one member cold
            tensions, _ = solve_tensions(problem)
            noise = np.random.default_rng(n).standard_normal((len(pairs), n))
            initial = [t.values * (1.0 + 1e-3 * e) for t, e in zip(tensions, noise)]
            initial[1] = None
        tensions, got = solve_tensions(problem, initial)
        # members leave the batch at different iterations, so a member's
        # row moves as the batch compacts
        assert len({t.iterations for t in tensions}) > 2
        _, l_xssss = assemble_rhs(problem)
        for j, ((curve, force_map), tau) in enumerate(zip(pairs, tensions)):
            alone = TensionProblem(curve, force_map)
            want = -alone.force_map.apply(alone.curve, force_density(curve, tau))[0]
            assert np.max(np.abs(got[j] - want)) <= 1e-12 * np.max(np.abs(l_xssss[j])), j


class TestConstraintEnforcement:
    @pytest.mark.parametrize("model", ["leps", "rft"])
    def test_velocity_preserves_inextensibility(self, model):
        # with the solved tension, d/dt |X_s|^2 = 2 X_s . V_s vanishes
        # to solver tolerance.
        curve = PeriodicCurve.perturbed_circle(128, 3, 0.05)
        problem = make_problem(curve, model, 1e-3)
        tau = solve_tension(problem)
        v = velocity(problem, tau)
        vs = from_coeffs(curve.grid.band_ik * to_coeffs(v, axis=-1), curve.n, axis=-1)
        constraint = np.einsum("ij,ij->j", curve.tangent, vs)
        vnorm = sobolev_norm(v.T, SobolevIndex(1.0))
        assert np.max(np.abs(constraint)) < 1e-6 * max(vnorm, 1.0)

    def test_random_curves_bounded_tension(self):
        for seed, (mode, amp) in enumerate([(2, 0.02), (3, 0.05), (4, 0.03),
                                            (5, 0.02), (2, 0.08)]):
            curve = PeriodicCurve.perturbed_circle(128, mode, amp)
            tau = solve_tension(make_problem(curve, "leps", 1e-3))
            assert tau.iterations < 50
            assert np.isfinite(sobolev_norm(tau.values, SobolevIndex(1.0)))


class TestSolverInterface:
    def test_solver_error_gives_final_residual(self):
        curve = PeriodicCurve.perturbed_circle(64, 3, 0.05)
        problem = make_problem(curve, "leps", 1e-3, cg_tol=1e-30)
        with pytest.raises(SolverError) as err:
            solve_tension(problem)
        residual, iterations = re.fullmatch(
            r"tension CG stalled at relative residual (\S+) after (\d+) iterations",
            str(err.value)).groups()
        assert float(residual) > 0.0
        assert int(iterations) >= 1

    def test_cap_leaves_room_past_the_band_dimension(self):
        # in floating point CG may need more iterations than the band's
        # 2 floor(n/3) + 1 dimensions: on a curve far from arclength
        # (speed 0.28 to 3.0) the leps solve converges after more than n,
        # where a cap of n iterations would make it a stall
        n = 64
        modes = 0.1 * np.random.default_rng(0).uniform(-1.0, 1.0, (4, 2, 3))
        phase = TWO_PI * np.arange(n) / n
        samples = PeriodicCurve.circle(n).samples.copy()
        for k, (a, b) in enumerate(modes, start=1):
            samples += (np.cos(k * phase)[:, None] * a + np.sin(k * phase)[:, None] * b) / k
        problem = make_problem(PeriodicCurve(samples), "leps", 1e-3)
        tau = solve_tension(problem)
        assert tau.iterations > n
        assert tau.residual <= problem.cg_tol[0]

    def test_step_length_breakdown_is_a_stall(self):
        # far past convergence p.Bp underflows to 0: a stall, not a
        # division by zero
        curve = PeriodicCurve.perturbed_circle(64, 3, 0.05)
        problem = make_problem(curve, "rft", 1e-3, cg_tol=1e-30)
        with pytest.raises(SolverError, match="stalled"):
            solve_tension(problem)

    def test_nan_residual_is_a_stall(self):
        # a NaN residual is not below the tolerance: no NaN tension
        # comes back as converged
        problem = TensionProblem(PeriodicCurve.trefoil(64), build_table(1e-2, 32))
        with pytest.raises(SolverError, match="stalled at relative residual nan "):
            solve_tension(problem, np.full(64, np.nan))

    def test_right_hand_side_overflow_is_refused(self, monkeypatch):
        # a curve at scale 1e25 has finite fields, but its leps right-hand
        # side's norm overflows: SolverError before the first iteration,
        # raised for the whole batch, and no numpy warning on the way
        from filament import tension

        huge = PeriodicCurve(1e25 * PeriodicCurve.trefoil(32).samples)
        pairs = [(PeriodicCurve.trefoil(32), build_table(1e-3, 16)), (huge, build_table(1e-3, 16))]
        problem = TensionProblem(CurveBatch.of([c for c, _ in pairs]), [m for _, m in pairs])
        monkeypatch.setattr(tension, "_preconditioner", lambda problem: pytest.fail("iterated"))
        for p in (problem, TensionProblem(*pairs[1])):
            with pytest.raises(SolverError, match="^tension right-hand side is not finite"):
                solve_tensions(p)

    def test_inner_product_overflow_is_a_stall(self):
        # at scale 1e22 the right-hand side is finite but p.Bp overflows:
        # a breakdown at the first iteration, named as an overflow, with no
        # numpy warning, not 320 iterations that cannot move the iterate
        huge = PeriodicCurve(1e22 * PeriodicCurve.trefoil(32).samples)
        with pytest.raises(SolverError, match=r"^tension CG overflowed \(p\.Bp = inf\) at relative "
                                              r"residual 1\.000e\+00 after 0 iterations$"):
            solve_tension(TensionProblem(huge, build_table(1e-3, 16)))

    def test_problem_validation(self):
        curve = PeriodicCurve.circle(32)
        with pytest.raises(ValueError):
            TensionProblem(curve, "leps")
        with pytest.raises(ValueError):
            TensionProblem(curve, "rft")
        with pytest.raises(ValueError):
            TensionProblem(curve, "stokes", table=build_table(1e-3, 16))

    def test_problem_keeps_what_the_solve_reads(self):
        # the model name and the map given by keyword become the batch of
        # one's force-map stack; the arguments themselves are not kept
        curve = PeriodicCurve.circle(32)
        for problem in (TensionProblem(curve, "leps", table=build_table(1e-3, 16)),
                        TensionProblem(curve, "rft", constants=rft_constants(1e-3), cg_tol=1e-8),
                        TensionProblem(curve, rft_constants(1e-3))):
            assert sorted(vars(problem)) == ["cg_tol", "curve", "force_map"]
            assert len(problem.curve) == 1 and len(problem.force_map.maps) == 1
            assert problem.cg_tol.shape == (1,)

    def test_field_immutable(self):
        field = TensionField(np.arange(4.0))
        with pytest.raises(ValueError):
            field.values[0] = 7.0


class TestPreconditioner:
    COLD_CASES = [(name, n, eps, model)
                  for name in ("trefoil", "perturbed-circle(2,0.04)") for n in (256, 1024)
                  for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6) for model in ("leps", "rft")]

    def test_curvature_symbol_pays(self, monkeypatch):
        # cold solves under the curvature-aware symbol against the
        # reference diagonal: none slower, 20% fewer in all, same tau
        problems = [TensionProblem(initial_curve(name, n), force_map_for(model, eps, n))
                    for name, n, eps, model in self.COLD_CASES]
        new = [solve_tension(p) for p in problems]
        monkeypatch.setattr("filament.tension._preconditioner", reference_preconditioner)
        old = [solve_tension(p) for p in problems]
        for case, p, a, b in zip(self.COLD_CASES, problems, new, old):
            assert a.iterations <= b.iterations, case
            tol = p.cg_tol[0] * np.max(np.abs(b.values))
            assert np.max(np.abs(a.values - b.values)) <= tol, case
        total_new, total_old = (sum(t.iterations for t in ts) for ts in (new, old))
        assert total_new <= 0.8 * total_old, (total_new, total_old)

    def test_built_once_per_solve(self, monkeypatch):
        # the members converge at different iterations and leave the
        # batch one by one, their diagonal rows with them: the diagonal is
        # built once, and each member still gets the bits of its solo solve
        from filament import tension

        n = 64
        curves = [initial_curve(name, n)
                  for name in ("trefoil", "perturbed-circle(2,0.04)", "circle")]
        maps = [build_table(1e-3, n // 2), build_table(1e-3, n // 2), rft_constants(1e-3)]
        solo = [solve_tension(TensionProblem(c, m)) for c, m in zip(curves, maps)]
        built = []
        real = tension._preconditioner
        monkeypatch.setattr(tension, "_preconditioner",
                            lambda problem: built.append(len(problem.curve)) or real(problem))
        batch, _ = tension.solve_tensions(TensionProblem(CurveBatch.of(curves), maps))
        assert len({t.iterations for t in batch}) == 3
        assert built == [3]
        for got, want in zip(batch, solo):
            assert got.iterations == want.iterations
            assert got.values.tobytes() == want.values.tobytes()
