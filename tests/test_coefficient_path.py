"""The coefficient-space force maps, lift and forcing against the
physical-space compositions they replaced.

The reference functions below evaluate every operator in samples, with
one rfft/irfft round trip per dealiasing, differentiation and multiplier
(the tangent recomputed the same way), on grid-major (n, 3) samples.
They are kept here only as the reference for the coefficient-resident
implementation, whose component-first fields are compared transposed.
"""

import functools

import numpy as np
import pytest

from filament import spectral, tension
from filament.evolution import _forcing
from filament.multipliers import ForceMapStack, build_table, rft_constants
from filament.spectral import (
    Grid,
    PeriodicCurve,
    dealias,
    from_coeffs,
    project_tangent,
    to_coeffs,
)
from filament.tension import TensionProblem, apply_B, assemble_rhs
from test_batch import apply_L

EPS = 1e-3
RTOL = 1e-12


# ------------------------------------------------------------- reference


def _broadcast(spectral_factor, coeffs):
    if coeffs.ndim == 2:
        return spectral_factor[:, None] * coeffs
    return spectral_factor * coeffs


def derivative(values, order=1):
    """order-th spectral derivative in s; Nyquist mode zeroed."""
    n = values.shape[0]
    factor = Grid.of_size(n).ik ** int(order)
    return from_coeffs(_broadcast(factor, to_coeffs(values)), n)


def ref_tangent(curve):
    return dealias(derivative(curve.samples, 1))


def ref_project_tangent(curve, field):
    t = ref_tangent(curve)
    coeff = dealias(np.einsum("ij,ij->i", t, dealias(field)))
    return dealias(t * coeff[:, None])


def ref_multiplier(values, m):
    """T_m on samples, Nyquist mode zeroed: one rfft/irfft round trip."""
    n = values.shape[0]
    factor = np.array(m[: n // 2 + 1])
    factor[-1] = 0.0
    return from_coeffs(factor[:, None] * to_coeffs(values), n)


def ref_apply_L_eps(curve, table, field):
    pt = ref_project_tangent(curve, field)
    tangential = ref_multiplier(pt, table.mt)
    normal = ref_multiplier(field - pt, table.mn)
    return ref_project_tangent(curve, tangential) + (
        normal - ref_project_tangent(curve, normal)
    )


def ref_apply_L_rft(curve, constants, field):
    pt = ref_project_tangent(curve, field)
    return constants.normal * field + constants.normal * pt


def ref_lift(curve, tau):
    return derivative(dealias(ref_tangent(curve) * tau[:, None]))


def ref_lift_adjoint(curve, vec):
    inner = np.einsum("ij,ij->i", ref_tangent(curve), dealias(derivative(vec)))
    return -dealias(inner)


def ref_operator(curve, model):
    if model == "leps":
        table = build_table(EPS, curve.n // 2)
        return table, lambda f: ref_apply_L_eps(curve, table, f)
    constants = rft_constants(EPS)
    return constants, lambda f: ref_apply_L_rft(curve, constants, f)


def ref_apply_B(curve, model, tau):
    _, op = ref_operator(curve, model)
    return ref_lift_adjoint(curve, op(ref_lift(curve, tau)))


def ref_assemble_rhs(curve, model):
    _, op = ref_operator(curve, model)
    return ref_lift_adjoint(curve, op(derivative(curve.samples, 4)))


def ref_explicit_forcing(curve, model, tau, lam):
    _, op = ref_operator(curve, model)
    zs = derivative(curve.samples, 4) - ref_lift(curve, tau)
    implicit = from_coeffs(lam[:, None] * to_coeffs(curve.samples), curve.n)
    return -op(zs) + implicit


# --------------------------------------------------------------- helpers


@functools.lru_cache(maxsize=None)
def corpus_curve(name, n):
    if name == "trefoil":
        return PeriodicCurve.trefoil(n)
    return PeriodicCurve.perturbed_circle(n, 3, 0.05)


def fresh(name, n):
    """A new instance of a corpus curve, with nothing cached."""
    return PeriodicCurve(corpus_curve(name, n).samples)


def make_problem(curve, model):
    operator, _ = ref_operator(curve, model)
    if model == "leps":
        return TensionProblem(curve, "leps", table=operator)
    return TensionProblem(curve, "rft", constants=operator)


def assert_close(got, want):
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= RTOL * scale


CASES = [(name, n, model) for name in ("trefoil", "perturbed-circle")
         for n in (64, 256, 1024) for model in ("leps", "rft")]


# ----------------------------------------------------------------- tests


class TestAgainstReference:
    @pytest.mark.parametrize("name,n", [(c, n) for c in ("trefoil", "perturbed-circle")
                                        for n in (64, 256, 1024)])
    def test_derivative_stack_and_projection(self, name, n):
        curve = fresh(name, n)
        xsss, xssss = (from_coeffs(curve.grid.ik_pow[m] * curve.coeffs, n, axis=-1)
                       for m in (3, 4))
        for order, values in enumerate((curve.xs, curve.xss, xsss, xssss), 1):
            assert_close(values.T, derivative(curve.samples, order))
        assert_close(curve.tangent.T, ref_tangent(curve))
        field = np.random.default_rng(n).standard_normal((n, 3))
        got = from_coeffs(project_tangent(curve, to_coeffs(field.T, axis=-1)), n, axis=-1)
        assert_close(got.T, ref_project_tangent(curve, field))

    @pytest.mark.parametrize("name,n,model", CASES)
    def test_force_map(self, name, n, model):
        curve = fresh(name, n)
        operator, ref = ref_operator(curve, model)
        apply = functools.partial(apply_L, curve, operator)  # the stack of one
        # unfiltered noise reaches the modes above the cutoff and Nyquist
        field = np.random.default_rng(n + 1).standard_normal((n, 3))
        got = from_coeffs(apply(to_coeffs(field.T, axis=-1)), n, axis=-1)
        assert_close(got.T, ref(field))
        assert_close(from_coeffs(apply(curve.coeffs), n, axis=-1).T, ref(curve.samples))

    @pytest.mark.parametrize("name,n,model", CASES)
    def test_tension_operator_and_rhs(self, name, n, model):
        curve = fresh(name, n)
        problem = make_problem(curve, model)
        tau = dealias(np.random.default_rng(n + 2).standard_normal(n))
        assert_close(apply_B(problem, tau)[0], ref_apply_B(curve, model, tau))
        assert_close(assemble_rhs(problem)[0], ref_assemble_rhs(curve, model))

    @pytest.mark.parametrize("name,n,model", CASES)
    def test_explicit_forcing(self, name, n, model):
        curve = fresh(name, n)
        operator, _ = ref_operator(curve, model)
        (tau,), _, lam, ghat = _forcing([curve], [operator], [1e-10], None)
        got = from_coeffs(ghat[0], n, axis=-1)
        assert_close(got.T, ref_explicit_forcing(curve, model, tau.values, lam[0]))


class TestFftBudget:
    """FFT calls per application of the tension form, counted at
    to_coeffs/from_coeffs in every module that imported them."""

    @pytest.fixture
    def fft_calls(self, monkeypatch):
        calls = [0]
        for name in ("to_coeffs", "from_coeffs"):
            original = getattr(spectral, name)

            def counted(*args, _original=original, **kwargs):
                calls[0] += 1
                return _original(*args, **kwargs)

            for module in (spectral, tension):
                monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("model,budget", [("leps", 12), ("rft", 8)])
    def test_apply_B(self, fft_calls, model, budget):
        curve = fresh("trefoil", 256)
        curve.tangent  # the curve's cached fields are not part of B
        problem = make_problem(curve, model)
        tau = dealias(np.random.default_rng(3).standard_normal(256))
        fft_calls[0] = 0
        apply_B(problem, tau)
        assert fft_calls[0] <= budget

    def test_derivative_stack(self, fft_calls):
        curve = fresh("perturbed-circle", 64)
        curve.coeffs, curve.xs, curve.xss, curve.tangent
        assert fft_calls[0] == 2  # rfft of the samples, one batched irfft


class TestForceMapBudget:
    """A step's forcing applies the force map once for the tension
    solve's right-hand side and once per application of B: its velocity
    is the solve's, with no application of its own."""

    @pytest.mark.parametrize("warm", [False, True])
    def test_forcing(self, monkeypatch, warm):
        n = 64
        curves = [fresh("trefoil", n), fresh("perturbed-circle", n), fresh("trefoil", n)]
        maps = [build_table(EPS, n // 2), rft_constants(EPS), rft_constants(1e-6)]
        initial = None
        if warm:  # one member warm, the others cold
            (start, _, _), *_ = _forcing(curves, maps, [1e-10] * 3, None)
            initial = [start.values * 1.001, None, None]
        calls = {"apply": 0, "apply_B": 0}

        def counted(name, function):
            def call(*args):
                calls[name] += 1
                return function(*args)
            return call

        monkeypatch.setattr(ForceMapStack, "apply", counted("apply", ForceMapStack.apply))
        monkeypatch.setattr(tension, "apply_B", counted("apply_B", tension.apply_B))
        tensions, *_ = _forcing(curves, maps, [1e-10] * 3, initial)
        # a batched B application per iteration of the slowest member, and
        # one for the warm start
        assert calls["apply_B"] == max(t.iterations for t in tensions) + warm
        assert calls["apply"] == 1 + calls["apply_B"]
