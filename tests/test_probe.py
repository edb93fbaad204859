import math

import numpy as np
import pytest

from schlicht import (
    Dilation,
    ProbeGrid,
    RadiusResult,
    alexander_inverse,
    apply,
    circle_values,
    class_predicate,
    class_radius,
    from_starlike,
    identity,
    injectivity_probe,
    koebe,
    local_univalence_radius,
    min_real_part,
    moebius,
    named_function,
    partial_sum,
    radius_solve,
    sample,
)
from schlicht.errors import (
    DegenerateAtCenter,
    EvaluationSingularity,
    InvalidParameter,
)
from schlicht.probe import (
    CLASS_KINDS,
    INNER_RADIUS,
    POSITIVITY_EPS,
    RADIUS_CAP,
    _winding_number,
    circle,
    circle_angles,
)
from schlicht.series import (
    TruncatedSeries,
    constant,
    differentiate,
    evaluate_many,
    integrate_from_zero,
)

from oracles import horner_class_quantity, horner_values, mp_circle_values, random_coeffs

SQRT2_MINUS_1 = math.sqrt(2.0) - 1.0
CONVEXITY_RADIUS = 2.0 - math.sqrt(3.0)


class TestProbeGrid:
    def test_default_shape(self):
        grid = ProbeGrid.default()
        assert grid.radii == (0.3, 0.6, 0.9, 0.95)
        assert len(grid.points()) == 4 * 64

    def test_radii_must_increase(self):
        with pytest.raises(InvalidParameter):
            ProbeGrid((0.5, 0.3))

    def test_radii_must_be_interior(self):
        with pytest.raises(InvalidParameter):
            ProbeGrid((0.5, 1.0))

    def test_angle_floor(self):
        with pytest.raises(InvalidParameter):
            ProbeGrid((0.5,), 4)


class TestCircle:
    @pytest.mark.parametrize("r", [0.0, 1.0, -0.5, math.nan])
    def test_radius_inside_the_disk(self, r):
        with pytest.raises(InvalidParameter):
            circle(r, 16)

    @pytest.mark.parametrize("n_angles", [-4, 0, 7])
    def test_at_least_eight_angles(self, n_angles):
        with pytest.raises(InvalidParameter):
            circle_angles(n_angles)
        with pytest.raises(InvalidParameter):
            injectivity_probe(koebe(8), 0.5, n_angles=n_angles)


class TestMinRealPart:
    def test_moebius_at_half(self):
        # Moebius maps |z|=r to a circle; the minimum sits at z=-r
        assert abs(min_real_part(moebius(64), 0.5) - 1.0 / 3.0) < 1e-12

    def test_constant_one(self):
        for r in (0.3, 0.9):
            assert min_real_part(constant(1.0, 16), r) == 1.0

    def test_turning_derivative_near_boundary(self):
        nf = named_function("thmB", 8)
        got = min_real_part(lambda zs: nf.closed_form_derivative(zs), 0.999)
        want = (1.0 - 0.999) / (1.0 + 0.999)
        assert 0.0 < got < 1e-3
        assert abs(got - want) < 1e-6

    def test_pole_raises(self):
        bad = lambda zs: np.where(np.isclose(zs, 0.3), np.inf + 0j, 1.0 + 0j)
        with pytest.raises(EvaluationSingularity):
            min_real_part(bad, 0.3)

    def test_domain_validation(self):
        with pytest.raises(InvalidParameter):
            min_real_part(moebius(8), 1.0)
        with pytest.raises(InvalidParameter):
            min_real_part(moebius(8), 0.5, n_angles=4)


class TestClassPredicate:
    def test_koebe_starlike_at_every_radius(self):
        nf = named_function("koebe", 64)
        for r in (0.3, 0.6, 0.9, 0.99):
            assert class_predicate("starlike", nf, r)

    def test_koebe_convexity_flips(self):
        f = koebe(64)
        assert class_predicate("convex", f, 0.2)
        assert not class_predicate("convex", f, 0.9)

    def test_ratio_positive_extremal_everywhere(self):
        nf = named_function("thmA", 64)
        assert class_predicate("ratio_positive", nf, 0.99)

    def test_reference_function_required(self):
        with pytest.raises(InvalidParameter):
            class_predicate("close_to_convex", koebe(16), 0.5)
        with pytest.raises(InvalidParameter):
            class_predicate("quasi_convex", koebe(16), 0.5)

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameter):
            class_predicate("typal", koebe(8), 0.5)

    def test_hyphenated_alias(self):
        f = koebe(32)
        got = class_predicate("close-to-convex", f, 0.3, g=f)
        assert got == class_predicate("close_to_convex", f, 0.3, g=f)


class TestPartialSum:
    def test_full_order_is_identity(self):
        f = koebe(16)
        assert np.array_equal(partial_sum(f, 16).coeffs, f.coeffs)

    def test_koebe_degree_two(self):
        got = partial_sum(koebe(16), 2)
        assert np.array_equal(got.coeffs, np.array([0.0, 1.0, 2.0], dtype=complex))

    def test_ratio_extremal_degree_two(self):
        got = partial_sum(named_function("thmA", 16), 2)
        assert np.array_equal(got.coeffs, np.array([0.0, 1.0, 2.0], dtype=complex))

    def test_domain(self):
        with pytest.raises(InvalidParameter):
            partial_sum(koebe(8), 0)
        with pytest.raises(InvalidParameter):
            partial_sum(koebe(8), 9)


class TestRadiusSolve:
    def test_convexity_radius_of_koebe(self):
        res = class_radius("convex", koebe(64), tol=1e-6)
        assert res.hi - res.lo <= 1e-6
        assert abs(0.5 * (res.lo + res.hi) - CONVEXITY_RADIUS) < 1e-4

    def test_bracket_invariant(self):
        pred = lambda r: class_predicate("convex", koebe(64), r)
        res = radius_solve(pred, tol=1e-4, predicate_name="convex")
        assert not res.capped
        assert pred(res.lo)
        assert not pred(res.hi)
        assert res.iterations <= 64

    def test_always_true_caps(self):
        res = radius_solve(lambda r: True, predicate_name="tautology")
        assert res.capped
        assert res.lo == res.hi == RADIUS_CAP

    def test_ratio_positive_extremal_caps(self):
        res = class_radius("ratio_positive", named_function("thmA", 64))
        assert res.capped

    def test_degenerate_at_center(self):
        with pytest.raises(DegenerateAtCenter):
            radius_solve(lambda r: False, predicate_name="contradiction")

    def test_trace_records_evaluations(self):
        res = radius_solve(lambda r: r < 0.4, predicate_name="step")
        assert res.trace[0] == (1e-3, True)
        assert any(not ok for _, ok in res.trace)
        assert abs(0.5 * (res.lo + res.hi) - 0.4) < 1e-6

    def test_result_validation(self):
        with pytest.raises(InvalidParameter):
            RadiusResult(lo=0.5, hi=0.4, iterations=0, predicate_name="bad")

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-6, "1e-6"])
    def test_tolerance_validated(self, tol):
        # a nan or inf tolerance would stop bisection before its first step
        with pytest.raises(InvalidParameter):
            radius_solve(lambda r: r < 0.4, tol=tol)


class TestLocalUnivalence:
    @pytest.mark.parametrize("n_angles", [-4, 0, 3, 7])
    def test_too_few_angles_rejected(self, n_angles):
        with pytest.raises(InvalidParameter):
            local_univalence_radius(koebe(8), n_angles=n_angles)

    def test_ratio_extremal_turning_point(self):
        res = local_univalence_radius(named_function("thmA", 64))
        assert res.hi - res.lo <= 1e-6
        assert abs(0.5 * (res.lo + res.hi) - SQRT2_MINUS_1) < 1e-6

    def test_identity_never_turns(self):
        res = local_univalence_radius(identity(16))
        assert res.capped
        assert res.hi == RADIUS_CAP

    def test_quadratic_partial_sum(self):
        s2 = partial_sum(named_function("thmA", 16), 2)
        res = local_univalence_radius(s2)
        assert res.hi - res.lo <= 1e-6
        assert abs(0.5 * (res.lo + res.hi) - 0.25) < 1e-6

    def test_dilation_monotonicity(self):
        nf = named_function("thmA", 64)
        base = local_univalence_radius(nf)
        base_mid = 0.5 * (base.lo + base.hi)

        shrunk = apply(Dilation(0.8), nf.series)
        res = local_univalence_radius(shrunk)
        assert abs(0.5 * (res.lo + res.hi) - base_mid / 0.8) < 1e-6

        tiny = apply(Dilation(0.4), nf.series)
        assert local_univalence_radius(tiny).capped

    def test_tolerance_honored(self):
        res = local_univalence_radius(named_function("thmA", 64), tol=1e-4)
        assert res.hi - res.lo <= 1e-4


class TestInjectivity:
    def test_koebe_at_nine_tenths(self):
        assert injectivity_probe(named_function("koebe", 64), 0.9)

    def test_square_folds(self):
        square = TruncatedSeries([0.0, 0.0, 1.0])
        assert not injectivity_probe(square, 0.5)

    def test_ratio_extremal_past_turning_radius(self):
        nf = named_function("thmA", 64)
        assert injectivity_probe(nf, 0.40)
        assert not injectivity_probe(nf, 0.6)

    def test_angle_ceiling(self):
        with pytest.raises(InvalidParameter):
            injectivity_probe(koebe(8), 0.5, n_angles=5000)


class TestInclusionChains:
    def test_convex_implies_starlike_implies_close_to_convex(self):
        checked = 0
        for seed in range(100):
            s = from_starlike(sample(seed, seed % 5 + 1, order=64))
            fc = alexander_inverse(s)
            for r in (0.3, 0.6, 0.9):
                if class_predicate("convex", fc, r):
                    checked += 1
                    assert class_predicate("starlike", fc, r)
                    assert class_predicate("close_to_convex", s, r, g=fc)
        assert checked >= 100


def _derivative(f: TruncatedSeries, d: int) -> TruncatedSeries:
    for _ in range(d):
        f = differentiate(f)
    return f


class TestCircleValues:
    """circle_values against Horner at every sample and against mpmath at
    one, within 1e-13 of the summed term magnitudes sum |a_k| r^k, a the
    coefficients of F^(d).  Orders above n_angles take the fold."""

    RADII = (INNER_RADIUS, 0.3, 0.9, 0.999)

    @pytest.mark.parametrize("n_angles", [8, 64, 256, 2048])
    @pytest.mark.parametrize("order", [0, 1, 64, 256, 1024])
    def test_matches_horner_and_mpmath(self, order, n_angles):
        pytest.importorskip("mpmath")
        f = TruncatedSeries(random_coeffs(np.random.default_rng([order, n_angles]), order))
        one = [n_angles // 3]
        for d in range(3):
            fd = _derivative(f, d)
            for r in self.RADII:
                scale = float(np.sum(np.abs(fd.coeffs) * r ** np.arange(fd.order + 1)))
                got = circle_values(f, r, n_angles, d)
                assert got.shape == (n_angles,)
                assert np.max(np.abs(got - evaluate_many(fd, circle(r, n_angles)))) <= 1e-13 * scale
                ref = mp_circle_values(f.coeffs, r, n_angles, one, d)
                assert np.max(np.abs(got[one] - ref)) <= 1e-13 * scale

    def test_closed_form_before_series(self):
        nf = named_function("koebe", 16)
        zs = circle(0.99, 64)
        assert np.array_equal(circle_values(nf, 0.99, 64), nf.closed_form(zs))
        assert np.array_equal(circle_values(nf, 0.99, 64, 1), nf.closed_form_derivative(zs))
        # no closed form for f'': the series answers
        assert np.allclose(circle_values(nf, 0.5, 64, 2), evaluate_many(_derivative(nf.series, 2),
                                                                        circle(0.5, 64)))

    def test_plain_callable(self):
        zs = circle(0.5, 16)
        assert np.array_equal(circle_values(lambda z: z * z, 0.5, 16), zs * zs)
        # a callable that refuses arrays is called point by point
        scalar = lambda z: complex(z) ** 2
        assert np.array_equal(circle_values(scalar, 0.5, 16), np.array([z ** 2 for z in zs]))
        with pytest.raises(InvalidParameter):
            circle_values(lambda z: z, 0.5, 16, derivative=1)

    @pytest.mark.parametrize(
        "r, n_angles, derivative",
        [(0.0, 16, 0), (1.0, 16, 0), (math.nan, 16, 1), (0.5, 7, 0), (0.5, 0, 2), (0.5, 16, 3),
         (0.5, 16, -1)],
    )
    def test_arguments_checked(self, r, n_angles, derivative):
        with pytest.raises(InvalidParameter):
            circle_values(koebe(8), r, n_angles, derivative)

    def test_not_a_function(self):
        with pytest.raises(InvalidParameter):
            circle_values("koebe", 0.5, 16)


def _starlike(seed: int, order: int):
    return from_starlike(sample(seed, seed % 4 + 1, order=order))


#: (order, n_angles): three with the order above the angle count, so
#: the coefficients are folded before the transform.
TRACE_GRIDS = ((16, 256), (64, 32), (200, 64), (300, 256))


class TestTracesMatchHorner:
    """Every bisection step decides as the Horner evaluation of the same
    quantity on the same circle does, so the traces agree entry by entry."""

    @pytest.mark.parametrize("order, n_angles", TRACE_GRIDS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_class_radius(self, order, n_angles, seed):
        f = _starlike(seed, order)
        g = alexander_inverse(_starlike(seed + 7, order))
        for kind in CLASS_KINDS:
            def horner(r, kind=kind):
                q = horner_class_quantity(kind, f, circle(r, n_angles), g)
                return float(np.min(q.real)) > POSITIVITY_EPS

            got = class_radius(kind, f, g=g, n_angles=n_angles)
            assert got.trace == radius_solve(horner, predicate_name=kind).trace, kind

    @pytest.mark.parametrize("tag", ["koebe", "thmA", "thmB"])
    def test_class_radius_named(self, tag):
        nf = named_function(tag, 64)
        for kind in ("bounded_turning", "starlike", "convex", "ratio_positive"):
            def horner(r, kind=kind):
                q = horner_class_quantity(kind, nf, circle(r, 32), None)
                return float(np.min(q.real)) > POSITIVITY_EPS

            got = class_radius(kind, nf, n_angles=32)
            assert got.trace == radius_solve(horner, predicate_name=kind).trace, kind

    @pytest.mark.parametrize("order, n_angles", [(16, 256), (128, 64), (200, 64), (300, 256)])
    def test_local_univalence(self, order, n_angles):
        # f' = (1 - z/0.95) g' for a convex g: a zero of f' at 0.95, where
        # the terms beyond n_angles are not small
        gp = differentiate(alexander_inverse(_starlike(order, order))).coeffs
        f = integrate_from_zero(TruncatedSeries(np.convolve(gp, [1.0, -1 / 0.95])[: len(gp)]))

        def horner(r):
            vals = horner_values(f, circle(r, n_angles), 1)
            return float(np.min(np.abs(vals))) > POSITIVITY_EPS and _winding_number(vals) == 0

        got = local_univalence_radius(f, n_angles=n_angles)
        assert not got.capped
        assert got.trace == radius_solve(horner, predicate_name="local_univalence").trace


class TestMonotone:
    def test_solver_traces_are_monotone(self):
        assert class_radius("convex", koebe(16)).monotone
        assert radius_solve(lambda r: True).monotone

    def test_pass_above_a_fail(self):
        res = RadiusResult(0.2, 0.3, 1, "p", trace=((0.001, True), (0.3, False), (0.4, True)))
        assert not res.monotone

