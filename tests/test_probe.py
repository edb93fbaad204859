import math
import tracemalloc

import numpy as np
import pytest

from schlicht import (
    Dilation,
    NamedFunction,
    RadiusResult,
    alexander_inverse,
    apply,
    circle_values,
    class_predicate,
    class_radius,
    convex_extremal,
    from_starlike,
    identity,
    injectivity_probe,
    koebe,
    local_univalence_radius,
    moebius,
    named_function,
    partial_sum,
    radius_solve,
    sample,
    schwarz_checks,
)
from schlicht.errors import (
    DegenerateAtCenter,
    EvaluationSingularity,
    InvalidParameter,
    SchlichtError,
)
from schlicht.probe import (
    INNER_RADIUS,
    POSITIVITY_EPS,
    PREDICATES,
    RADIUS_CAP,
    _circle_sampler,
    _class_quantity,
    _coeff_sampler,
    _stack,
    _has_proper_crossing,
    _polyline_injective,
    _winding_number,
    circle_angles,
    encloses_zero,
    predicate_kind,
)
from schlicht.series import (
    TruncatedSeries,
    constant,
    differentiate,
    evaluate_many,
)
from schlicht.zoo import STOCK_FUNCTIONS

from oracles import (
    circle_points,
    has_proper_crossing,
    horner_class_quantity,
    horner_values,
    injective_all_pairs,
    mp_circle_values,
    per_call_circle_values,
    per_call_class_quantity,
    per_call_coeff_values,
    polyval,
    random_coeffs,
    wrapped_winding_number,
)

SQRT2_MINUS_1 = math.sqrt(2.0) - 1.0
#: The classes: the kinds whose defining quantity must have positive real part.
CLASS_KINDS = tuple(PREDICATES)[:6]
CONVEXITY_RADIUS = 2.0 - math.sqrt(3.0)


def _thma64_ratio_radius() -> float:
    """The radius where Re f/z of thmA's order-64 polynomial first
    vanishes.  f/z = 1 + 2(z + ... + z^63) has its least real part on
    |z| = r at z = -r, 1 - 2r(1 + r^63)/(1 + r), which is zero where
    2 r^64 + r - 1 = 0: the positive root, by np.roots."""
    roots = np.roots([2.0] + [0.0] * 62 + [1.0, -1.0])
    return float(min(z.real for z in roots if abs(z.imag) < 1e-12 and z.real > 0))


THMA64_RATIO_RADIUS = _thma64_ratio_radius()


class TestCircle:
    @pytest.mark.parametrize("r", [0.0, 1.0, -0.5, math.nan])
    def test_radius_inside_the_disk(self, r):
        with pytest.raises(InvalidParameter):
            circle_values(koebe(8), r, 16)

    @pytest.mark.parametrize("n_angles", [-4, 0, 7])
    def test_at_least_eight_angles(self, n_angles):
        with pytest.raises(InvalidParameter):
            circle_angles(n_angles)
        with pytest.raises(InvalidParameter):
            injectivity_probe(koebe(8), 0.5, n_angles=n_angles)

    @pytest.mark.parametrize("call", [
        lambda: class_predicate("starlike", koebe(8), 0.5, 100.5),
        lambda: class_radius("starlike", koebe(8), n_angles=64.0),
        lambda: injectivity_probe(koebe(8), 0.5, 100.5),
        lambda: circle_values(koebe(8), 0.5, 8.5),
        lambda: schwarz_checks(identity(8), n_angles=8.5),
    ], ids=["class_predicate", "class_radius", "injectivity_probe", "circle_values",
            "schwarz_checks"])
    def test_angle_count_is_an_integer(self, call):
        with pytest.raises(InvalidParameter, match="n_angles must be a nonnegative integer"):
            call()


class TestMinRealPart:
    """The minimum real part on a sampled circle, circle_values(F, r,
    n).real.min(): the quantity that the class predicates threshold."""

    def test_moebius_at_half(self):
        # Moebius maps |z|=r to a circle; the minimum sits at z=-r
        assert abs(circle_values(moebius(64), 0.5, 256).real.min() - 1.0 / 3.0) < 1e-12

    def test_constant_one(self):
        for r in (0.3, 0.9):
            assert circle_values(constant(1.0, 16), r, 256).real.min() == 1.0

    def test_turning_derivative_near_boundary(self):
        # thmB's derivative (1+z)/(1-z), read from its closed form
        nf = named_function("thmB", 8)
        f_prime = NamedFunction("thmB'", differentiate(nf.series), nf.closed_form_derivative,
                                lambda z: 2 / (1 - z) ** 2)
        got = circle_values(f_prime, 0.999, 256).real.min()
        want = (1.0 - 0.999) / (1.0 + 0.999)
        assert 0.0 < got < 1e-3
        assert abs(got - want) < 1e-6

    def test_pole_raises(self):
        # local univalence reads a closed form of f'; the classes read the series
        bad = lambda zs: np.where(np.isclose(zs, 0.3), np.inf + 0j, 1.0 + 0j)
        pole = NamedFunction("pole", constant(1.0, 8), bad, bad)
        with pytest.raises(EvaluationSingularity):
            class_predicate("local_univalence", pole, 0.3)

    def test_domain_validation(self):
        with pytest.raises(InvalidParameter):
            circle_values(moebius(8), 1.0, 256)
        with pytest.raises(InvalidParameter):
            circle_values(moebius(8), 0.5, 4)


class TestClassPredicate:
    def test_koebe_starlike_at_every_radius(self):
        # Koebe is starlike on the whole disk, but a class reads the
        # series: the order-64 polynomial stops being starlike at the
        # first zero of its f'.  Nothing is asserted near |z| = 1, where
        # a sampled z f'/f can turn positive again.
        nf = named_function("koebe", 64)
        assert class_predicate("starlike", nf, 0.3)
        assert class_predicate("starlike", nf, 0.6)
        assert not class_predicate("starlike", nf, 0.9)
        fp = np.arange(1, 65) * nf.series.coeffs[1:]
        zero = float(np.min(np.abs(np.roots(fp[::-1]))))
        res = class_radius("starlike", nf)
        assert res.lo <= zero <= res.hi

    def test_koebe_convexity_flips(self):
        f = koebe(64)
        assert class_predicate("convex", f, 0.2)
        assert not class_predicate("convex", f, 0.9)

    def test_ratio_positive_extremal_everywhere(self):
        # thmA has Re f/z > 0 on the whole disk; its order-64 polynomial
        # only inside THMA64_RATIO_RADIUS
        nf = named_function("thmA", 64)
        assert class_predicate("ratio_positive", nf, 0.9)
        assert class_predicate("ratio_positive", nf, THMA64_RATIO_RADIUS - 5e-4)
        assert not class_predicate("ratio_positive", nf, THMA64_RATIO_RADIUS + 5e-4)
        assert not class_predicate("ratio_positive", nf, 0.99)

    def test_reference_function_required(self):
        with pytest.raises(InvalidParameter):
            class_predicate("close_to_convex", koebe(16), 0.5)
        with pytest.raises(InvalidParameter):
            class_predicate("quasi_convex", koebe(16), 0.5)

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameter):
            class_predicate("typal", koebe(8), 0.5)

    def test_vanishing_denominator(self):
        # z + 2z^2 vanishes at -1/2, a sample of the 8-point circle r = 1/2
        f = TruncatedSeries([0.0, 1.0, 2.0])
        with np.errstate(all="ignore"), \
                pytest.raises(EvaluationSingularity, match="denominator vanished"):
            class_predicate("starlike", f, 0.5, 8)

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
        # thmA itself would cap; its order-64 polynomial does not
        res = class_radius("ratio_positive", named_function("thmA", 64))
        assert not res.capped
        assert res.lo <= THMA64_RATIO_RADIUS <= res.hi

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


#: z - z^2/0.99: f vanishes at 0.99, a ladder rung past the first failure
#: of its starlike and convex tests, so f/z and f' vanish on that circle.
ZERO_AT_099 = TruncatedSeries([0.0, 1.0, -1 / 0.99])


class TestLookahead:
    """A solve samples radii ahead of its walk; only the radii the walk
    reads are checked, counted and traced."""

    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-300])
    @pytest.mark.parametrize("edge", [INNER_RADIUS * 2, 0.4123, 0.98, 1.0])
    def test_scalar_predicate_called_once_per_trace_entry(self, tol, edge):
        calls = []

        def below(r):
            calls.append(r)
            return r < edge

        res = radius_solve(below, tol=tol)
        assert calls == [r for r, _ in res.trace]
        assert res.capped == (edge == 1.0)

    def test_singular_rung_past_the_first_failure(self):
        # the ladder block samples r = 0.99, where D vanishes; no warning
        # (an error under this suite's filterwarnings) and no raise
        res = class_radius("starlike", ZERO_AT_099)
        assert (res.lo, res.hi, len(res.trace)) == (0.4949996948242189, 0.495000457763672, 27)
        res = class_radius("convex", ZERO_AT_099)
        assert (res.lo, res.hi) == (0.24749984741210945, 0.24750061035156257)
        with pytest.raises(EvaluationSingularity, match="denominator vanished"):
            class_predicate("starlike", ZERO_AT_099, 0.99)

    def test_pole_past_the_first_failure(self):
        # f' = 1 - 2z inside |z| = 0.98 and a pole beyond: local univalence
        # fails from 1/2 on, and the block holding the 0.99 rung is read
        # only up to the failure at 0.5
        fp = lambda z: np.where(np.abs(z) < 0.98, 1 - 2 * z, np.inf)
        f = NamedFunction("pole", TruncatedSeries([0.0, 1.0, -1.0]), fp, fp)
        res = local_univalence_radius(f, n_angles=64)
        assert res.lo < 0.5 <= res.hi and max(r for r, _ in res.trace) == 0.5
        with pytest.raises(EvaluationSingularity, match="non-finite"):
            class_predicate("local_univalence", f, 0.99, 64)

    def test_bisection_stops_between_adjacent_floats(self):
        res = class_radius("convex", koebe(16), tol=1e-300)
        radii = [r for r, _ in res.trace]
        assert len(set(radii)) == len(radii)
        assert res.hi == np.nextafter(res.lo, 1)
        assert res.iterations == len(radii) - radii.index(0.3) - 1


#: z + a_2 z^2 + ... + a_8 z^8 with a zero of f' at |z| = 0.3927581
#: (np.roots) that the sampled brackets leave out (ROADMAP "Known wrong").
ALIASING_POLY = TruncatedSeries([
    0, 1, 1.4691 + 0.0173j, -0.1198 + 0.0649j, -0.4233 + 0.0693j, 0.7578 - 0.1812j,
    -0.4748 - 0.0538j, -0.097 - 0.0166j, 0.2339 + 0.1219j,
])


class TestLocalUnivalence:
    @pytest.mark.xfail(strict=True, reason=(
        "just below the zero of f', arg f' turns by almost 2 pi between two samples and "
        "_winding_number counts the zero inside: a failing sample aliases too (ROADMAP "
        "items 5 and 6)"))
    @pytest.mark.parametrize("n_angles", [512, 2048])
    def test_bracket_contains_the_zero_of_the_derivative(self, n_angles):
        fp = np.arange(1, 9) * ALIASING_POLY.coeffs[1:]
        zero = float(np.min(np.abs(np.roots(fp[::-1]))))
        res = local_univalence_radius(ALIASING_POLY, n_angles=n_angles)
        assert res.lo <= zero <= res.hi

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
        assert injectivity_probe(named_function("koebe"), 0.5, n_angles=4096)
        for n_angles in (4097, 5000):
            with pytest.raises(InvalidParameter):
                injectivity_probe(koebe(8), 0.5, n_angles=n_angles)


class TestPredicateTable:
    """check and radius share one table of predicate kinds; the entry
    points of local univalence and injectivity are calls into it."""

    def test_default_angles(self):
        assert CLASS_KINDS == ("bounded_turning", "starlike", "convex", "close_to_convex",
                               "ratio_positive", "quasi_convex")
        assert list(PREDICATES)[6:] == ["local_univalence", "injectivity"]
        assert [row.angles for row in PREDICATES.values()] == [256] * 6 + [2048, 512]
        assert [k for k, row in PREDICATES.items() if row.reads_g] == [
            "close_to_convex", "quasi_convex"]
        assert tuple(k for k, row in PREDICATES.items() if row.quotient) == CLASS_KINDS
        assert predicate_kind("local-univalence") == "local_univalence"
        assert predicate_kind("quasi_convex") == "quasi_convex"
        for name in ("typal", "local univalence", "Starlike"):
            with pytest.raises(InvalidParameter):
                predicate_kind(name)

    @pytest.mark.parametrize("kind", list(PREDICATES))
    def test_overflow_is_a_singularity(self, kind):
        # f' and f overflow to inf on every circle; a NaN sample must
        # not reach the winding number or the polyline test
        f = TruncatedSeries([0.0, 1.0, 1e308, 1e308])
        with np.errstate(all="ignore"), pytest.raises(EvaluationSingularity):
            class_predicate(kind, f, 0.99, g=identity(3))

    @pytest.mark.parametrize("kind", [k for k in CLASS_KINDS if not PREDICATES[k].reads_g])
    def test_ignored_g_changes_nothing(self, kind):
        # radius solves that pass one g to every class rely on this
        f = _starlike(2, 64)
        g = alexander_inverse(_starlike(9, 64))
        assert class_radius(kind, f, g=g) == class_radius(kind, f)

    def test_entry_points_match_the_table(self):
        nf = named_function("thmA", 64)
        for r in (0.3, 0.41, 0.42, 0.6):
            assert class_predicate("injectivity", nf, r) == injectivity_probe(nf, r)
            assert class_predicate("injectivity", nf, r, 512) == injectivity_probe(nf, r)
        assert class_radius("local-univalence", nf) == local_univalence_radius(nf)
        assert class_radius("local_univalence", nf, n_angles=64) == local_univalence_radius(
            nf, n_angles=64
        )

    def test_local_univalence_at_one_radius(self):
        nf = named_function("thmA", 64)
        assert class_predicate("local_univalence", nf, 0.41)
        assert not class_predicate("local_univalence", nf, 0.42)

    def test_radius_of_univalence(self):
        # z + 2 z^2 folds over once |z| passes the zero of f' at -1/4
        res = class_radius("injectivity", TruncatedSeries([0.0, 1.0, 2.0]))
        assert res.predicate_name == "injectivity" and not res.capped
        assert res.hi - res.lo <= 1e-6
        assert abs(res.lo - 0.25) < 1e-4
        assert class_radius("injectivity", identity(8)).capped


def _radius_or_error(kind, f, g):
    try:
        return class_radius(kind, f, g=g)
    except SchlichtError as exc:
        return type(exc), str(exc)


class TestOneRepresentation:
    """A class reads only the series: a named function and its .series
    (for f and for g) give the same radius, or the same error."""

    @pytest.mark.parametrize("tag", list(STOCK_FUNCTIONS))
    def test_named_equals_series(self, tag):
        nf, g = named_function(tag, 64), named_function("koebe", 64)
        for kind in CLASS_KINDS:
            got = _radius_or_error(kind, nf, g)
            assert got == _radius_or_error(kind, nf.series, g.series), kind
            if (tag, kind) == ("moebius", "starlike"):
                assert got[0] is DegenerateAtCenter


def _mp_textbook_quantity(kind: str, f, g, z: complex) -> complex:
    """The class's defining quantity at z by its textbook formula (f',
    f/z, z f'/f, 1 + z f''/f', f'/g', (f' + z f'')/g'), in mpmath at 50
    digits from the coefficients of f and g."""
    import mpmath

    def derivative(c, z, d):
        return mpmath.fsum(mpmath.ff(k, d) * mpmath.mpc(complex(a)) * z ** (k - d)
                           for k, a in enumerate(c.coeffs) if k >= d)

    with mpmath.workdps(50):
        z = mpmath.mpc(z)
        f0, f1, f2 = (derivative(f, z, d) for d in range(3))
        quantity = {
            "bounded_turning": lambda: f1,
            "ratio_positive": lambda: f0 / z,
            "starlike": lambda: z * f1 / f0,
            "convex": lambda: 1 + z * f2 / f1,
            "close_to_convex": lambda: f1 / derivative(g, z, 1),
            "quasi_convex": lambda: (f1 + z * f2) / derivative(g, z, 1),
        }[kind]
        return complex(quantity())


class TestRowsAgainstMpmath:
    """Each PREDICATES row's N/D, summed by Horner on its coefficient
    vectors, is the textbook quantity of its class: this checks the
    table, not the sampler."""

    @pytest.mark.parametrize("kind", CLASS_KINDS)
    def test_quotient_is_the_textbook_quantity(self, kind):
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(4242)
        zs = rng.uniform(0.05, 0.5, 8) * np.exp(2j * np.pi * rng.uniform(size=8))
        g = alexander_inverse(_starlike(11, 16))
        fs = [_starlike(seed, 16) for seed in (1, 2, 3)]
        off_centre = fs[0].coeffs.copy()
        off_centre[0] = 0.3 - 0.2j
        fs.append(TruncatedSeries(off_centre))
        row = PREDICATES[kind]
        for f in fs:
            num, den = row.quotient(f.coeffs, g.coeffs if row.reads_g else None)
            got = polyval(num, zs) / (1.0 if den is None else polyval(den, zs))
            for z, value in zip(zs, got):
                want = _mp_textbook_quantity(kind, f, g, z)
                assert abs(value - want) <= 1e-12 * abs(want), (f.coeffs[:3], z)


class TestEnclosesZero:
    def test_winding_around_zero(self):
        assert encloses_zero(circle_points(0.6, 64) - 0.5)
        assert not encloses_zero(circle_points(0.4, 64) - 0.5)

    def test_passing_within_eps(self):
        # 0 lies 1e-12 outside this loop, next to its sample at theta = 0
        touching = circle_points(0.5, 64) - 0.5 - 1e-12
        assert _winding_number(touching) == 0
        assert encloses_zero(touching)


class TestWindingByWrapCount:
    """_winding_number counts wraps where the oracle sums the turns
    wrapped by the remainder; the two agree loop by loop."""

    @pytest.mark.parametrize("n", [8, 64, 512])
    def test_seeded_loops(self, n):
        rng = np.random.default_rng(n)
        ulp = np.spacing(np.pi)
        # steps of either sign near 0, anywhere in (-pi, pi), or within
        # a few ulps of +-pi
        near_pi = rng.choice([-1.0, 1.0], (2000, n)) * (np.pi + ulp * rng.integers(-4, 5, (2000, n)))
        steps = np.select(
            [rng.random((2000, n)) < 1 / 3, rng.random((2000, n)) < 1 / 2],
            [rng.normal(0, 0.1, (2000, n)), rng.uniform(-np.pi, np.pi, (2000, n))],
            near_pi,
        )
        loops = rng.uniform(0.5, 2.0, (2000, n)) * np.exp(1j * np.cumsum(steps, axis=1))
        got = _winding_number(loops)
        assert got.tolist() == [wrapped_winding_number(loop) for loop in loops]
        assert got.tolist() == [_winding_number(loop) for loop in loops]
        assert len(set(got.tolist())) > 3

    def test_turn_of_exactly_pi(self):
        # the step of pi from 1 to -1 wraps to -pi, both ways
        loop = np.array([1, 1j, -1, -1j, 1, -1], dtype=complex)
        assert _winding_number(loop) == wrapped_winding_number(loop) == 0


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
        for d in range(2):
            fd = _derivative(f, d)
            for r in self.RADII:
                scale = float(np.sum(np.abs(fd.coeffs) * r ** np.arange(fd.order + 1)))
                got = circle_values(f, r, n_angles, d)
                assert got.shape == (n_angles,)
                horner = evaluate_many(fd, circle_points(r, n_angles))
                assert np.max(np.abs(got - horner)) <= 1e-13 * scale
                ref = mp_circle_values(f.coeffs, r, n_angles, one, d)
                assert np.max(np.abs(got[one] - ref)) <= 1e-13 * scale

    def test_closed_form_before_series(self):
        nf = named_function("koebe", 16)
        zs = circle_points(0.99, 64)
        assert np.array_equal(circle_values(nf, 0.99, 64), nf.closed_form(zs))
        assert np.array_equal(circle_values(nf, 0.99, 64, 1), nf.closed_form_derivative(zs))
        # nothing samples f'', with or without a closed form
        for F in (nf, nf.series):
            with pytest.raises(InvalidParameter, match="derivative must be at most 1"):
                circle_values(F, 0.5, 64, 2)

    def test_plain_callable(self):
        # a probe reads a series or a named function's closed forms, not a callable
        square = lambda z: z * z
        for probe in (lambda: circle_values(square, 0.5, 16),
                      lambda: class_predicate("ratio_positive", square, 0.5),
                      lambda: class_radius("ratio_positive", square)):
            with pytest.raises(InvalidParameter):
                probe()

    @pytest.mark.parametrize(
        "r, n_angles, derivative",
        [(0.0, 16, 0), (1.0, 16, 0), (math.nan, 16, 1), (0.5, 7, 0), (0.5, 0, 2), (0.5, 16, 2),
         (0.5, 16, 3), (0.5, 16, -1), ("0.5", 16, 0), (None, 16, 0), (0.5 + 0j, 16, 0),
         (True, 16, 0), (0.5, 16, True), (0.5, 16, 1.0)],
    )
    def test_arguments_checked(self, r, n_angles, derivative):
        with pytest.raises(InvalidParameter):
            circle_values(koebe(8), r, n_angles, derivative)

    @pytest.mark.parametrize("r", ["0.5", None, 0.5 + 0j, True, math.inf, 0.0, 1.0])
    @pytest.mark.parametrize("probe", [
        lambda r: class_predicate("starlike", koebe(8), r),
        lambda r: class_predicate("close_to_convex", koebe(8), r, g=koebe(8)),
        lambda r: class_predicate("local_univalence", named_function("koebe", 8), r),
        lambda r: injectivity_probe(koebe(8), r),
    ], ids=["starlike", "close_to_convex", "local_univalence", "injectivity_probe"])
    def test_radius_checked(self, probe, r):
        with pytest.raises(InvalidParameter):
            probe(r)

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
                q = horner_class_quantity(kind, f, circle_points(r, n_angles), g)
                return float(np.min(q.real)) > POSITIVITY_EPS

            got = class_radius(kind, f, g=g, n_angles=n_angles)
            assert got.trace == radius_solve(horner, predicate_name=kind).trace, kind

    @pytest.mark.parametrize("tag", ["koebe", "thmA", "thmB"])
    def test_class_radius_named(self, tag):
        # a class reads a named function's series, not its closed forms
        nf = named_function(tag, 64)
        for kind in ("bounded_turning", "starlike", "convex", "ratio_positive"):
            def horner(r, kind=kind):
                q = horner_class_quantity(kind, nf.series, circle_points(r, 32), None)
                return float(np.min(q.real)) > POSITIVITY_EPS

            got = class_radius(kind, nf, n_angles=32)
            assert got.trace == radius_solve(horner, predicate_name=kind).trace, kind

    @pytest.mark.parametrize("order, n_angles", [(16, 256), (128, 64), (200, 64), (300, 256)])
    def test_local_univalence(self, order, n_angles):
        # f' = (1 - z/0.95) g' for a convex g: a zero of f' at 0.95, where
        # the terms beyond n_angles are not small
        gp = differentiate(alexander_inverse(_starlike(order, order))).coeffs
        fp = np.convolve(gp, [1.0, -1 / 0.95])[: len(gp)]
        f = TruncatedSeries(np.concatenate([[0.0], fp / np.arange(1, len(fp) + 1)]))

        def horner(r):
            vals = horner_values(f, circle_points(r, n_angles), 1)
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


def _injectivity_cases():
    """(F, r, n_angles) for 1,200 seeded curves, both outcomes included."""
    rng = np.random.default_rng(2024)
    koebe_nf = named_function("koebe")
    loop = partial_sum(named_function("thmA").series, 2)
    cases = []
    for _ in range(350):
        cases.append((koebe_nf, float(rng.uniform(0.01, 0.999)), int(rng.choice([64, 128, 256]))))
        cases.append((loop, float(rng.uniform(0.05, 0.95)), int(rng.choice([64, 128, 256]))))
    for n_angles, count in ((64, 120), (256, 100), (512, 50), (1024, 30)):
        for seed in range(count):
            f = from_starlike(sample(n_angles * 1000 + seed, seed % 6 + 1, order=63))
            cases.append((f, float(rng.uniform(0.3, 0.99)), n_angles))
    for _ in range(200):
        c = np.zeros(9, dtype=complex)
        c[1] = 1.0
        c[2:] = (rng.normal(size=7) + 1j * rng.normal(size=7)) * 0.5 / np.arange(2, 9)
        cases.append((TruncatedSeries(c), float(rng.uniform(0.2, 0.99)), int(rng.choice([64, 128]))))
    return cases


#: Two collinear segments on a line of slope about 0.52, 0.06 apart
#: along it: rounding makes the orientation test report a crossing.
APART = (-2.0062136703739175 + 0.05751560362751418j, -0.7287710996574257 + 0.7287868122071214j,
         -0.6731872855495472 + 0.7579950247162226j, 0.24808253335152586 + 1.2421043842585298j)

#: Two nearly collinear segments A -> B, C -> D whose boxes touch at one
#: x (B and C share their real part, their imaginary parts are one ulp
#: apart): rounding makes the orientation test report a crossing.
TOUCHING = (-1.1092429679741924 - 1.8261429544130703j, 0.4440595827482592 + 0.11798837221304115j,
            0.4440595827482592 + 0.11798837221304113j, 0.8325062852700635 + 0.6041727300163611j)


class TestInjectivityOracle:
    """injectivity_probe decides as a zero-free f' and the all-pairs
    tests it replaced (tests/oracles.py) do on seeded curves, and
    _polyline_injective as the all-pairs tests do on hand-built
    polylines."""

    def test_seeded_curves(self):
        outcomes = []
        for F, r, n_angles in _injectivity_cases():
            got = injectivity_probe(F, r, n_angles)
            want = (not encloses_zero(circle_values(F, r, n_angles, 1))
                    and injective_all_pairs(circle_values(F, r, n_angles)))
            assert got == want, (F, r, n_angles)
            outcomes.append(got)
        assert len(outcomes) >= 1200
        assert 300 <= sum(outcomes) <= len(outcomes) - 300

    @pytest.mark.parametrize(
        "points, expected",
        [
            # a repeated sample: octagon vertex 0, the one of largest real
            # part, again at position 5
            ([np.exp(1j * np.pi * k / 4) for k in (0, 1, 2, 3, 4, 0, 6, 7)], False),
            # the octagon's bottom vertex moved 5e-10 right of the top one
            ([0j + np.exp(1j * np.pi * k / 4) if k != 6 else 5e-10 - 1j for k in range(8)], True),
            # an hourglass pinched at two samples 5e-10 apart, with two samples
            # between them in real part but far in imaginary part
            ([0, -1 + 1j, 2e-10 + 3j, 1 + 1j, 5e-10, 1 - 1j, 3e-10 - 3j, -1 - 1j], False),
            # a figure eight, its samples offset so that none hits the crossing
            (list(np.sin(circle_angles(100) + 0.1) + 0.5j * np.sin(2 * circle_angles(100) + 0.2)),
             False),
            # a side that doubles back over itself: collinear overlapping segments
            ([0, 2, 2 - 1j, 3 - 1j, 3, 1, 1 + 1j, 1j], True),
            # vertical segments sharing x = 0, with zero-width boxes that tie
            ([0, 1j, 1 + 1j, 1 + 2j, 2j, 3j, -1 + 3j, -1], True),
            # ... and a horizontal segment crossing one of them
            ([0, 1j, 1 + 1j, 1 + 2j, 2j, 3j, -1 + 3j, -1 + 0.5j, 2 + 0.5j, 2 - 1j], False),
        ],
        ids=["repeated", "apart-in-imag", "pinch", "figure-eight", "collinear-overlap",
             "vertical-tie", "vertical-crossed"],
    )
    def test_hand_built(self, points, expected):
        w = np.array(points, dtype=complex)
        assert injective_all_pairs(w) is expected
        assert _polyline_injective(w) is expected

    def test_touching_boxes_are_tested(self):
        # the orientation test runs on every pair whose closed boxes meet,
        # so it reports what the all-pairs test reports, rounding included
        a, b = np.array(TOUCHING[0::2]), np.array(TOUCHING[1::2])
        assert has_proper_crossing(a, b)
        assert _has_proper_crossing(a, b)

    def test_apart_boxes_are_not(self):
        # the one difference: pairs whose boxes are apart are never tested,
        # so rounding cannot report a crossing between them.  A polygon
        # with a straight side of three segments, its first and third the
        # APART pair, is simple; the all-pairs test calls it non-injective.
        w = np.array(list(APART) + [1, -1j, -1 - 1.2j, -2.5 - 0.5j])
        assert has_proper_crossing(np.array(APART[0::2]), np.array(APART[1::2]))
        assert not injective_all_pairs(w)
        assert _polyline_injective(w)


def test_injectivity_memory_is_bounded():
    """Every segment of this zigzag spans the same x-range, so every pair
    of boxes meets in x; the sweep still works in bounded chunks."""
    theta = np.angle(circle_points(0.5, 4096))
    zigzag = np.cos(2048 * theta) + 1j * np.unwrap(theta)
    tracemalloc.start()
    try:
        assert not _polyline_injective(zigzag)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20


def _sampler_functions():
    """(label, f, g, n_angles): a series with order + 1 above n_angles
    (folded), stock named functions, and one built by hand (the
    half-plane map z/(1-z))."""
    g = alexander_inverse(_starlike(7, 200))
    half_plane = NamedFunction("half-plane", convex_extremal(64), lambda z: z / (1 - z),
                               lambda z: 1 / (1 - z) ** 2)
    return [
        ("folded", _starlike(3, 200), g, 64),
        ("koebe", named_function("koebe", 64), named_function("koebe", 64), 32),
        ("thmA", named_function("thmA", 64), g, 256),
        ("custom", half_plane, g, 64),
    ]


class TestBlockRows:
    """Each row of a block, one circle among many in one DFT, has the
    bits of that circle sampled alone."""

    @pytest.mark.parametrize("seed", range(40))
    def test_coeff_sampler_and_stacks(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([8, 9, 16, 64, 100, 256, 257, 2048]))
        # coefficient counts below, at and above the angle count
        lengths = rng.integers(2, 3 * n, size=2)
        a, b = (random_coeffs(rng, int(m) - 1) for m in lengths)
        radii = rng.uniform(INNER_RADIUS, RADIUS_CAP, int(rng.integers(1, 40)))
        rows = _coeff_sampler(a, n)(radii)
        stacked = _coeff_sampler(_stack(a, b), n)(radii)
        assert rows.shape == (len(radii), n) and stacked.shape == (len(radii), 2, n)
        for r, row, pair in zip(radii, rows, stacked):
            want = per_call_coeff_values(a, r, n)
            assert np.array_equal(_bits(row), _bits(want)), (n, lengths, r)
            assert np.array_equal(_bits(pair[0]), _bits(want)), (n, lengths, r)
            assert np.array_equal(_bits(pair[1]), _bits(per_call_coeff_values(b, r, n)))

    @pytest.mark.parametrize("tag", sorted(STOCK_FUNCTIONS))
    @pytest.mark.parametrize("n", [8, 64, 2048])
    def test_closed_forms(self, tag, n):
        nf = named_function(tag, 64)
        radii = np.linspace(INNER_RADIUS, RADIUS_CAP, 23)
        for d in range(2):
            rows = _circle_sampler(nf, n, d)(radii)
            for r, row in zip(radii, rows):
                assert np.array_equal(_bits(row), _bits(per_call_circle_values(nf, r, n, d)))

    @pytest.mark.parametrize("order, n_angles", TRACE_GRIDS)
    def test_class_quantities(self, order, n_angles):
        f = _starlike(5, order)
        g = alexander_inverse(_starlike(6, order // 2))
        radii = np.linspace(INNER_RADIUS, RADIUS_CAP, 31)
        for kind in CLASS_KINDS:
            q, least_den = _class_quantity(kind, f, n_angles, g)(radii)
            for r, row, d in zip(radii, q, least_den):
                want = per_call_class_quantity(kind, f, r, n_angles, g)
                assert np.array_equal(_bits(row), _bits(want)), (kind, r)
                if kind != "bounded_turning":
                    num, den = PREDICATES[kind].quotient(f.coeffs, g.coeffs)
                    assert d == np.min(np.abs(per_call_coeff_values(den, r, n_angles)))


def _bits(w: np.ndarray) -> np.ndarray:
    """The bit patterns of a complex array, so that equality is bit for bit."""
    return np.ascontiguousarray(w).view(np.uint64)


class TestSamplers:
    """A sampler built once gives, at every radius of a block, the bits
    that rebuilding everything for that one radius gives."""

    RADII = (INNER_RADIUS, 0.05, 0.2679, 0.5, 0.9, 0.998)

    @pytest.mark.parametrize("label, f, g, n_angles", _sampler_functions(),
                             ids=[c[0] for c in _sampler_functions()])
    def test_values(self, label, f, g, n_angles):
        for d in range(2):
            rows = _circle_sampler(f, n_angles, d)(np.array(self.RADII))
            for r, row in zip(self.RADII, rows):
                want = per_call_circle_values(f, r, n_angles, d)
                assert np.array_equal(_bits(row), _bits(want)), (d, r)
                assert np.array_equal(_bits(circle_values(f, r, n_angles, d)), _bits(want)), (d, r)

    @pytest.mark.parametrize("label, f, g, n_angles", _sampler_functions(),
                             ids=[c[0] for c in _sampler_functions()])
    def test_class_quantities_and_traces(self, label, f, g, n_angles):
        for kind in CLASS_KINDS:
            res = class_radius(kind, f, g=g, n_angles=n_angles)
            radii = [r for r, _ in res.trace]
            q, _ = _class_quantity(kind, f, n_angles, g)(np.array(radii))
            for (r, ok), row in zip(res.trace, q):
                assert ok == class_predicate(kind, f, r, n_angles, g), (kind, r)
                want = per_call_class_quantity(kind, f, r, n_angles, g)
                assert np.array_equal(_bits(row), _bits(want)), (kind, r)

    @pytest.mark.parametrize("label, f, g, n_angles", _sampler_functions(),
                             ids=[c[0] for c in _sampler_functions()])
    def test_local_univalence_trace(self, label, f, g, n_angles):
        res = local_univalence_radius(f, n_angles=n_angles)
        for r, ok in res.trace:
            vals = per_call_circle_values(f, r, n_angles, 1)
            want = float(np.min(np.abs(vals))) > POSITIVITY_EPS and _winding_number(vals) == 0
            assert ok == want, r
