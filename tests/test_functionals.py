import math

import numpy as np
import pytest

from schlicht import (
    SchwarzFunction,
    SquareRoot,
    apply,
    bieberbach_check,
    check_coefficient_bound,
    check_pommerenke,
    covering_check,
    fekete_szego,
    from_starlike,
    hankel,
    identity,
    koebe,
    moebius,
    sample,
    schwarz_checks,
)
from schlicht.caratheodory import VIOLATION_EPS
from schlicht.errors import InvalidParameter, NonFiniteResult, OrderTooLow
from schlicht.series import TruncatedSeries

from oracles import det_cofactor, random_normalized_coeffs

ODD_C5_CONSTANT = 0.5 + math.exp(-2.0 / 3.0)


class TestFeketeSzego:
    @pytest.mark.parametrize("a2, a3", [(1e200, 1e200), (1e154, -1.7e308)])
    def test_overflow_is_a_computation_error(self, a2, a3):
        # a_2^2 overflows, or a_2^2 is finite and the difference is not
        with pytest.raises(NonFiniteResult):
            fekete_szego(TruncatedSeries([0.0, 1.0, a2, a3]), 1.0)

    def test_square_is_the_power(self):
        rng = np.random.default_rng(5)
        for a2, a3 in rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2)):
            want = abs(complex(a3) - 0.3 * complex(a2) ** 2)
            assert fekete_szego(TruncatedSeries([0.0, 1.0, a2, a3]), 0.3).value == want

    def test_koebe_alpha_zero(self):
        rep = fekete_szego(koebe(8), 0.0)
        assert rep.value == 3.0
        assert rep.bound == 3.0
        assert rep.margin == 0.0

    def test_identity_any_alpha(self):
        for alpha in (0.0, 0.4, 1.0):
            assert fekete_szego(identity(8), alpha).value == 0.0

    def test_koebe_alpha_one_limit(self):
        rep = fekete_szego(koebe(8), 1.0)
        assert rep.value == 1.0
        assert rep.bound == 1.0
        assert rep.margin == 0.0

    def test_bound_monotone_decreasing(self):
        # the exponential term drops below one ulp of 1.0 near alpha = 1,
        # flattening the float bound there; require strict descent early on
        alphas = np.linspace(0.0, 0.99, 100)
        bounds = [fekete_szego(koebe(4), float(a)).bound for a in alphas]
        assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))
        assert all(b1 > b2 for b1, b2 in zip(bounds[:50], bounds[1:51]))
        assert bounds[0] == 3.0
        assert bounds[-1] >= 1.0

    def test_validation(self):
        with pytest.raises(OrderTooLow):
            fekete_szego(identity(2), 0.5)
        with pytest.raises(InvalidParameter):
            fekete_szego(identity(4), 1.5)

    @pytest.mark.parametrize("alpha", [0.5 + 0j, "0.5", None])
    def test_alpha_is_a_real_number(self, alpha):
        with pytest.raises(InvalidParameter, match="alpha must be a finite real number"):
            fekete_szego(koebe(8), alpha)


class TestOddC5:
    """The fifth coefficient of the odd square-root transform,
    apply(SquareRoot(), f).coeffs[5]."""

    def test_koebe_value(self):
        assert abs(apply(SquareRoot(), koebe(8)).coeffs[5] - 1.0) < 1e-15

    def test_identity_zero(self):
        assert apply(SquareRoot(), identity(6)).coeffs[5] == 0.0

    def test_matches_square_root_transform(self, rng):
        for _ in range(20):
            f = TruncatedSeries(random_normalized_coeffs(rng, 12))
            got = apply(SquareRoot(), f).coeffs[5]
            a2, a3 = f.coeffs[2], f.coeffs[3]
            assert abs(got - (a3 - a2**2 / 4.0) / 2.0) < 1e-10

    def test_starlike_sweep_respects_constant(self):
        worst = 0.0
        for seed in range(200):
            h = sample(seed, seed % 6 + 1, order=8)
            f = from_starlike(h)
            worst = max(worst, abs(apply(SquareRoot(), f).coeffs[5]))
        assert worst <= ODD_C5_CONSTANT + 1e-9


class TestHankel:
    def test_two_by_two_is_a3_minus_a2_squared(self, rng):
        for _ in range(20):
            f = TruncatedSeries(random_normalized_coeffs(rng, 8))
            want = complex(f.coeffs[3]) - complex(f.coeffs[2]) ** 2
            assert hankel(f, 2, 1) == want

    def test_koebe_two_by_two(self):
        assert hankel(koebe(8), 2, 1) == -1.0
        assert abs(hankel(koebe(8), 2, 1)) == 1.0

    def test_identity_two_by_two(self):
        assert hankel(identity(8), 2, 1) == 0.0

    def test_koebe_three_by_three_rank_two(self):
        # det[[1,2,3],[2,3,4],[3,4,5]]: arithmetic progression, rank 2
        assert abs(hankel(koebe(8), 3, 1)) < 1e-10

    def test_single_entry_is_coefficient(self, rng):
        f = TruncatedSeries(random_normalized_coeffs(rng, 10))
        for n in (1, 2, 5):
            assert hankel(f, 1, n) == complex(f.coeffs[n])

    def test_large_q_against_numpy(self, rng):
        f = TruncatedSeries(random_normalized_coeffs(rng, 16))
        idx = 1 + np.add.outer(np.arange(5), np.arange(5))
        want = np.linalg.det(f.coeffs[idx])
        assert abs(hankel(f, 5, 1) - want) < 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_small_blocks_bit_equal_to_cofactor_expansion(self, rng, q):
        # koebe and identity have zero imaginary parts, so the signs of
        # zeros are compared too
        fs = [TruncatedSeries(random_normalized_coeffs(rng, 2 * q + 2)) for _ in range(200)]
        for f in fs + [koebe(2 * q + 2), identity(2 * q + 2)]:
            for n in (1, 2, 3):
                want = det_cofactor(f.coeffs[n + np.add.outer(np.arange(q), np.arange(q))])
                assert np.array(hankel(f, q, n)).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("q", [4, 5])
    def test_lu_blocks_agree_with_cofactor_expansion(self, rng, q):
        for _ in range(50):
            f = TruncatedSeries(random_normalized_coeffs(rng, 2 * q))
            want = det_cofactor(f.coeffs[1 + np.add.outer(np.arange(q), np.arange(q))])
            assert abs(hankel(f, q, 1) - want) <= 1e-12 * abs(want)

    def test_order_requirement(self):
        with pytest.raises(OrderTooLow):
            hankel(identity(4), 3, 1)
        with pytest.raises(InvalidParameter):
            hankel(identity(8), 2, 0)


class TestBieberbach:
    def test_koebe_all_margins_zero(self):
        rep = bieberbach_check(koebe(16))
        assert rep.value == 0.0
        assert rep.margin == 0.0
        assert all(m == 0.0 for _, m in rep.per_index)

    def test_identity_overshoots_are_minus_k(self):
        rep = bieberbach_check(identity(8))
        assert rep.value == 0.0
        for k, m in rep.per_index:
            assert m == -float(k)
            assert m <= -2.0

    def test_starlike_sweep(self):
        worst = -np.inf
        for seed in range(200):
            f = from_starlike(sample(seed, seed % 5 + 1, order=16))
            worst = max(worst, bieberbach_check(f).value)
        assert worst <= 1e-9

    def test_violation_detected(self):
        f = TruncatedSeries([0.0, 1.0, 5.0])
        rep = bieberbach_check(f)
        assert rep.value == 3.0
        assert rep.margin == -3.0


class TestCovering:
    def test_koebe_extremal_point(self):
        rep = covering_check(koebe(8), -0.25)
        assert abs(rep.value - 2.0) < 1e-9
        assert abs(rep.margin) < 1e-9

    def test_identity_at_two(self):
        rep = covering_check(identity(8), 2.0)
        assert rep.value == 0.5
        assert rep.margin == 1.5
        assert rep.bound == 2.0

    def test_continuity_in_xi(self):
        f = koebe(8)
        base = covering_check(f, 1.0).value
        near = covering_check(f, 1.0 + 1e-9).value
        assert abs(base - near) < 1e-8

    def test_zero_xi_rejected(self):
        with pytest.raises(InvalidParameter):
            covering_check(koebe(4), 0.0)

    def test_non_finite_xi_rejected(self):
        with pytest.raises(InvalidParameter, match="finite complex number"):
            covering_check(koebe(4), complex("nan"))


def _schwarz(which):
    return lambda theta: schwarz_checks(theta)[which]


# Each check with an input where its bound holds, one where it fails,
# and whether its report lists per-index overshoots.
REPORT_CASES = [
    pytest.param(
        check_coefficient_bound, moebius(16), TruncatedSeries([1.0, 2.5, 0.5]), True,
        id="coefficient_bound",
    ),
    pytest.param(
        check_pommerenke, moebius(4), TruncatedSeries([1.0, 0.0, 3.0]), False, id="pommerenke"
    ),
    pytest.param(
        _schwarz(0), SchwarzFunction(TruncatedSeries([0.0, 0.0, 0.5])),
        SchwarzFunction(TruncatedSeries([0.0, 1.5])), True, id="schwarz_magnitude",
    ),
    pytest.param(
        _schwarz(1), SchwarzFunction(TruncatedSeries([0.0, 0.0, 0.5])),
        SchwarzFunction(TruncatedSeries([0.0, 1.5])), True, id="schwarz_derivative",
    ),
    pytest.param(
        lambda f: fekete_szego(f, 0.0), koebe(8), TruncatedSeries([0.0, 1.0, 0.0, 5.0]), False,
        id="fekete_szego",
    ),
    pytest.param(
        lambda f: covering_check(f, -0.25), koebe(8), identity(8), False, id="covering"
    ),
    pytest.param(
        bieberbach_check, koebe(16), TruncatedSeries([0.0, 1.0, 5.0]), True, id="bieberbach"
    ),
]


class TestReportShape:
    @pytest.mark.parametrize("check, holds, fails, indexed", REPORT_CASES)
    def test_one_report_shape(self, check, holds, fails, indexed):
        good, bad = check(holds), check(fails)
        assert good.ok and not bad.ok
        keys = {"name", "value", "bound", "margin"} | ({"per_index"} if indexed else set())
        for rep in (good, bad):
            d = rep.to_dict()
            assert set(d) == keys
            assert repr(rep.margin) == repr(rep.bound - rep.value) == repr(d["margin"])
            assert rep.ok == (rep.margin >= -VIOLATION_EPS)

    def test_report_requires_nonnegative_value(self):
        from schlicht import MarginReport

        with pytest.raises(InvalidParameter):
            MarginReport("bad", -1.0, 0.0)
        # a non-finite value or bound is an overflow, not bad input
        for value in (math.nan, math.inf):
            with pytest.raises(NonFiniteResult):
                MarginReport("bad", value, 0.0)
            with pytest.raises(NonFiniteResult):
                MarginReport("bad", 1.0, -value)

    def test_to_dict_roundtrips_fields(self):
        rep = fekete_szego(koebe(4), 0.5)
        d = rep.to_dict()
        assert d["name"] == "fekete_szego"
        assert d["value"] == rep.value
        assert d["bound"] == rep.bound
        assert d["margin"] == rep.margin
