import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    bounded_turning_coeffs,
    close_to_convex_loop,
    herglotz_coeffs,
    ratio_extremal_coeffs,
    report_per_sample,
    starlike_loop,
    turning_extremal_coeffs,
)
from schlicht import (
    NormalizedSeries,
    TruncatedSeries,
    alexander_forward,
    alexander_inverse,
    convex_extremal,
    differentiate,
    divide,
    evaluate,
    evaluate_many,
    from_bounded_turning,
    from_close_to_convex,
    from_ratio_positive,
    from_starlike,
    identity,
    koebe,
    moebius,
    named_function,
    ratio_extremal,
    sample,
    turning_extremal,
    zoo,
)
from schlicht.caratheodory import _sample_rows, _seed_words, sample_measure
from schlicht.errors import InvalidParameter, NotCaratheodoryNormalized, OrderTooLow
from schlicht.probe import PREDICATES
from schlicht.series import constant
from schlicht.zoo import STOCK_FUNCTIONS, report_suite


class TestBuilders:
    def test_koebe_small(self):
        assert np.array_equal(koebe(3).coeffs, np.arange(4, dtype=complex))

    def test_koebe_order_one_is_identity(self):
        assert np.array_equal(koebe(1).coeffs, identity(1).coeffs)

    def test_koebe_closed_form_value(self):
        assert abs(evaluate(koebe(64), 0.25) - 0.25 / 0.5625) < 1e-9

    def test_moebius_small(self):
        assert np.allclose(moebius(3).coeffs, [1, 2, 2, 2])

    def test_moebius_order_zero(self):
        assert np.array_equal(moebius(0).coeffs, [1.0 + 0j])

    def test_moebius_closed_form_value(self):
        assert abs(evaluate(moebius(64), 0.5j) - (0.6 + 0.8j)) < 1e-8

    def test_ratio_extremal_coefficients(self):
        # z(1+z)/(1-z) = z + 2z^2 + 2z^3 + ...
        assert np.allclose(ratio_extremal(5).coeffs, [0, 1, 2, 2, 2, 2])

    def test_turning_extremal_coefficients(self):
        # -2 log(1-z) - z = z + z^2 + (2/3) z^3 + ...
        want = np.concatenate([[0.0, 1.0], 2.0 / np.arange(2, 7)])
        assert np.max(np.abs(turning_extremal(6).coeffs - want)) < 1e-12

    def test_convex_extremal_all_ones(self):
        assert np.allclose(convex_extremal(6).coeffs, [0, 1, 1, 1, 1, 1, 1])

    def test_order_validation(self):
        with pytest.raises(InvalidParameter):
            koebe(0)
        with pytest.raises(InvalidParameter):
            moebius(-1)


class TestNamedFunctions:
    @pytest.mark.parametrize("tag", ["koebe", "moebius", "identity", "thmA", "thmB"])
    def test_series_tracks_closed_form_on_half_disk(self, tag):
        nf = named_function(tag, order=64)
        zs = 0.5 * np.exp(2j * np.pi * np.arange(32) / 32)
        got = evaluate_many(nf.series, zs)
        want = np.asarray(nf.closed_form(zs), dtype=complex)
        assert np.max(np.abs(got - want)) < 1e-6

    @pytest.mark.parametrize("tag", ["koebe", "thmA", "thmB"])
    def test_derivative_tracks_series_derivative(self, tag):
        nf = named_function(tag, order=64)
        zs = 0.4 * np.exp(2j * np.pi * np.arange(16) / 16)
        got = evaluate_many(differentiate(nf.series), zs)
        want = np.asarray(nf.closed_form_derivative(zs), dtype=complex)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_pommerenke_is_not_a_tag(self):
        # the second-coefficient extremal is pommerenke_extremal(c1, eps, order)
        with pytest.raises(InvalidParameter):
            named_function("pommerenke", order=8)
        with pytest.raises(TypeError):
            named_function("koebe", 8, 1.0)

    @pytest.mark.parametrize("order", list(range(1, 70)) + [255, 256, 1024, 4096])
    def test_extremals_carry_the_bits_of_their_formulas(self, order):
        # through from_ratio_positive and alexander_inverse, to the bit
        for built, want in ((ratio_extremal, ratio_extremal_coeffs),
                            (turning_extremal, turning_extremal_coeffs)):
            got = built(order).coeffs
            assert np.array_equal(got.view(np.uint64), want(order).view(np.uint64))

    @pytest.mark.parametrize("built", [ratio_extremal, turning_extremal])
    def test_extremals_need_order_one(self, built):
        with pytest.raises(InvalidParameter, match="order must be a positive integer"):
            built(0)

    def test_unknown_tag_rejected(self):
        with pytest.raises(InvalidParameter):
            named_function("lune", order=8)

    def test_registry_contents(self):
        assert set(STOCK_FUNCTIONS) == {"koebe", "moebius", "identity", "thmA", "thmB"}


class TestFromRatioPositive:
    def test_moebius_gives_ratio_extremal(self):
        got = from_ratio_positive(moebius(8))
        assert np.array_equal(got.coeffs, ratio_extremal(9).coeffs)

    def test_unit_constant_gives_identity(self):
        got = from_ratio_positive(constant(1.0, 4))
        assert np.array_equal(got.coeffs, identity(5).coeffs)

    def test_requires_caratheodory_normalization(self):
        with pytest.raises(NotCaratheodoryNormalized):
            from_ratio_positive(TruncatedSeries([2.0, 1.0]))


class TestFromBoundedTurning:
    def test_moebius_gives_turning_extremal(self):
        got = from_bounded_turning(moebius(8))
        assert np.max(np.abs(got.coeffs - turning_extremal(9).coeffs)) < 1e-12

    def test_unit_constant_gives_identity(self):
        got = from_bounded_turning(constant(1.0, 4))
        assert np.array_equal(got.coeffs, identity(5).coeffs)

    def test_bits_of_the_coefficient_formula(self):
        # alexander_inverse of from_ratio_positive is a_k = c_{k-1}/k to the bit
        for s in range(200):
            h = sample(s, s % 8 + 1, order=s % 90)
            got = from_bounded_turning(h).coeffs
            want = bounded_turning_coeffs(h.coeffs)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), s

    def test_requires_caratheodory_normalization(self):
        with pytest.raises(NotCaratheodoryNormalized):
            from_bounded_turning(TruncatedSeries([2.0, 1.0]))


class TestFromStarlike:
    def test_moebius_gives_koebe(self):
        got = from_starlike(moebius(64))
        assert got.order == 65
        assert np.max(np.abs(got.coeffs - koebe(65).coeffs)) < 1e-10

    def test_unit_constant_gives_identity(self):
        got = from_starlike(constant(1.0, 6))
        assert np.array_equal(got.coeffs, identity(7).coeffs)

    def test_roundtrip_recovers_h(self):
        for seed in range(20):
            h = sample(seed, seed % 5 + 1, order=32)
            f = from_starlike(h)
            # z f'/f recomputed by series division
            back = divide(differentiate(f), TruncatedSeries(f.coeffs[1:]))
            assert back.order == h.order
            assert np.max(np.abs(back.coeffs - h.coeffs)) < 1e-8


class TestFromCloseToConvex:
    def test_moebius_with_convex_extremal_gives_koebe(self):
        got = from_close_to_convex(moebius(64), convex_extremal(64))
        assert np.max(np.abs(got.coeffs - koebe(64).coeffs)) < 1e-10

    def test_unit_constant_gives_g_back(self):
        g = convex_extremal(8)
        got = from_close_to_convex(constant(1.0, 8), g)
        assert np.max(np.abs(got.coeffs - g.coeffs)) < 1e-12

    def test_output_order_capped_by_g(self):
        got = from_close_to_convex(moebius(16), convex_extremal(4))
        assert got.order == 4


class TestAlexanderPair:
    def test_inverse_of_koebe_is_convex_extremal(self):
        got = alexander_inverse(koebe(10))
        assert np.max(np.abs(got.coeffs - convex_extremal(10).coeffs)) < 1e-12

    def test_forward_fixes_identity(self):
        assert np.array_equal(alexander_forward(identity(6)).coeffs, identity(6).coeffs)

    def test_inverse_pair(self, rng):
        c = rng.normal(size=10) + 1j * rng.normal(size=10)
        c[0] = 0.0
        c[1] = 1.0
        f = NormalizedSeries(c)
        back = alexander_forward(alexander_inverse(f))
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12


def _row_quotient(kind: str, f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """divide(N, D) of the kind's PREDICATES row, D = None read as 1 and
    a leading zero common to N and D (D(0) = 0) dropped first."""
    row = PREDICATES[kind]
    num, den = row.quotient(f.coeffs, g.coeffs if row.reads_g else None)
    den = np.ones(1, dtype=complex) if den is None else den
    if den[0] == 0:
        assert num[0] == 0
        num, den = num[1:], den[1:]
    den = np.pad(den, (0, max(0, len(num) - len(den))))
    return divide(TruncatedSeries(num), TruncatedSeries(den))


class TestClassRowRoundTrip:
    """Each class's constructor against its PREDICATES row: the row's
    N/D of the built f gives h back, so the two tables agree on every
    class."""

    CONSTRUCTORS = {
        "ratio_positive": lambda h, g: from_ratio_positive(h),
        "bounded_turning": lambda h, g: from_bounded_turning(h),
        "starlike": lambda h, g: from_starlike(h),
        "convex": lambda h, g: alexander_inverse(from_starlike(h)),
        "close_to_convex": lambda h, g: from_close_to_convex(h, g),
        "quasi_convex": lambda h, g: alexander_inverse(from_close_to_convex(h, g)),
    }

    def test_every_class_has_a_constructor(self):
        assert set(self.CONSTRUCTORS) == {k for k, row in PREDICATES.items() if row.quotient}

    @pytest.mark.parametrize("kind", list(CONSTRUCTORS))
    def test_row_inverts_constructor(self, kind):
        g = convex_extremal(40)
        for s in range(50):
            h = sample(s, s % 8 + 1, order=32)
            back = _row_quotient(kind, self.CONSTRUCTORS[kind](h, g), g)
            assert back.order >= h.order
            assert np.max(np.abs(back.coeffs[: h.order + 1] - h.coeffs)) <= 1e-11, s


class TestConstructorSweeps:
    # Growth bounds |a_k| <= 2, 2/k, k, k for the four constructors,
    # each checked with slack 1e-9 over seeded Herglotz samples; the
    # normalization a_0 = 0, a_1 = 1 must be float-exact every time.
    def test_bounds_and_exact_normalization(self):
        g = convex_extremal(33)
        for seed in range(250):
            h = sample(seed, seed % 8 + 1, order=32)
            built = (
                (from_ratio_positive(h), lambda k: 2.0 + 0 * k),
                (from_bounded_turning(h), lambda k: 2.0 / k),
                (from_starlike(h), lambda k: k),
                (from_close_to_convex(h, g), lambda k: k),
            )
            for f, cap in built:
                assert f.coeffs[0] == 0.0 and f.coeffs[1] == 1.0
                k = np.arange(2, f.order + 1, dtype=float)
                assert np.min(cap(k) - np.abs(f.coeffs[2:])) > -1e-9


class TestConstructorRows:
    # The constructors run on (batch, order + 1) arrays; a public call
    # passes one row, which from_starlike runs by np.dot per coefficient,
    # and report_suite a block, which runs by matmul slices.  Every row of
    # a block must carry the bits of the one-row call and of the
    # per-series loops they replaced, for any order and comparison
    # function g.  The examples are the orders whose series the benchmark
    # set-ups build one at a time (64, 128 and 256 after from_starlike).
    @given(st.integers(1, 130), st.integers(0, 2**32 - 1), st.integers(1, 8))
    @example(63, 0, 8)
    @example(127, 1, 3)
    @example(255, 2, 5)
    @settings(max_examples=40, deadline=None)
    def test_one_row_equals_rows_of_a_batch(self, order, seed, atoms):
        seeds = np.random.SeedSequence(seed).generate_state(5, dtype=np.uint64)
        c = _sample_rows(_seed_words(seeds), atoms, order)
        convex, koebe_g = convex_extremal(order + 1), koebe(order)
        batches = (
            (from_starlike, starlike_loop, zoo._starlike_rows(c)),
            (lambda h: from_close_to_convex(h, convex),
             lambda x: close_to_convex_loop(x, convex.coeffs),
             zoo._close_to_convex_rows(c, convex.coeffs)),
            (lambda h: from_close_to_convex(h, koebe_g),
             lambda x: close_to_convex_loop(x, koebe_g.coeffs),
             zoo._close_to_convex_rows(c, koebe_g.coeffs)),
        )
        for i, s in enumerate(seeds):
            m = sample_measure(int(s), atoms)
            h = sample(int(s), atoms, order)
            assert np.array_equal(h.coeffs, herglotz_coeffs(m.angles, m.weights, order))
            assert np.array_equal(h.coeffs, c[i])
            for construct, loop, rows in batches:
                want = loop(h.coeffs)
                assert np.array_equal(construct(h).coeffs, want)
                assert np.array_equal(rows[i], want)


class TestReportSuite:
    @pytest.mark.parametrize("seed", range(10))
    def test_bytes_equal_per_sample_loop(self, seed):
        order = (2, 3, 8, 32, 33)[seed % 5]
        got = json.dumps(report_suite(seed, 150 + seed, order), sort_keys=True)
        assert got == json.dumps(report_per_sample(seed, 150 + seed, order), sort_keys=True)

    @pytest.mark.parametrize("seed", range(10))
    def test_one_modulus_for_one_quantity(self, seed):
        # ratio_positive's a_k is c_{k-1}, so its margin 2 - |a_k| is
        # coefficient_bound's 2 - |c_k|, and must print the same
        checks = report_suite(seed, 100, 32)["checks"]
        assert checks["ratio_positive"] == checks["coefficient_bound"]

    @pytest.mark.parametrize("block", [1, 40, 100, 2**16])
    def test_every_sample_counted_once_whatever_the_block(self, block, monkeypatch):
        # With eps = -0.5 a sample violates a check when its worst margin
        # is below 0.5, so each count depends on every single sample.
        monkeypatch.setattr(zoo, "REPORT_BLOCK_COEFFS", block)
        monkeypatch.setattr(zoo, "VIOLATION_EPS", -0.5)
        got = report_suite(11, 29, 8)
        assert 0 < got["total_violations"] < 6 * 29
        want = report_per_sample(11, 29, 8, eps=-0.5)
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)

    @pytest.mark.parametrize("n_samples", [0, -1, True, 2.5, "3"])
    def test_bad_sample_count_rejected(self, n_samples):
        with pytest.raises(InvalidParameter):
            report_suite(0, n_samples, 8)

    @pytest.mark.parametrize("seed", [-1, True, 2.5])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(InvalidParameter):
            report_suite(seed, 4, 8)

    @pytest.mark.parametrize("order", [True, 2.0, -1])
    def test_bad_order_rejected(self, order):
        with pytest.raises(InvalidParameter):
            report_suite(0, 4, order)

    @pytest.mark.parametrize("order", [0, 1])
    def test_order_below_two_is_too_low(self, order):
        with pytest.raises(OrderTooLow):
            report_suite(0, 4, order)
