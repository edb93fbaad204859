import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schlicht import (
    HerglotzMeasure,
    JanowskiParams,
    SchwarzFunction,
    TruncatedSeries,
    check_coefficient_bound,
    check_pommerenke,
    divide,
    evaluate_many,
    h_to_schwarz,
    herglotz_to_series,
    janowski,
    moebius,
    multiply,
    pommerenke_extremal,
    preserve,
    principal_power,
    sample,
    sample_measure,
    schwarz_checks,
    schwarz_to_h,
)
from schlicht.caratheodory import (
    VIOLATION_EPS,
    _draw_measures,
    _sample_rows,
    measure_to_dict,
)
from schlicht.errors import (
    ConstantDenominatorZero,
    InvalidMeasure,
    InvalidParameter,
    NonFiniteResult,
    NotCaratheodoryNormalized,
    OrderTooLow,
)
from schlicht.probe import circle, circle_values
from schlicht.series import constant, differentiate

from oracles import (
    coefficient_margins,
    herglotz_coeffs,
    herglotz_kernel_values,
    pommerenke_margin,
    schwarz_margins,
    seeded_measure,
)


def linear(order: int) -> TruncatedSeries:
    c = np.zeros(order + 1, dtype=complex)
    c[1] = 1.0
    return TruncatedSeries(c)


class TestHerglotzMeasure:
    def test_point_mass_gives_moebius(self):
        m = HerglotzMeasure(((0.0, 1.0),))
        got = herglotz_to_series(m, order=8)
        assert np.max(np.abs(got.coeffs - moebius(8).coeffs)) < 1e-12

    def test_two_antipodal_atoms(self):
        # c_k = 1 + (-1)^k: the series of (1+z^2)/(1-z^2)
        m = HerglotzMeasure(((0.0, 0.5), (np.pi, 0.5)))
        got = herglotz_to_series(m, order=6).coeffs
        want = 1.0 + (-1.0) ** np.arange(7)
        want[0] = 1.0
        assert np.max(np.abs(got - want)) < 1e-12

    def test_four_uniform_atoms(self):
        m = HerglotzMeasure(tuple((k * np.pi / 2, 0.25) for k in range(4)))
        got = herglotz_to_series(m, order=12).coeffs
        want = np.where(np.arange(13) % 4 == 0, 2.0, 0.0)
        want[0] = 1.0
        assert np.max(np.abs(got - want)) < 1e-12

    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidMeasure):
            HerglotzMeasure(((0.0, 0.7), (1.0, 0.7)))

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidMeasure):
            HerglotzMeasure(((0.0, 1.5), (1.0, -0.5)))

    @pytest.mark.parametrize(
        "atoms, message",
        [((), "at least one atom"), (((np.nan, 1.0),), "finite"), (((0.0, np.nan),), "finite")],
    )
    def test_empty_and_non_finite_rejected(self, atoms, message):
        with pytest.raises(InvalidMeasure, match=message):
            HerglotzMeasure(atoms)

    def test_angles_canonicalized(self):
        m = HerglotzMeasure(((2 * np.pi + 0.5, 1.0),))
        assert abs(m.angles[0] - 0.5) < 1e-12

    def test_json_roundtrip(self):
        m = HerglotzMeasure(((0.3, 0.25), (2.0, 0.75)))
        back = HerglotzMeasure(tuple(map(tuple, measure_to_dict(m)["atoms"])))
        assert np.allclose(back.angles, m.angles)
        assert np.allclose(back.weights, m.weights)

    def test_series_matches_exact_kernel(self):
        m = HerglotzMeasure(((0.3, 0.25), (2.0, 0.5), (5.1, 0.25)))
        h = herglotz_to_series(m, order=80)
        zs = 0.4 * np.exp(2j * np.pi * np.arange(12) / 12)
        want = herglotz_kernel_values(m.angles, m.weights, zs)
        assert np.max(np.abs(evaluate_many(h, zs) - want)) < 1e-10


class TestSchwarzBridge:
    def test_schwarz_to_h_of_identity_is_moebius(self):
        theta = SchwarzFunction(linear(8))
        got = schwarz_to_h(theta)
        assert np.max(np.abs(got.coeffs - moebius(8).coeffs)) < 1e-12

    def test_h_to_schwarz_of_unit_constant_is_zero(self):
        theta = h_to_schwarz(constant(1.0, 6))
        assert np.max(np.abs(theta.series.coeffs)) == 0.0

    def test_roundtrip_on_samples(self):
        for seed in range(25):
            h = sample(seed, seed % 6 + 1, order=32)
            back = schwarz_to_h(h_to_schwarz(h))
            assert np.max(np.abs(back.coeffs - h.coeffs)) < 1e-10

    def test_schwarz_requires_vanishing_constant(self):
        with pytest.raises(InvalidParameter):
            SchwarzFunction(constant(1.0, 4))


class TestJanowski:
    def test_extreme_parameters_give_moebius(self):
        theta = SchwarzFunction(linear(8))
        got = janowski(theta, JanowskiParams(1.0, -1.0))
        assert np.max(np.abs(got.coeffs - moebius(8).coeffs)) < 1e-12

    def test_zero_schwarz_gives_unit_constant(self):
        theta = SchwarzFunction(TruncatedSeries(np.zeros(5)))
        got = janowski(theta, JanowskiParams(0.5, -0.25))
        assert np.allclose(got.coeffs, constant(1.0, 4).coeffs)

    def test_half_parameters_geometric(self):
        # (1 + z/2)/(1 - z/2) = 1 + z + z^2/2 + z^3/4 + ...
        theta = SchwarzFunction(linear(5))
        got = janowski(theta, JanowskiParams(0.5, -0.5)).coeffs
        want = np.concatenate([[1.0], 1.0 / 2.0 ** np.arange(5)])
        assert np.max(np.abs(got - want)) < 1e-12

    def test_coincides_with_schwarz_to_h_exactly(self):
        h = sample(11, 3, order=24)
        theta = h_to_schwarz(h)
        a = janowski(theta, JanowskiParams(1.0, -1.0)).coeffs
        b = schwarz_to_h(theta).coeffs
        assert np.array_equal(a, b)

    def test_parameter_ordering_enforced(self):
        with pytest.raises(InvalidParameter):
            JanowskiParams(0.5, 0.5)
        with pytest.raises(InvalidParameter):
            JanowskiParams(1.5, -1.0)


def test_schwarz_side_constant_terms_need_no_check():
    # h_to_schwarz and janowski check nothing beyond require_caratheodory
    # and SchwarzFunction: for every h it admits, (h - 1)/(h + 1) starts
    # within 1e-12 of 0, and 1 + b theta starts at exactly 1 when theta(0)
    # is -0.0 and b < 0 (the one case whose product b theta_0 is signed)
    rng = np.random.default_rng(2024)
    tail = 0.5 * (rng.normal(size=8) + 1j * rng.normal(size=8))
    edges = 1e-12 * np.array([1, -1, 1j, -1j])
    inner = 1e-12 * np.sqrt(rng.random(2000)) * np.exp(2j * np.pi * rng.random(2000))
    worst = 0.0
    for d in np.concatenate([edges, inner]):
        h = TruncatedSeries(np.concatenate([[1.0 + d], tail]))
        if abs(h.coeffs[0] - 1.0) > 1e-12:
            continue  # refused by require_caratheodory
        worst = max(worst, abs(divide(h - 1, h + 1).coeffs[0]))
        assert h_to_schwarz(h).series.coeffs[0] == 0
    assert 0 < worst < 1e-12
    theta = SchwarzFunction(TruncatedSeries(np.concatenate([[-0.0], tail])))
    assert np.signbit(theta.series.coeffs[0].real)
    for b in (-1.0, -0.5, -1e-300, 0.0, 0.25):
        got = janowski(theta, JanowskiParams(1.0, b))
        assert got.coeffs[0] == 1


class TestPreserve:
    def test_shrink_to_zero_gives_unit_constant(self):
        h = sample(5, 4, order=16)
        got = preserve("shrink", h, 0.0)
        assert np.allclose(got.coeffs, constant(1.0, 16).coeffs)
        assert got.coeffs[0] == 1.0

    def test_value_automorphism_keeps_positivity(self):
        got = preserve("value_automorphism", moebius(64), 1.0)
        assert got.coeffs[0] == 1.0
        assert circle_values(got, 0.9, 256).real.min() > 0.0

    def test_power_product_square_roots_multiply_back(self):
        m = moebius(32)
        got = preserve("power_product", m, 0.5, h=m, tau=0.5)
        assert np.max(np.abs(got.coeffs - m.coeffs)) < 1e-10

    def test_all_kinds_preserve_positivity_and_normalization(self):
        # order 256 keeps both truncation layers below the positivity floor
        # at r = 0.9.  Recentering divides by g(t), so its positivity claim
        # needs g(t) > 0; a real-coefficient g (symmetrized sample) gives
        # that, while rotated single atoms genuinely break it.
        for seed in range(10):
            h = sample(seed, seed % 4 + 1, order=256)
            h_sym = TruncatedSeries(h.coeffs.real.astype(complex))
            outputs = [
                preserve("rotate", h, 1.1),
                preserve("shrink", h, 0.7),
                preserve("recenter", h_sym, 0.35),
                preserve("value_automorphism", h, -0.8),
                preserve("power", h, 0.6),
                preserve("power_product", h, 0.3, h=sample(seed + 100, 3, order=256), tau=0.5),
            ]
            for g in outputs:
                assert g.coeffs[0] == 1.0
                assert circle_values(g, 0.9, 256).real.min() > 0.0

    def test_recenter_matches_pointwise_quotient(self):
        h = sample(9, 3, order=128)
        t = 0.35
        got = preserve("recenter", h, t)
        zs = 0.6 * np.exp(2j * np.pi * np.arange(32) / 32)
        w = (zs + t) / (1 + t * zs)
        want = evaluate_many(h, w) / evaluate_many(h, np.array([t]))[0]
        assert np.max(np.abs(evaluate_many(got, zs) - want)) < 1e-9

    def test_power_reciprocal_identity(self):
        # [g^t] and [g^-t] multiply to 1, both as series and pointwise
        h = sample(3, 5, order=256)
        t = 0.7
        p = preserve("power", h, t)
        q = preserve("power", h, -t)
        prod = multiply(p, q)
        want = np.zeros(257)
        want[0] = 1.0
        assert np.max(np.abs(prod.coeffs - want)) < 1e-9
        for r in (0.3, 0.6, 0.9):
            zs = r * np.exp(2j * np.pi * np.arange(32) / 32)
            vals = evaluate_many(p, zs) * evaluate_many(q, zs)
            assert np.max(np.abs(vals - 1.0)) < 1e-9

    def test_parameter_ranges(self):
        h = moebius(8)
        with pytest.raises(InvalidParameter):
            preserve("shrink", h, 1.5)
        with pytest.raises(InvalidParameter):
            preserve("recenter", h, 1.0)
        with pytest.raises(InvalidParameter):
            preserve("power", h, -1.5)
        with pytest.raises(InvalidParameter):
            preserve("power_product", h, 0.7, h=h, tau=0.7)
        for kwargs in ({}, {"h": h}, {"tau": 0.2}):
            with pytest.raises(InvalidParameter, match="needs h and tau"):
                preserve("power_product", h, 0.5, **kwargs)
        # each kind has one spelling: the roman numerals i..vi are not kinds
        for kind in ("vii", "i", "iii", "Rotate"):
            with pytest.raises(InvalidParameter, match="unknown preserve kind"):
                preserve(kind, h, 0.5)

    @pytest.mark.parametrize("t", [float("nan"), complex(0.2, float("inf")), "x", None])
    def test_recenter_point_validated(self, t):
        with pytest.raises(InvalidParameter, match="t must be a finite complex number"):
            preserve("recenter", moebius(8), t)

    def test_recenter_at_a_zero_of_g(self):
        # 1 + 2z vanishes at -1/2
        with pytest.raises(ConstantDenominatorZero, match="vanishes at the new center"):
            preserve("recenter", moebius(1), -0.5)

    def test_requires_unit_constant(self):
        with pytest.raises(NotCaratheodoryNormalized):
            preserve("rotate", TruncatedSeries([2.0, 1.0]), 0.5)


#: 64-bit seeds with the ends of their range drawn often.
SEEDS = st.one_of(st.sampled_from([0, 1, 2**63 - 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1))


class TestSampling:
    # sample_measure, sample and the report's blocks all come from one
    # drawer; each must give the bits of the per-call sampler it replaced
    @given(st.lists(SEEDS, min_size=1, max_size=6), st.integers(1, 8), st.integers(0, 40))
    @settings(max_examples=150, deadline=None)
    def test_blocks_and_single_draws_match_the_oracle(self, seeds, atoms, order):
        angles, weights = _draw_measures(seeds, atoms)
        rows = _sample_rows(np.array(seeds, dtype=np.uint64), atoms, order)
        for i, s in enumerate(seeds):
            want_angles, want_weights = seeded_measure(s, atoms)
            got = sample_measure(s, atoms)
            coeffs = herglotz_coeffs(want_angles, want_weights, order)
            for a, b in (
                (got.angles, want_angles),
                (got.weights, want_weights),
                (angles[i], want_angles),
                (weights[i], want_weights),
                (rows[i], coeffs),
                (sample(s, atoms, order).coeffs, coeffs),
            ):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_single_atom_has_extremal_coefficients(self):
        for seed in (0, 7, 123):
            h = sample(seed, 1, order=32)
            assert np.max(np.abs(np.abs(h.coeffs[1:]) - 2.0)) < 1e-12

    def test_determinism(self):
        a = sample(42, 8, order=24)
        b = sample(42, 8, order=24)
        assert np.array_equal(a.coeffs, b.coeffs)
        ma = sample_measure(42, 8)
        mb = sample_measure(42, 8)
        assert np.array_equal(ma.angles, mb.angles)
        assert np.array_equal(ma.weights, mb.weights)

    def test_positivity_on_tight_grid(self):
        # order 256 keeps the truncation tail below the Herglotz floor at 0.95
        for seed in range(10):
            h = sample(seed, seed % 5 + 1, order=256)
            assert circle_values(h, 0.95, 256).real.min() > 0.0

    def test_atom_count_validated(self):
        with pytest.raises(InvalidParameter):
            sample_measure(0, 0)

    @pytest.mark.parametrize("seed", [-1, True, 2.5])
    def test_seed_validated(self, seed):
        with pytest.raises(InvalidParameter):
            sample_measure(seed, 2)
        with pytest.raises(InvalidParameter):
            sample(seed, 2, order=8)


class TestBoundChecks:
    def test_moebius_margins_all_zero(self):
        rep = check_coefficient_bound(moebius(16))
        assert rep.margin == 0.0
        assert rep.ok

    def test_unit_constant_margins_two(self):
        rep = check_coefficient_bound(constant(1.0, 8))
        assert all(m == -2.0 for _, m in rep.per_index)
        assert check_pommerenke(constant(1.0, 8)).margin == 2.0

    def test_pommerenke_moebius_zero(self):
        assert abs(check_pommerenke(moebius(4)).margin) < 1e-12

    def test_order_too_low(self):
        with pytest.raises(OrderTooLow):
            check_pommerenke(constant(1.0, 1))
        with pytest.raises(OrderTooLow):
            check_coefficient_bound(constant(1.0, 0))

    def test_requires_caratheodory(self):
        with pytest.raises(NotCaratheodoryNormalized):
            check_coefficient_bound(TruncatedSeries([0.0, 1.0]))


class TestPommerenkeExtremal:
    def test_c1_two_gives_moebius(self):
        got = pommerenke_extremal(2.0, 1.0, order=10)
        assert np.max(np.abs(got.coeffs - moebius(10).coeffs)) < 1e-10

    def test_c1_zero_alternating(self):
        got = pommerenke_extremal(0.0, 1.0, order=8).coeffs
        want = 1.0 + (-1.0) ** np.arange(9)
        want[0] = 1.0
        assert np.max(np.abs(got - want)) < 1e-10

    def test_closed_form(self, rng):
        # (1 + p z + eps z^2)/(1 - m z - eps z^2), p, m = (c1 +- eps conj(c1))/2
        zs = 0.4 * np.exp(2j * np.pi * np.arange(16) / 16)
        for c1, eps in [(1.0, 1.0)] + [
            (rng.uniform(0, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
             np.exp(1j * rng.uniform(0, 2 * np.pi))) for _ in range(5)
        ]:
            p, m = (c1 + eps * np.conj(c1)) / 2, (c1 - eps * np.conj(c1)) / 2
            want = (1 + p * zs + eps * zs**2) / (1 - m * zs - eps * zs**2)
            got = evaluate_many(pommerenke_extremal(c1, eps, order=32), zs)
            assert np.max(np.abs(got - want)) < 1e-8

    def test_first_coefficient_matches(self, rng):
        for _ in range(20):
            c1 = (rng.uniform(0, 2)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            eps = np.exp(1j * rng.uniform(0, 2 * np.pi))
            got = pommerenke_extremal(c1, eps, order=6)
            assert abs(got.coeffs[1] - c1) < 1e-10

    def test_equality_contract(self, rng):
        for _ in range(50):
            c1 = (rng.uniform(0, 2)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            eps = np.exp(1j * rng.uniform(0, 2 * np.pi))
            h = pommerenke_extremal(c1, eps, order=8)
            assert abs(check_pommerenke(h).margin) < 1e-9

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameter):
            pommerenke_extremal(2.5, 1.0, order=4)
        with pytest.raises(InvalidParameter):
            pommerenke_extremal(1.0, 0.5, order=4)
        with pytest.raises(OrderTooLow):
            pommerenke_extremal(1.0, 1.0, order=1)
        # NaN passes both range tests, so the parameters refuse it up front
        for c1, eps in ((np.nan, 1.0), (1.0, complex(np.nan, 0.0))):
            with pytest.raises(InvalidParameter, match="finite complex"):
                pommerenke_extremal(c1, eps, order=4)

    @pytest.mark.parametrize("order", [2.5, "4", None])
    def test_order_is_a_count(self, order):
        with pytest.raises(InvalidParameter, match="order must be a nonnegative integer"):
            pommerenke_extremal(1.0, 1.0, order=order)


class TestSchwarzChecks:
    def test_overflow_is_a_computation_error(self):
        # |theta|^2 overflows, so the derivative bound would read -inf
        theta = SchwarzFunction(TruncatedSeries([0.0, 1e-160, 1e160]))
        with np.errstate(all="ignore"), pytest.raises(NonFiniteResult):
            schwarz_checks(theta, radii=(0.3,))

    def test_rotation_is_equality_case(self):
        theta = SchwarzFunction(linear(16))
        magnitude, derivative = schwarz_checks(theta)
        mags = [m for _, m in magnitude.per_index]
        ders = [m for _, m in derivative.per_index]
        assert max(abs(m) for m in mags) < 1e-12
        assert max(abs(m) for m in ders) < 1e-12

    def test_strictly_interior_function_has_slack(self):
        half_square = TruncatedSeries([0.0, 0.0, 0.5] + [0.0] * 6)
        magnitude, derivative = schwarz_checks(SchwarzFunction(half_square))
        assert all(m < 0 for _, m in magnitude.per_index)
        assert all(m < 0 for _, m in derivative.per_index)

    def test_default_grid_shape(self):
        # four circles, 0.3, 0.6, 0.9 and 0.95, of 64 angles each
        for rep in schwarz_checks(SchwarzFunction(linear(8))):
            assert [k for k, _ in rep.per_index] == list(range(4 * 64))
        for rep in schwarz_checks(SchwarzFunction(linear(8)), radii=(0.5,), n_angles=8):
            assert len(rep.per_index) == 8

    @pytest.mark.parametrize("radii", [(0.5, 1.0), (0.0,), ()], ids=["one", "zero", "none"])
    def test_radii_inside_the_disk(self, radii):
        with pytest.raises(InvalidParameter):
            schwarz_checks(SchwarzFunction(linear(8)), radii=radii)

    def test_angle_floor(self):
        with pytest.raises(InvalidParameter):
            schwarz_checks(SchwarzFunction(linear(8)), radii=(0.5,), n_angles=4)

    def test_radii_in_any_order(self):
        # the circles are concatenated as given; their order is not checked
        theta = h_to_schwarz(sample(1, 2, order=16))
        up = schwarz_checks(theta, radii=(0.3, 0.6))
        down = schwarz_checks(theta, radii=(0.6, 0.3))
        for a, b in zip(up, down):
            assert a.margin == b.margin
            swapped = b.per_index[64:] + b.per_index[:64]
            assert [m for _, m in a.per_index] == [m for _, m in swapped]

    def test_subordination_witnesses_pass(self):
        # order 256 keeps the truncation tail under the margin threshold
        # inside r = 0.9; the exact margins are nonnegative by subordination
        for seed in range(10):
            h = sample(seed, seed % 3 + 1, order=256)
            magnitude, derivative = schwarz_checks(h_to_schwarz(h), radii=(0.3, 0.6, 0.9))
            assert magnitude.ok and derivative.ok


class TestMarginOracle:
    """The worst-index reports against the margin lists they replaced:
    margin is the old worst (smallest) margin to the bit, ok agrees with
    the old violation count, and per_index negates the old list."""

    @staticmethod
    def assert_matches(rep, margins, first_label):
        old = margins.tolist()
        assert repr(rep.margin) == repr(min(old))
        assert rep.ok == (not any(m < -VIOLATION_EPS for m in old))
        assert [k for k, _ in rep.per_index] == list(range(first_label, first_label + len(old)))
        assert [m for _, m in rep.per_index] == (-margins).tolist()

    def test_coefficient_and_pommerenke(self):
        for i in range(3000):
            h = sample(i, i % 8 + 1, order=(2, 3, 16, 32)[i % 4])
            self.assert_matches(check_coefficient_bound(h), coefficient_margins(h.coeffs), 1)
            rep = check_pommerenke(h)
            old = pommerenke_margin(complex(h.coeffs[1]), complex(h.coeffs[2]))
            assert repr(rep.margin) == repr(old)
            assert rep.ok == (not old < -VIOLATION_EPS)

    def test_schwarz_witnesses(self):
        zs = np.concatenate([circle(r, 64) for r in (0.3, 0.6, 0.9, 0.95)])
        broken = 0
        for seed in range(40):
            theta = h_to_schwarz(sample(seed, seed % 3 + 1, order=(8, 16, 64, 256)[seed % 4])).series
            vals = evaluate_many(theta, zs)
            dvals = evaluate_many(differentiate(theta), zs)
            reports = schwarz_checks(theta)
            for rep, margins in zip(reports, schwarz_margins(zs, vals, dvals)):
                self.assert_matches(rep, margins, 0)
                broken += not rep.ok
        # low orders break the bounds at the outer radii, so both outcomes occur
        assert 0 < broken < 80

