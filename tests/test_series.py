import cmath
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schlicht import (
    Dilation,
    DiskAutomorphism,
    JanowskiParams,
    NormalizedSeries,
    OmittedValue,
    TruncatedSeries,
    apply,
    compose,
    covering_check,
    differentiate,
    divide,
    evaluate,
    evaluate_many,
    from_starlike,
    injectivity_probe,
    koebe,
    moebius,
    multiply,
    partial_sum,
    pommerenke_extremal,
    preserve,
    principal_log,
    principal_power,
    sample,
    series_from_dict,
    series_to_dict,
    sqrt_even_transform,
)
from schlicht.errors import (
    BranchPointAtOrigin,
    CompositionRequiresVanishingConstant,
    DivisionBySingularSeries,
    InvalidParameter,
    NonFiniteResult,
)
from schlicht.series import (
    constant,
    mobius_recompose,
    require_complex,
    require_count,
    require_real,
)

from oracles import (
    fft_coefficients,
    loop_mobius_recompose,
    loop_principal_log,
    loop_principal_power,
    mp_mobius_recompose,
    naive_compose,
    naive_truncated_product,
    random_coeffs,
)


class TestConstruction:
    def test_coeffs_are_immutable(self):
        f = TruncatedSeries([1.0, 2.0])
        with pytest.raises((ValueError, RuntimeError)):
            f.coeffs[0] = 5.0

    def test_order_is_length_minus_one(self):
        assert TruncatedSeries([1, 2, 3]).order == 2

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameter):
            TruncatedSeries([])

    def test_nonfinite_rejected(self):
        # a computed series that overflows is a failed computation; the
        # same values read from JSON are bad input
        with pytest.raises(NonFiniteResult):
            TruncatedSeries([1.0, np.inf])
        with pytest.raises(InvalidParameter, match="must be finite"):
            series_from_dict({"order": 1, "coeffs": [[0, 0], [float("inf"), 0]]})

    def test_normalized_requires_exact_zero_and_one(self):
        NormalizedSeries([0.0, 1.0, 5.0])
        with pytest.raises(InvalidParameter):
            NormalizedSeries([1e-15, 1.0])
        with pytest.raises(InvalidParameter):
            NormalizedSeries([0.0, 1.0 + 1e-15])

    def test_scalar_operator_sugar(self):
        f = TruncatedSeries([1.0, 2.0])
        g = 2 * f + 1 - f / 2
        assert np.allclose(g.coeffs, [2.5, 3.0])


class TestJson:
    def test_roundtrip(self):
        f = TruncatedSeries([1 + 2j, 3.0, -1j])
        assert np.array_equal(series_from_dict(series_to_dict(f)).coeffs, f.coeffs)

    def test_length_must_match_order(self):
        with pytest.raises(InvalidParameter):
            series_from_dict({"order": 3, "coeffs": [[0.0, 0.0], [1.0, 0.0]]})

    def test_missing_keys(self):
        with pytest.raises(InvalidParameter):
            series_from_dict({"coeffs": [[1.0, 0.0]]})

    def test_bool_order_rejected(self):
        with pytest.raises(InvalidParameter):
            series_from_dict({"order": True, "coeffs": [[0, 0], [1, 0]]})

    @pytest.mark.parametrize("coeffs", [5, None, "ab", {"0": [1, 0]}])
    def test_coeffs_must_be_a_list(self, coeffs):
        with pytest.raises(InvalidParameter, match="coeffs must be a list"):
            series_from_dict({"order": 1, "coeffs": coeffs})

    def test_bool_coefficients_rejected(self):
        # JSON true and false are Python bools, which complex() takes as 1 and 0
        with pytest.raises(InvalidParameter, match="not booleans"):
            series_from_dict({"order": 1, "coeffs": [[0, 0], [True, False]]})

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(InvalidParameter):
            series_from_dict({"order": 1, "coeffs": [[0, 0], [10**400, 0]]})


class TestMultiply:
    def test_difference_of_squares(self):
        p = TruncatedSeries([1.0, 1.0, 0.0])
        q = TruncatedSeries([1.0, -1.0, 0.0])
        assert np.allclose(multiply(p, q).coeffs, [1.0, 0.0, -1.0])

    def test_unit_constant_is_identity(self):
        f = TruncatedSeries([2.0, -1.0, 3.5])
        assert np.array_equal(multiply(f, constant(1.0, 2)).coeffs, f.coeffs)

    def test_truncates_to_min_order(self):
        f = TruncatedSeries([1.0, 1.0, 1.0, 1.0])
        g = TruncatedSeries([1.0, 1.0])
        assert multiply(f, g).order == 1

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_cauchy_product(self, seed, na, nb):
        rng = np.random.default_rng(seed)
        a = random_coeffs(rng, na)
        b = random_coeffs(rng, nb)
        got = multiply(TruncatedSeries(a), TruncatedSeries(b)).coeffs
        want = naive_truncated_product(a, b, min(na, nb))
        assert np.max(np.abs(got - want)) < 1e-12


class TestDivide:
    def test_self_division_gives_unit_constant(self, rng):
        a = TruncatedSeries(random_coeffs(rng, 10) + np.eye(11)[0] * 3)
        q = divide(a, a)
        assert abs(q.coeffs[0] - 1.0) < 1e-12
        assert np.max(np.abs(q.coeffs[1:])) < 1e-10

    def test_zero_constant_divisor_rejected(self):
        with pytest.raises(DivisionBySingularSeries):
            divide(koebe(8), TruncatedSeries([0.0, 1.0]))

    def test_unstable_divisor_rejected(self):
        # |b_0| = 1e-11 passes the constant-term test, but the quotient's
        # coefficients grow like 1e11^k and do not multiply back
        with pytest.raises(DivisionBySingularSeries, match="numerically unstable"):
            divide(koebe(8), TruncatedSeries([1e-11, 1.0] + [0.0] * 7))

    def test_koebe_from_geometric_square(self):
        # z / (1-z)^2 must reproduce a_n = n
        one_minus_z_sq = TruncatedSeries([1.0, -2.0, 1.0] + [0.0] * 6)
        z = TruncatedSeries([0.0, 1.0] + [0.0] * 7)
        q = divide(z, one_minus_z_sq)
        assert np.max(np.abs(q.coeffs - np.arange(9))) < 1e-12

    def test_log_derivative_of_koebe(self):
        # z k'(z) / k(z) = k'(z) / (k(z)/z) = (1+z)/(1-z)
        k = koebe(16)
        q = divide(differentiate(k), TruncatedSeries(k.coeffs[1:]))
        assert np.max(np.abs(q.coeffs - moebius(15).coeffs)) < 1e-10

    @given(st.integers(0, 2**32 - 1), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_multiply_back_roundtrip(self, seed, order):
        rng = np.random.default_rng(seed)
        a = TruncatedSeries(random_coeffs(rng, order))
        b_coeffs = random_coeffs(rng, order)
        b_coeffs[0] += 3.0  # keep the divisor comfortably nonsingular
        b = TruncatedSeries(b_coeffs)
        back = multiply(divide(a, b), b)
        assert np.max(np.abs(back.coeffs - a.coeffs)) < 1e-9


class TestCompose:
    def test_identity_inner(self):
        f = TruncatedSeries([2.0, 1.0, -1.0, 0.5])
        z = TruncatedSeries([0.0, 1.0, 0.0, 0.0])
        assert np.allclose(compose(f, z).coeffs, f.coeffs)

    def test_moebius_at_minus_z(self):
        # (1-z)/(1+z) alternates 1, -2, 2, -2, ...
        m = moebius(8)
        neg = TruncatedSeries(np.concatenate([[0.0, -1.0], np.zeros(7)]))
        got = compose(m, neg).coeffs
        want = np.array([1.0] + [-2.0, 2.0] * 4)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_koebe_at_half_z(self):
        k = koebe(4)
        half = TruncatedSeries([0.0, 0.5, 0.0, 0.0, 0.0])
        got = compose(k, half)
        want = np.arange(5) * 0.5 ** np.arange(5)
        assert np.max(np.abs(got.coeffs - want)) < 1e-12
        # evaluation agreement at sample points (inner is a monomial, so
        # the truncated composition evaluates exactly like f(z/2))
        zs = 0.6 * np.exp(2j * np.pi * np.arange(10) / 10)
        assert np.max(np.abs(evaluate_many(got, zs) - evaluate_many(k, 0.5 * zs))) < 1e-9

    def test_nonvanishing_inner_rejected(self):
        with pytest.raises(CompositionRequiresVanishingConstant):
            compose(koebe(4), TruncatedSeries([0.1, 1.0, 0.0, 0.0, 0.0]))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_composition(self, seed, order):
        rng = np.random.default_rng(seed)
        outer = random_coeffs(rng, order)
        inner = random_coeffs(rng, order)
        inner[0] = 0.0
        got = compose(TruncatedSeries(outer), TruncatedSeries(inner)).coeffs
        want = naive_compose(outer, inner, order)
        # Rounding in coefficient k scales with M_k, the coefficient of the
        # composition of the absolute-value series; unit-normal inputs give
        # M_k near 1e4 at order 8.
        majorant = naive_compose(np.abs(outer), np.abs(inner), order).real
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, majorant))

    def test_associativity(self, rng):
        order = 16
        fs = []
        for _ in range(3):
            c = random_coeffs(rng, order, scale=0.4)
            c[0] = 0.0
            fs.append(TruncatedSeries(c))
        f, g, h = fs
        left = compose(compose(f, g), h)
        right = compose(f, compose(g, h))
        assert np.max(np.abs(left.coeffs - right.coeffs)) < 1e-9


class TestCalculus:
    def test_differentiate_linear(self):
        f = TruncatedSeries([0.0, 1.0, 2.0])
        assert np.allclose(differentiate(f).coeffs, [1.0, 4.0])

    def test_differentiate_koebe_gives_squares(self):
        d = differentiate(koebe(8)).coeffs
        assert np.max(np.abs(d - np.arange(1, 9) ** 2)) < 1e-12

    def test_integrate_then_differentiate(self, rng):
        c = random_coeffs(rng, 12)
        c[0] = 0.0
        f = TruncatedSeries(c)
        d = differentiate(f).coeffs
        back = TruncatedSeries(np.concatenate([[0.0], d / np.arange(1, len(d) + 1)]))
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12


class TestPrincipalBranch:
    def test_power_one_is_identity(self, rng):
        a = TruncatedSeries(random_coeffs(rng, 8) + np.eye(9)[0] * 2)
        assert np.max(np.abs(principal_power(a, 1.0).coeffs - a.coeffs)) < 1e-12

    def test_power_of_unit_constant(self):
        got = principal_power(constant(1.0, 5), 0.37)
        assert np.allclose(got.coeffs, constant(1.0, 5).coeffs)

    def test_sqrt_of_moebius_series(self):
        # ((1+z)/(1-z))^(1/2) = 1 + z + z^2/2 + z^3/2 + ...; the sign of
        # the quadratic term is pinned by the evaluation oracle below.
        got = principal_power(moebius(3), 0.5)
        want = fft_coefficients(lambda zs: np.sqrt((1 + zs) / (1 - zs)), 3, radius=0.3)
        assert np.max(np.abs(got.coeffs - want)) < 1e-9
        assert abs(got.coeffs[2] - 0.5) < 1e-12

    def test_branch_point_rejected(self):
        with pytest.raises(BranchPointAtOrigin):
            principal_power(TruncatedSeries([0.0, 1.0]), 0.5)
        with pytest.raises(BranchPointAtOrigin):
            principal_power(TruncatedSeries([-2.0, 1.0]), 0.5)

    def test_log_of_moebius(self):
        # log((1+z)/(1-z)) = 2(z + z^3/3 + z^5/5 + ...)
        got = principal_log(moebius(7)).coeffs
        want = np.zeros(8, dtype=complex)
        want[1::2] = 2.0 / np.arange(1, 8, 2)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_log_constant_term_uses_principal_branch(self):
        a = TruncatedSeries([2j, 1.0])
        assert abs(principal_log(a).coeffs[0] - cmath.log(2j)) < 1e-14

    @given(st.integers(0, 2**32 - 1), st.floats(-2.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_log_of_power_scales(self, seed, t):
        rng = np.random.default_rng(seed)
        c = random_coeffs(rng, 8, scale=0.3)
        c[0] = 1.5  # positive real constant term keeps the branch tame
        a = TruncatedSeries(c)
        left = principal_log(principal_power(a, t)).coeffs
        right = t * principal_log(a).coeffs
        assert np.max(np.abs(left - right)) < 1e-9


class TestSqrtEvenTransform:
    def test_identity_fixed_point(self):
        got = sqrt_even_transform(NormalizedSeries([0.0, 1.0]))
        assert got.order == 1
        assert np.allclose(got.coeffs, [0.0, 1.0])

    def test_koebe_gives_odd_geometric(self):
        got = sqrt_even_transform(koebe(4))
        assert got.order == 7
        assert np.max(np.abs(got.coeffs - [0, 1, 0, 1, 0, 1, 0, 1])) < 1e-12

    def test_square_reproduces_f_of_z_squared(self, rng):
        c = random_coeffs(rng, 6, scale=0.5)
        c[0] = 0.0
        c[1] = 1.0
        f = NormalizedSeries(c)
        g = sqrt_even_transform(f)
        gg = multiply(g, g)
        want = np.zeros(gg.order + 1, dtype=complex)
        want[2::2] = c[1 : gg.order // 2 + 1]
        assert np.max(np.abs(gg.coeffs - want)) < 1e-10

    def test_even_coefficients_vanish(self, rng):
        c = random_coeffs(rng, 9, scale=0.5)
        c[0] = 0.0
        c[1] = 1.0
        g = sqrt_even_transform(NormalizedSeries(c))
        assert np.max(np.abs(g.coeffs[::2])) < 1e-14
        assert g.coeffs[1] == 1.0


class TestEvaluate:
    def test_moebius_at_half(self):
        assert abs(evaluate(moebius(64), 0.5) - 3.0) < 1e-9

    def test_at_zero_returns_constant_term(self, rng):
        c = random_coeffs(rng, 5)
        assert evaluate(TruncatedSeries(c), 0.0) == c[0]

    def test_koebe_at_minus_half(self):
        got = evaluate(koebe(64), -0.5 + 0j)
        assert abs(got - (-0.5) / 2.25) < 1e-6

    def test_moebius_at_half_i(self):
        got = evaluate(moebius(64), 0.5j)
        assert abs(got - (0.6 + 0.8j)) < 1e-8

    def test_evaluate_many_matches_scalar(self, rng):
        f = TruncatedSeries(random_coeffs(rng, 12))
        zs = 0.7 * np.exp(2j * np.pi * np.arange(9) / 9)
        many = evaluate_many(f, zs)
        for z, w in zip(zs, many):
            assert abs(evaluate(f, z) - w) < 1e-13


class TestMobiusRecompose:
    @pytest.mark.parametrize(
        "sigma", [0.05 * cmath.exp(0.3j), 0.1, 0.45 * cmath.exp(2j), 0.8 * cmath.exp(1j)]
    )
    def test_matches_high_precision_reference(self, sigma):
        pytest.importorskip("mpmath")
        f = apply(Dilation(0.9), from_starlike(sample(5, 4, order=96)))
        got = mobius_recompose(f, sigma).coeffs
        want = mp_mobius_recompose(f.coeffs, sigma)
        assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("sigma", [0.5, -0.5j, 0.5 * cmath.exp(2j), 0.3 + 0.1j, 0.05])
    def test_inverse_center_round_trip(self, sigma):
        # the truncated tail of f(w) feeds back into low coefficients on the
        # way back, so f is dilated until that tail sits below rounding
        f = apply(Dilation(0.1), from_starlike(sample(3, 5, order=64)))
        back = mobius_recompose(mobius_recompose(f, sigma), -sigma)
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12


@pytest.mark.parametrize("kernel", [evaluate, evaluate_many, mobius_recompose])
@pytest.mark.parametrize(
    "value",
    ["0.5", None, float("nan"), complex("inf"), True, False, [0.5, None], [0.5, complex("inf")],
     np.array([True, False]), [[0.5], [0.5, 0.5]]],
)
def test_point_and_centre_are_checked(kernel, value):
    # a string, None or a bool is not a point of the disk, and a
    # non-finite one is bad input, not a failed computation; nor is an
    # array of points that holds one, or points nested raggedly
    with pytest.raises(InvalidParameter, match="must be a finite complex number"):
        kernel(koebe(8), value)


@pytest.mark.parametrize(
    "recenter",
    [lambda s: DiskAutomorphism(s), lambda s: mobius_recompose(koebe(8), s),
     lambda s: preserve("recenter", moebius(8), s)],
    ids=["DiskAutomorphism", "mobius_recompose", "preserve"],
)
@pytest.mark.parametrize("sigma", [1.0, -1j, 0.6 + 0.8j, 1.5])
def test_centre_off_the_open_disk_is_refused(recenter, sigma):
    with pytest.raises(InvalidParameter, match=r"automorphism center must satisfy \|sigma\| < 1"):
        recenter(sigma)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=complex).view(np.uint64).tobytes()


class TestKernelsMatchTheirLoops:
    """The kernels give the bits of the plain loops kept in oracles.py, at
    orders on both sides of mobius_recompose's 64-anti-diagonal blocks."""

    ORDERS = [1, 2, 63, 64, 65, 129, 255, 256, 300]

    # every block of d <= N ends at a multiple of 64 or at N, and every
    # block of d > N at N + a multiple of 64 or at 2N
    @pytest.mark.parametrize("order", ORDERS + [127, 128, 191, 192, 193, 320])
    @pytest.mark.parametrize(
        "sigma", [1e-3, 0.095j, 0.99 * cmath.exp(2.3j)], ids=["tiny", "imaginary", "near-edge"]
    )
    def test_mobius_recompose_on_seeded_series(self, order, sigma):
        # sigma = 1e-3 drives the powers of w through subnormals
        c = random_coeffs(np.random.default_rng(order), order)
        got = mobius_recompose(TruncatedSeries(c), sigma).coeffs
        assert _bits(got) == _bits(loop_mobius_recompose(c, sigma))

    @pytest.mark.parametrize("order", [64, 193, 256])
    def test_mobius_recompose_on_a_dilated_starlike(self, order):
        # the near centre of the transform chain, |sigma| in [0.09, 0.1],
        # on the kind of series it recentres
        f = apply(Dilation(0.5), from_starlike(sample(7, 5, order=order)))
        sigma = 0.095 * cmath.exp(0.7j)
        got = mobius_recompose(f, sigma).coeffs
        assert _bits(got) == _bits(loop_mobius_recompose(f.coeffs, sigma))

    @pytest.mark.parametrize("sigma", [0.999 * cmath.exp(2.3j), 1e-3], ids=["near-edge", "tiny"])
    def test_mobius_recompose_at_the_largest_order(self, sigma):
        # a block of d > N also steps entries with k > N, which no output
        # reads; they must stay finite, or inf * 0 would turn the flush's
        # padding products into NaN
        c = random_coeffs(np.random.default_rng(4096), 4096)
        with np.errstate(over="raise", invalid="raise"):
            got = mobius_recompose(TruncatedSeries(c), sigma).coeffs
        assert _bits(got) == _bits(loop_mobius_recompose(c, sigma))

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("sigma", [0.5, -0.5])
    def test_mobius_recompose_real_centre_on_koebe(self, order, sigma):
        # real coefficients and a real centre: every imaginary part is a
        # signed zero
        f = koebe(order)
        got = mobius_recompose(f, sigma).coeffs
        assert _bits(got) == _bits(loop_mobius_recompose(f.coeffs, sigma))

    @pytest.mark.parametrize("order", [1, 5, 64, 130])
    @pytest.mark.parametrize("sigma", [0.5, -0.5j, 1e-3])
    def test_mobius_recompose_keeps_negative_zeros(self, order, sigma):
        # with c_0 and every c_k equal to -0.0, output[0] is a sum of signed
        # zeros that stays -0.0 in a part only if no +0.0 is ever added
        c = np.full(order + 1, complex(-0.0, -0.0))
        got = mobius_recompose(TruncatedSeries(c), sigma).coeffs
        assert _bits(got) == _bits(loop_mobius_recompose(c, sigma))

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("t", [0.5, -1, 1 / 3, 2])
    def test_principal_power(self, order, t):
        a = random_coeffs(np.random.default_rng(order), order, scale=0.3)
        a[0] = 1.0 + 0.2j
        got = principal_power(TruncatedSeries(a), t).coeffs
        assert _bits(got) == _bits(loop_principal_power(a, t))

    @pytest.mark.parametrize("order", ORDERS)
    def test_principal_log(self, order):
        a = random_coeffs(np.random.default_rng(order), order, scale=0.3)
        a[0] = 0.7 - 0.4j
        got = principal_log(TruncatedSeries(a)).coeffs
        assert _bits(got) == _bits(loop_principal_log(a))


class TestKernelMemory:
    @pytest.mark.parametrize(
        "kernel", [lambda f: mobius_recompose(f, 0.3 + 0.2j), lambda f: principal_power(f, 0.5)],
        ids=["mobius_recompose", "principal_power"],
    )
    def test_peak_at_the_largest_order(self, kernel):
        # an (N + 1)^2 complex table at the CLI's largest order, 4096,
        # would take 268 MB
        c = random_coeffs(np.random.default_rng(4096), 4096) / np.arange(1, 4098)
        c[0] = 1.0
        f = TruncatedSeries(c)
        tracemalloc.start()
        try:
            kernel(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestParameterChecks:
    @pytest.mark.parametrize("bad", [True, False, 1.0, "3", None, -1])
    def test_count_refuses_non_counts(self, bad):
        with pytest.raises(InvalidParameter, match="nonnegative integer"):
            require_count(bad, "n")

    def test_count_bounds(self):
        assert require_count(np.int64(3), "n") == 3
        with pytest.raises(InvalidParameter, match="positive integer"):
            require_count(0, "q", positive=True)
        assert require_count(5, "n", most=5) == 5
        with pytest.raises(InvalidParameter, match="at most 5"):
            require_count(6, "n", most=5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1j, "0.5", None, True, False])
    def test_real_refuses_non_finite_and_non_real(self, bad):
        with pytest.raises(InvalidParameter, match="finite real number"):
            require_real(bad, "t")

    @pytest.mark.parametrize("bad", [complex("nan"), complex("infj"), float("inf"),
                                     "0.5+1j", None, True, False])
    def test_complex_refuses_non_finite_and_non_numbers(self, bad):
        with pytest.raises(InvalidParameter, match="finite complex number"):
            require_complex(bad, "xi")

    @pytest.mark.parametrize("call", [
        lambda: OmittedValue(True),
        lambda: covering_check(koebe(4), True),
        lambda: pommerenke_extremal(True, 1),
    ], ids=["omitted_value", "covering_check", "pommerenke_extremal"])
    def test_bool_is_not_a_complex_parameter(self, call):
        # bool is a numbers.Complex; True must not pass as 1
        with pytest.raises(InvalidParameter, match="finite complex number"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: injectivity_probe(koebe(8), 0.5, "x"),
        lambda: partial_sum(koebe(8), True),
        lambda: partial_sum(koebe(8), 2.0),
        lambda: principal_power(moebius(8), True),
        lambda: principal_power(moebius(8), "x"),
        lambda: JanowskiParams(True, False),
        lambda: JanowskiParams("x", 0.0),
        lambda: JanowskiParams(0.5, "x"),
    ], ids=["injectivity_angles_str", "partial_sum_bool", "partial_sum_float",
            "power_bool", "power_str", "janowski_bools", "janowski_a_str", "janowski_b_str"])
    def test_shared_validators_refuse(self, call):
        with pytest.raises(InvalidParameter):
            call()

    def test_shared_validators_accept_numpy_scalars(self):
        assert injectivity_probe(koebe(8), 0.4, np.int64(64))
        assert np.array_equal(partial_sum(koebe(8), np.int64(2)).coeffs, [0, 1, 2])
        got = principal_power(moebius(8), np.float64(0.5)).coeffs
        assert got.tobytes() == principal_power(moebius(8), 0.5).coeffs.tobytes()
        params = JanowskiParams(np.float64(0.5), np.int64(-1))
        assert (params.a, params.b) == (0.5, -1.0)

    def test_complex_accepts_reals_and_numpy_scalars(self):
        assert require_complex(2, "xi") == 2 + 0j
        assert require_complex(np.complex128(0.5 - 1j), "xi") == 0.5 - 1j
