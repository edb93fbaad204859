import numpy as np
import pytest

from schlicht import (
    Bernardi,
    Conjugation,
    Dilation,
    DiskAutomorphism,
    Libera,
    LinearSum,
    OmittedValue,
    RangeCompose,
    Rotation,
    SquareRoot,
    apply,
    bernardi,
    circle_values,
    convolve,
    evaluate_many,
    hankel,
    identity,
    iterate_alpha,
    iterate_sigma,
    koebe,
    libera,
    linear_sum,
    moebius,
    sample,
    sqrt_even_transform,
    turning_extremal,
)
from schlicht import transforms
from schlicht.errors import (
    InvalidParameter,
    NotCaratheodoryNormalized,
    OmittedValueAttained,
)
from schlicht.series import TruncatedSeries, constant, require_real

from oracles import quadrature_coefficient_map, random_normalized_coeffs


def hadamard_unit(order: int) -> TruncatedSeries:
    # z/(1-z): the all-ones multiplier, identity for the coefficient product
    c = np.ones(order + 1, dtype=complex)
    c[0] = 0.0
    return TruncatedSeries(c)


class TestSpecValidation:
    def test_rotation_needs_real_angle(self):
        with pytest.raises(InvalidParameter):
            Rotation(1j)

    def test_rotation_angle_is_not_a_bool(self):
        with pytest.raises(InvalidParameter, match="theta must be a finite real number"):
            Rotation(False)

    def test_dilation_domain(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(InvalidParameter):
                Dilation(bad)

    def test_automorphism_center_inside_disk(self):
        with pytest.raises(InvalidParameter):
            DiskAutomorphism(1.0)

    def test_omitted_value_nonzero(self):
        with pytest.raises(InvalidParameter):
            OmittedValue(0)

    @pytest.mark.parametrize("bad", [complex("nan"), complex("nan+0.5j"), complex("inf")])
    def test_complex_parameters_finite(self, bad):
        # NaN passes |sigma| < 1 and xi != 0, so both refuse it up front
        with pytest.raises(InvalidParameter, match="finite complex number"):
            DiskAutomorphism(bad)
        with pytest.raises(InvalidParameter, match="finite complex number"):
            OmittedValue(bad)

    def test_bernardi_gamma_domain(self):
        with pytest.raises(InvalidParameter):
            Bernardi(-1.0)

    def test_linear_sum_weight_domain(self):
        with pytest.raises(InvalidParameter):
            LinearSum(1.5, identity(8))

    def test_linear_sum_weight_is_not_a_bool(self):
        with pytest.raises(InvalidParameter, match="t must be a finite real number"):
            LinearSum(True, koebe(4))

    def test_range_compose_needs_normalized(self):
        with pytest.raises(InvalidParameter):
            RangeCompose(moebius(8))

    def test_apply_needs_normalized_input(self):
        with pytest.raises(InvalidParameter):
            apply(Rotation(1.0), moebius(8))


class TestRotation:
    def test_half_turn_alternates_koebe(self):
        got = apply(Rotation(np.pi), koebe(16)).coeffs
        k = np.arange(17, dtype=float)
        want = (-1.0) ** (k + 1) * k
        want[1] = 1.0
        assert np.max(np.abs(got - want)) < 1e-10

    def test_roundtrip_is_identity(self, rng):
        f = TruncatedSeries(random_normalized_coeffs(rng, 24))
        theta = 1.234
        back = apply(Rotation(-theta), apply(Rotation(theta), f))
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12

    def test_output_normalized_exactly(self):
        got = apply(Rotation(0.7), koebe(8))
        assert got.coeffs[0] == 0.0
        assert got.coeffs[1] == 1.0


class TestDilation:
    def test_identity_is_fixed(self):
        for r in (0.3, 0.9):
            got = apply(Dilation(r), identity(12))
            assert np.array_equal(got.coeffs, identity(12).coeffs)

    def test_matches_pointwise_definition(self):
        r = 0.6
        f = koebe(32)
        got = apply(Dilation(r), f)
        zs = 0.5 * np.exp(2j * np.pi * np.arange(16) / 16)
        want = evaluate_many(f, r * zs) / r
        assert np.max(np.abs(evaluate_many(got, zs) - want)) < 1e-12


class TestConjugation:
    def test_conjugates_coefficients(self):
        f = apply(Rotation(0.9), koebe(10))
        got = apply(Conjugation(), f)
        assert np.array_equal(got.coeffs, np.conj(f.coeffs))

    def test_involution(self):
        f = apply(Rotation(0.4), koebe(10))
        assert np.array_equal(apply(Conjugation(), apply(Conjugation(), f)).coeffs, f.coeffs)

    def test_real_coefficients_fixed(self):
        assert np.array_equal(apply(Conjugation(), koebe(8)).coeffs, koebe(8).coeffs)


class TestDiskAutomorphism:
    def test_output_normalized(self):
        got = apply(DiskAutomorphism(0.3), koebe(32))
        assert got.coeffs[0] == 0.0
        assert abs(got.coeffs[1] - 1.0) < 1e-10

    def test_matches_pointwise_definition(self):
        for sigma in (0.3, 0.2 + 0.25j):
            f = koebe(64)
            got = apply(DiskAutomorphism(sigma), f)
            zs = 0.4 * np.exp(2j * np.pi * np.arange(16) / 16)
            w = (zs + sigma) / (1 + np.conj(sigma) * zs)
            fw = w / (1 - w) ** 2
            fs = sigma / (1 - sigma) ** 2
            fps = (1 + sigma) / (1 - sigma) ** 3
            want = (fw - fs) / ((1 - abs(sigma) ** 2) * fps)
            assert np.max(np.abs(evaluate_many(got, zs) - want)) < 1e-9

    def test_zero_center_is_identity(self):
        f = koebe(16)
        assert np.array_equal(apply(DiskAutomorphism(0.0), f).coeffs, f.coeffs)

    def test_critical_center_rejected(self):
        # the derivative of z + 2z^2 vanishes at -1/4
        f = TruncatedSeries([0.0, 1.0, 2.0])
        with pytest.raises(InvalidParameter, match="derivative vanishes"):
            apply(DiskAutomorphism(-0.25), f)


class TestOmittedValue:
    def test_koebe_quarter_point(self):
        got = apply(OmittedValue(-0.25), koebe(16))
        # second coefficient shifts by 1/xi: 2 + (-4) = -2, magnitude exactly 2
        assert abs(got.coeffs[2] - (-2.0)) < 1e-12
        assert abs(abs(got.coeffs[2]) - 2.0) < 1e-12

    def test_second_coefficient_shift_general(self, rng):
        f = TruncatedSeries(random_normalized_coeffs(rng, 16))
        xi = 5.0 + 5.0j
        got = apply(OmittedValue(xi), f)
        assert abs(got.coeffs[2] - (f.coeffs[2] + 1.0 / xi)) < 1e-12

    def test_attained_value_detected(self):
        f = koebe(64)
        xi = complex(evaluate_many(f, np.array([0.3]))[0])
        with pytest.raises(OmittedValueAttained):
            apply(OmittedValue(xi), f)

    # koebe takes 0.3 at z = 0.195..., off every sampled point
    @pytest.mark.parametrize("f, xi", [(koebe(16), 0.3), (identity(8), 0.6)])
    def test_value_attained_off_the_samples(self, f, xi):
        with pytest.raises(OmittedValueAttained):
            apply(OmittedValue(xi), f)

    def test_truncation_zeros_near_the_rim_ignored(self):
        # koebe omits -0.3, though its order-64 truncation takes it
        # 12 times inside |z| = 0.9
        got = apply(OmittedValue(-0.3), koebe(64))
        assert abs(got.coeffs[2] - (2.0 - 1.0 / 0.3)) < 1e-12

    def test_unknown_spec_rejected(self):
        with pytest.raises(InvalidParameter):
            apply(0.5, koebe(8))


class TestSquareRoot:
    def test_koebe_gives_odd_geometric(self):
        got = apply(SquareRoot(), koebe(8)).coeffs
        want = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0], dtype=complex)
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("order", [*range(1, 41), 255, 256, 257])
    def test_agrees_with_series_transform(self, order):
        # bit for bit, although apply first cuts f to order ceil((N + 1)/2)
        c = random_normalized_coeffs(np.random.default_rng(order), order)
        f = TruncatedSeries(c * 0.9 ** (np.arange(order + 1) - 1.0))
        got = apply(SquareRoot(), f).coeffs
        want = sqrt_even_transform(f).coeffs[: order + 1]
        assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()


class TestRangeCompose:
    def test_identity_inner_and_outer(self):
        f = koebe(16)
        assert np.max(np.abs(apply(RangeCompose(identity(16)), f).coeffs - f.coeffs)) < 1e-12

    def test_matches_pointwise_composition(self):
        f = apply(Dilation(0.25), koebe(48))
        phi = koebe(48)
        got = apply(RangeCompose(phi), f)
        zs = 0.3 * np.exp(2j * np.pi * np.arange(12) / 12)
        inner = evaluate_many(f, zs)
        want = inner / (1 - inner) ** 2
        assert np.max(np.abs(evaluate_many(got, zs) - want)) < 1e-8


class TestLibera:
    def test_identity_fixed(self):
        got = libera(identity(10))
        assert np.array_equal(got.coeffs, identity(10).coeffs)

    def test_koebe_coefficients(self):
        got = libera(koebe(32)).coeffs
        k = np.arange(1, 33, dtype=float)
        want = np.concatenate([[0.0], 2.0 * k / (k + 1.0)])
        assert np.max(np.abs(got - want)) < 1e-14

    def test_koebe_against_quadrature(self):
        f = koebe(8)
        want = quadrature_coefficient_map(f.coeffs, [1.0], prefactor=2.0)
        assert np.max(np.abs(libera(f).coeffs - want)) < 1e-8

    def test_is_convolution_with_kernel(self, rng):
        f = TruncatedSeries(random_normalized_coeffs(rng, 24))
        # z + sum_{k>=2} 2/(k+1) z^k
        kernel = np.zeros(25, dtype=complex)
        kernel[1:] = 2.0 / (np.arange(1, 25) + 1.0)
        via_kernel = convolve(TruncatedSeries(kernel), f)
        assert np.array_equal(libera(f).coeffs, via_kernel.coeffs)

    def test_apply_dispatch(self):
        assert np.array_equal(apply(Libera(), koebe(8)).coeffs, libera(koebe(8)).coeffs)


class TestBernardi:
    def test_gamma_one_is_libera(self, rng):
        f = TruncatedSeries(random_normalized_coeffs(rng, 16))
        assert np.array_equal(bernardi(f, 1.0).coeffs, libera(f).coeffs)

    def test_identity_fixed_for_any_gamma(self):
        for gamma in (0.5, 2.0, 7.0):
            got = bernardi(identity(8), gamma)
            assert np.array_equal(got.coeffs, identity(8).coeffs)

    def test_koebe_gamma_two(self):
        got = bernardi(koebe(24), 2.0).coeffs
        k = np.arange(1, 25, dtype=float)
        want = np.concatenate([[0.0], 3.0 * k / (k + 2.0)])
        assert np.max(np.abs(got - want)) < 1e-14

    def test_against_quadrature(self):
        f = koebe(8)
        for gamma in (0.5, 2.0):
            want = quadrature_coefficient_map(
                f.coeffs, [gamma], prefactor=(1.0 + gamma) / gamma
            )
            assert np.max(np.abs(bernardi(f, gamma).coeffs - want)) < 1e-8

    def test_gamma_domain(self):
        with pytest.raises(InvalidParameter):
            bernardi(identity(4), -1.0)


class TestConvolve:
    def test_unit_element(self, rng):
        f = TruncatedSeries(random_normalized_coeffs(rng, 20))
        assert np.array_equal(convolve(f, hadamard_unit(20)).coeffs, f.coeffs)

    def test_koebe_squared(self):
        got = convolve(koebe(16), koebe(16)).coeffs
        want = np.arange(17, dtype=float) ** 2
        assert np.array_equal(got, want.astype(complex))

    def test_commutative(self, rng):
        # complex multiply picks up FMA contraction, so swap order only
        # agrees to rounding on irrational data; integer data is exact
        a = TruncatedSeries(rng.normal(size=12) + 1j * rng.normal(size=12))
        b = TruncatedSeries(rng.normal(size=12) + 1j * rng.normal(size=12))
        ab, ba = convolve(a, b).coeffs, convolve(b, a).coeffs
        assert np.max(np.abs(ab - ba)) < 1e-13 * np.max(np.abs(ab) + 1)
        assert np.array_equal(
            convolve(koebe(10), hadamard_unit(10)).coeffs,
            convolve(hadamard_unit(10), koebe(10)).coeffs,
        )

    def test_associative(self, rng):
        a = TruncatedSeries(rng.normal(size=12) + 1j * rng.normal(size=12))
        b = TruncatedSeries(rng.normal(size=12) + 1j * rng.normal(size=12))
        c = TruncatedSeries(rng.normal(size=12) + 1j * rng.normal(size=12))
        left = convolve(convolve(a, b), c).coeffs
        right = convolve(a, convolve(b, c)).coeffs
        assert np.max(np.abs(left - right)) < 1e-13 * np.max(np.abs(left) + 1)

    def test_associative_exact_on_integer_coefficients(self):
        a, b, c = koebe(10), koebe(10), hadamard_unit(10)
        left = convolve(convolve(a, b), c).coeffs
        right = convolve(a, convolve(b, c)).coeffs
        assert np.array_equal(left, right)

    def test_truncates_to_min_order(self):
        got = convolve(koebe(6), koebe(12))
        assert got.order == 6


class TestLinearSum:
    def test_endpoints(self):
        phi, psi = koebe(12), turning_extremal(12)
        assert np.array_equal(linear_sum(phi, psi, 0.0).coeffs, phi.coeffs)
        assert np.array_equal(linear_sum(phi, psi, 1.0).coeffs, psi.coeffs)

    def test_halfway_between_moebius_and_one_stays_positive(self):
        got = linear_sum(moebius(64), constant(1.0, 64), 0.5)
        assert np.max(np.abs(got.coeffs[1:] - 1.0)) < 1e-15
        assert circle_values(got, 0.9, 256).real.min() > 0.0

    def test_weight_domain(self):
        with pytest.raises(InvalidParameter):
            linear_sum(koebe(4), koebe(4), -0.1)

    def test_apply_dispatch(self):
        phi, psi = koebe(8), identity(8)
        got = apply(LinearSum(0.25, psi), phi)
        assert np.max(np.abs(got.coeffs - linear_sum(phi, psi, 0.25).coeffs)) == 0.0

    def test_apply_checks_the_weight_once(self, monkeypatch):
        checked = []

        def spy(x, what):
            checked.append(what)
            return require_real(x, what)

        monkeypatch.setattr(transforms, "require_real", spy)
        apply(LinearSum(0.25, identity(8)), koebe(8))
        assert checked == ["t"]


class TestIterateAlpha:
    def test_zero_iterations_is_identity(self):
        p = moebius(10)
        assert np.array_equal(iterate_alpha(p, 2.5, 0).coeffs, p.coeffs)

    def test_single_averaging_of_moebius(self):
        got = iterate_alpha(moebius(16), 1.0, 1).coeffs
        k = np.arange(17, dtype=float)
        want = 2.0 / (k + 1.0)
        want[0] = 1.0
        assert np.max(np.abs(got - want)) < 1e-15

    def test_threefold_alpha_two(self):
        got = iterate_alpha(moebius(12), 2.0, 3).coeffs
        k = np.arange(13, dtype=float)
        want = 2.0 * (2.0 / (2.0 + k)) ** 3
        want[0] = 1.0
        assert np.max(np.abs(got - want)) < 1e-12

    def test_against_nfold_quadrature(self):
        p = moebius(8)
        for alpha, n in ((1.0, 1), (2.0, 3), (1.0, 3), (2.0, 1)):
            want = quadrature_coefficient_map(p.coeffs, [alpha] * n)
            got = iterate_alpha(p, alpha, n).coeffs
            assert np.max(np.abs(got - want)) < 1e-8

    def test_semigroup_exact(self):
        p = sample(3, 4, order=24)
        two_step = iterate_alpha(iterate_alpha(p, 1.5, 1), 1.5, 2)
        assert np.array_equal(two_step.coeffs, iterate_alpha(p, 1.5, 3).coeffs)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameter):
            iterate_alpha(moebius(4), 0.0, 1)
        with pytest.raises(InvalidParameter):
            iterate_alpha(moebius(4), 1.0, -1)
        with pytest.raises(InvalidParameter):
            iterate_alpha(moebius(4), 1.0, 1.5)
        with pytest.raises(NotCaratheodoryNormalized):
            iterate_alpha(koebe(4), 1.0, 1)


class TestIterateSigma:
    def test_zero_iterations_is_identity(self):
        p = moebius(10)
        assert np.array_equal(iterate_sigma(p, 3.0, 0).coeffs, p.coeffs)

    def test_single_stage_matches_alpha(self):
        a = iterate_sigma(moebius(16), 1.0, 1).coeffs
        b = iterate_alpha(moebius(16), 1.0, 1).coeffs
        assert np.array_equal(a, b)

    def test_two_stages_sigma_three(self):
        got = iterate_sigma(moebius(12), 3.0, 2).coeffs
        k = np.arange(13, dtype=float)
        want = 2.0 * (3.0 / (3.0 + k)) * (2.0 / (2.0 + k))
        want[0] = 1.0
        assert np.max(np.abs(got - want)) < 1e-12

    def test_against_staged_quadrature(self):
        p = moebius(8)
        want = quadrature_coefficient_map(p.coeffs, [3.0, 2.0])
        got = iterate_sigma(p, 3.0, 2).coeffs
        assert np.max(np.abs(got - want)) < 1e-8

    def test_stage_exponent_must_stay_positive(self):
        with pytest.raises(InvalidParameter):
            iterate_sigma(moebius(8), 0.5, 2)
        with pytest.raises(InvalidParameter):
            iterate_sigma(moebius(8), 2.0, 3)

    def test_requires_unit_constant(self):
        with pytest.raises(NotCaratheodoryNormalized):
            iterate_sigma(koebe(4), 3.0, 2)


class TestPositivityPreservation:
    def test_averaging_maps_keep_positive_real_part(self):
        # order 256 keeps truncation below the Harnack floor at r = 0.95
        for seed in range(25):
            h = sample(seed, seed % 6 + 1, order=256)
            other = sample(seed + 1000, 3, order=256)
            outputs = [
                iterate_alpha(h, 2.0, 1),
                iterate_alpha(h, 1.0, 2),
                iterate_sigma(h, 3.0, 2),
                linear_sum(h, other, 0.4),
            ]
            for g in outputs:
                assert circle_values(g, 0.95, 256).real.min() > -1e-9


@pytest.mark.parametrize(
    "call",
    [
        lambda: hankel(koebe(8), True, True),
        lambda: iterate_alpha(moebius(8), 1.0, True),
        lambda: iterate_sigma(moebius(8), 2.0, True),
    ],
    ids=["hankel", "iterate_alpha", "iterate_sigma"],
)
def test_bool_count_rejected(call):
    with pytest.raises(InvalidParameter, match="integer"):
        call()
