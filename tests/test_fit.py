"""Coefficient fitting: exact inversion, weighting, conditioning."""

import warnings

import numpy as np
import pytest

from cavityheat.asymptotics import (
    FitConfig,
    IllPosedFitError,
    fit_coefficients,
    weighted_power_fit,
)
from cavityheat.errors import NumericalError

TRUE = {-1.5: 0.188, -1.0: 0.0, -0.5: -0.752, 0.0: 0.625, 0.5: -0.0287,
        1.0: 0.003125}
# balanced coefficients resolve each basis direction well above the
# float64 information floor of the samples
BALANCED = {-1.5: 1.7, -1.0: -0.8, -0.5: 1.1, 0.0: 0.625, 0.5: -1.3,
            1.0: 0.9}


def exact_samples(config, coeffs=TRUE):
    t = config.t_grid()
    K = sum(c * t ** e for e, c in coeffs.items())
    return t, K, np.full_like(t, 1e-15)


class TestExactRecovery:
    def test_six_coefficient_inverse(self):
        # exact data carries exact bounds, so the solver is weighted by
        # them alone, without the next-order contamination model
        config = FitConfig(t_lo=0.005, t_hi=0.08, n_points=40)
        t, K, bound = exact_samples(config, BALANCED)
        design = np.column_stack([t ** e for e in BALANCED])
        coef, *_ = weighted_power_fit(
            design, K, bound + 1e-14 * np.maximum(np.abs(K), 1.0))
        for got, (e, want) in zip(coef, BALANCED.items()):
            assert got == pytest.approx(want, rel=1e-10), e

    def test_physical_scale_coefficients(self):
        # the cavity-like set has a_4, a_5 four orders below a_0; the
        # recovery is then limited by the float64 content of K(t) itself
        config = FitConfig(t_lo=0.005, t_hi=0.08, n_points=40)
        fit = fit_coefficients(exact_samples(config), config)
        for e, want in TRUE.items():
            got = fit.value(e)
            assert got == pytest.approx(want, rel=1e-7, abs=1e-9), e

    def test_residual_is_tiny(self):
        config = FitConfig(t_lo=0.005, t_hi=0.08, n_points=40)
        fit = fit_coefficients(exact_samples(config), config)
        assert fit.chi2_dof < 1e-6

    def test_pinning_subtracts_before_solving(self):
        config = FitConfig(t_lo=0.005, t_hi=0.08, n_points=40,
                           pinned={-1.0: 0.0, 0.5: -0.0287})
        fit = fit_coefficients(exact_samples(config), config)
        assert fit.value(-1.0) == 0.0
        assert fit.stderr(-1.0) == 0.0
        assert fit.value(0.0) == pytest.approx(0.625, rel=1e-10)
        assert -1.0 not in fit.coefficients

    def test_addressing_by_order(self):
        config = FitConfig(t_lo=0.005, t_hi=0.08, n_points=40)
        fit = fit_coefficients(exact_samples(config), config)
        assert fit.a(3) == pytest.approx(0.625, rel=1e-10)
        assert fit.a(0) == pytest.approx(0.188, rel=1e-10)


class TestValidation:
    def test_window_ordering(self):
        with pytest.raises(ValueError):
            FitConfig(t_lo=0.1, t_hi=0.01)

    def test_exponent_whitelist(self):
        with pytest.raises(ValueError, match="half-power"):
            FitConfig(t_lo=0.01, t_hi=0.1, exponents=(-2.0, 1.0))

    def test_grid_size_floor(self):
        with pytest.raises(ValueError, match="grid points"):
            FitConfig(t_lo=0.01, t_hi=0.1, n_points=8)

    def test_sample_floor_applies_to_the_samples_passed(self):
        # the config's grid has 40 points, but only 3 samples arrive
        config = FitConfig(t_lo=0.005, t_hi=0.08, n_points=40)
        t, K, bound = exact_samples(config)
        with pytest.raises(ValueError, match="grid points"):
            fit_coefficients((t[:3], K[:3], bound[:3]), config)

    def test_unequal_columns_rejected(self):
        config = FitConfig(t_lo=0.005, t_hi=0.08, n_points=40)
        t, K, bound = exact_samples(config)
        with pytest.raises(ValueError, match="differ in length"):
            fit_coefficients((t, K[:-1], bound), config)

    def test_all_pinned_rejected(self):
        config = FitConfig(t_lo=0.01, t_hi=0.1, n_points=12,
                           exponents=(0.0,), pinned={0.0: 1.0})
        with pytest.raises(ValueError, match="free"):
            fit_coefficients(exact_samples(config, {0.0: 1.0}), config)

    def test_ill_posed_window(self):
        # a nearly-degenerate sample window makes the scaled powers of t
        # collinear beyond recovery
        config = FitConfig(t_lo=0.01, t_hi=0.0100001, n_points=40)
        with pytest.raises(IllPosedFitError):
            fit_coefficients(exact_samples(config), config)

    def test_condition_number_reported(self):
        config = FitConfig(t_lo=0.005, t_hi=0.08, n_points=40)
        fit = fit_coefficients(exact_samples(config), config)
        assert fit.condition_number > 1.0
        assert np.isfinite(fit.condition_number)


class TestErrorBars:
    def test_stderr_positive_for_free_coefficients(self):
        config = FitConfig(t_lo=0.005, t_hi=0.08, n_points=40)
        fit = fit_coefficients(exact_samples(config), config)
        assert all(s > 0 for _, s in fit.coefficients.values())

    def test_noise_within_quoted_errors(self):
        rng = np.random.default_rng(5)
        config = FitConfig(t_lo=0.005, t_hi=0.08, n_points=60)
        t, K, _ = exact_samples(config)
        sigma = 1e-6 * np.abs(K)
        K_noisy = K + sigma * rng.standard_normal(len(t))
        fit = fit_coefficients((t, K_noisy, sigma), config)
        for e, want in TRUE.items():
            got, err = fit.coefficients[e]
            assert abs(got - want) < 6 * err, e

    def test_serialisable(self):
        config = FitConfig(t_lo=0.005, t_hi=0.08, n_points=40)
        fit = fit_coefficients(exact_samples(config), config)
        doc = fit.as_dict()
        assert set(doc) >= {"coefficients", "residual_norm",
                            "condition_number", "window"}

    def test_coefficient_keys_are_the_half_powers(self):
        # the exponent of a_3 is +0.0: a key "-0.0" would break fit.json
        config = FitConfig(t_lo=0.005, t_hi=0.08, n_points=40)
        doc = fit_coefficients(exact_samples(config), config).as_dict()
        assert list(doc["coefficients"]) == [
            "-1.5", "-1.0", "-0.5", "0.0", "0.5", "1.0"]


class TestNonFinite:
    """Values beyond the float range raise NumericalError, no warning."""

    CONFIG = FitConfig(t_lo=0.005, t_hi=0.08, n_points=40)

    def fit(self, t_scale=1.0, k_scale=1.0):
        t, K, bound = exact_samples(self.CONFIG)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return fit_coefficients(
                (t * t_scale, K * k_scale, bound * k_scale), self.CONFIG)

    def test_weighted_design_beyond_the_floats(self):
        with pytest.raises(NumericalError, match="non-finite weighted design"):
            self.fit(t_scale=1e300)

    def test_stderr_beyond_the_floats(self):
        with pytest.raises(NumericalError,
                           match=r"non-finite t\^-1.5 fit .* \+- inf"):
            self.fit(k_scale=1e300)

    def test_failed_svd_is_numerical(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NumericalError, match="SVD did not") as info:
            weighted_power_fit(np.eye(3), np.ones(3), np.ones(3))
        assert not isinstance(info.value, IllPosedFitError)


def test_min_usable_t_ties_window_to_truncation_model():
    from cavityheat.spectrum import (
        HEAT_TRACE_RTOL,
        em_modes,
        heat_trace,
        min_usable_t,
    )

    modes = em_modes(30.0)
    t_lo = min_usable_t(modes)
    K, bound = heat_trace(modes, 1.01 * t_lo)
    assert bound <= HEAT_TRACE_RTOL * K
