"""Regulated frequency sums and their divergence structure."""

import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest

import cavityheat.casimir as casimir
import cavityheat.spectrum as spectrum
from cavityheat import QuadratureSpec, TopologyInfo, sphere
from cavityheat.asymptotics import IllPosedFitError, pole_terms
from cavityheat.casimir import (
    RegulatorKind,
    SCAN_BASIS,
    _scan_design,
    detection_z,
    divergence_prediction,
    min_usable_gamma,
    regularized_sum,
    regulator_integral,
    remainder_scan,
)
from cavityheat.coefficients import compute_moments, em_coefficients
from cavityheat.errors import NumericalError
from cavityheat.spectrum import (
    CutoffTooLowError,
    ModeList,
    em_modes,
    exact_sum,
    heat_trace,
    resolvent2_expansion,
    resolvent2_trace,
)

# each regulator's damping factor at (gamma, lambda), written out
WEIGHT = {RegulatorKind.HEAT: lambda g, lam: np.exp(-g * lam),
          RegulatorKind.SQRT: lambda g, lam: np.exp(-np.sqrt(g * lam))}


def single_mode(lam=1.0, mult=1, family="TE", l=1):
    return ModeList(
        family=np.array([family], dtype="U9"), l=np.array([l]),
        m=np.array([1]), multiplicity=np.array([mult]),
        lam=np.array([lam], dtype=float), radius=1.0,
        omega_max=math.sqrt(lam) + 1.0)


@pytest.fixture(scope="module")
def ball_coeffs():
    m = compute_moments(sphere(1.0), QuadratureSpec(order=16))
    return em_coefficients(m, TopologyInfo(1, (0,)))


@pytest.fixture(scope="module")
def em60():
    return em_modes(60.0)


@pytest.fixture(scope="module")
def em200():
    """9,875 rows: long enough for exact_sum's certified path."""
    return em_modes(200.0)


class TestRegularizedSum:
    # one mode calibrates no truncation tail: the sum refuses to read
    # the tail as zero (the raw sums are pinned by the loop references)
    def test_single_mode_gamma_to_zero(self):
        with pytest.raises(ValueError, match=r"omega_max 3: 1 of its 1 modes"):
            regularized_sum(single_mode(lam=4.0), 1e-12, RegulatorKind.HEAT)

    def test_single_mode_sqrt_regulator(self):
        with pytest.raises(ValueError, match=r"omega_max 2: 0 of its 1 modes"):
            regularized_sum(single_mode(lam=1.0), 1.0, RegulatorKind.SQRT)

    @pytest.mark.parametrize("kind", list(RegulatorKind),
                             ids=lambda k: k.name)
    def test_raw_matches_loop_reference(self, em60, kind):
        w = WEIGHT[kind](0.02, em60.lam)
        ref = math.fsum(float(m) * om * wi for m, om, wi
                        in zip(em60.multiplicity, em60.omega, w))
        assert regularized_sum(em60, 0.02, kind).raw == ref

    @pytest.mark.parametrize("gamma", [1e-3, 0.01, 0.1, 1.0])
    @pytest.mark.parametrize("kind", list(RegulatorKind),
                             ids=lambda k: k.name)
    def test_long_list_raw_matches_loop_reference(self, em200, kind, gamma):
        w = WEIGHT[kind](gamma, em200.lam)
        ref = math.fsum(float(m) * om * wi for m, om, wi
                        in zip(em200.multiplicity, em200.omega, w))
        assert regularized_sum(em200, gamma, kind).raw == ref

    @pytest.mark.parametrize("kind, grid", [(RegulatorKind.HEAT, (3e-5, 1e-2)),
                                            (RegulatorKind.SQRT, (1e-4, 1e-1))],
                             ids=["HEAT", "SQRT"])
    def test_long_list_scan_equals_fsum_scan(self, em200, ball_coeffs,
                                             monkeypatch, kind, grid):
        # a fresh copy per scan, so each searches its own usable floor
        gammas = np.geomspace(*grid, 60)
        pred = divergence_prediction(ball_coeffs, kind).without("g_m1")
        scan = remainder_scan(replace(em200), pred, gammas)
        assert scan.excluded
        monkeypatch.setattr(spectrum, "exact_sum",
                            lambda x: math.fsum(np.asarray(x).tolist()))
        assert remainder_scan(replace(em200), pred, gammas).as_dict() \
            == scan.as_dict()

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", list(RegulatorKind),
                             ids=lambda k: k.name)
    def test_non_finite_gamma_rejected(self, em60, kind, gamma):
        with pytest.raises(ValueError, match="gamma must be finite"):
            regularized_sum(em60, gamma, kind)

    @pytest.mark.parametrize("gamma", [1e-160, 1e-200, 1e-300, 5e-324])
    @pytest.mark.parametrize("kind", list(RegulatorKind),
                             ids=lambda k: k.name)
    def test_tail_beyond_the_floats_is_unusable(self, em60, kind, gamma):
        # gamma ** 2 (heat) or s ** 4 (sqrt) underflows to a zero
        # divisor below about 1e-162: the tail reads +inf
        raw, tail = spectrum.sum_parts(replace(em60), kind.value, gamma)
        assert tail == math.inf and math.isfinite(raw)
        with pytest.raises(CutoffTooLowError) as err:
            regularized_sum(em60, gamma, kind)
        assert err.value.minimum_usable == min_usable_gamma(em60, kind)

    @pytest.mark.parametrize("kind", list(RegulatorKind),
                             ids=lambda k: k.name)
    def test_finite_tail_is_the_closed_form(self, em60, kind):
        tail = spectrum._SUMS[kind.value][2]
        for gamma in (1e-150, 1e-3, 0.5):
            assert spectrum.sum_parts(replace(em60), kind.value, gamma)[1] \
                == tail(*em60.density, em60.omega_max, gamma)

    def test_cutoff_error_carries_minimum(self, em60):
        with pytest.raises(CutoffTooLowError) as err:
            regularized_sum(em60, 1e-8, RegulatorKind.HEAT)
        g_min = err.value.minimum_usable
        regularized_sum(em60, 1.05 * g_min, RegulatorKind.HEAT)  # no raise

    def test_min_usable_gamma_ordering(self, em60):
        g_heat = min_usable_gamma(em60, RegulatorKind.HEAT)
        g_sqrt = min_usable_gamma(em60, RegulatorKind.SQRT)
        # the square-root regulator suppresses the tail far more slowly
        assert g_sqrt > g_heat

    @pytest.mark.parametrize("kind", list(RegulatorKind),
                             ids=lambda k: k.name)
    def test_min_usable_gamma_is_the_sum_boundary(self, em60, kind):
        g_min = min_usable_gamma(em60, kind)
        regularized_sum(em60, g_min, kind)  # no raise
        with pytest.raises(CutoffTooLowError):
            regularized_sum(em60, np.nextafter(g_min, 0), kind)

    def test_floor_memo_matches_fresh_searches(self, em60):
        modes = replace(em60)
        floors = {kind: min_usable_gamma(modes, kind) for kind in RegulatorKind}
        # one entry per key
        assert modes._usable_floor == {(kind.value, casimir.REGULATED_RTOL): g
                                       for kind, g in floors.items()}
        assert len(set(floors.values())) == 2
        for kind, g_min in floors.items():
            assert min_usable_gamma(modes, kind) == g_min
            assert min_usable_gamma(replace(em60), kind) == g_min


class TestRegulatedMemo:
    """Each list computes a (kind, gamma) sum once, in a bounded memo."""

    @pytest.mark.parametrize("kind", list(RegulatorKind),
                             ids=lambda k: k.name)
    def test_defect_scan_reuses_the_clean_sums(self, em200, ball_coeffs,
                                               monkeypatch, kind):
        # criterion 6's narrow grid: HEAT keeps every point, SQRT
        # excludes some and so searches its floor once
        gammas = np.geomspace(1e-4, 1e-2, 60)
        pred = divergence_prediction(ball_coeffs.values, kind)
        fresh = [remainder_scan(replace(em200), p, gammas)
                 for p in (pred, pred.without("g_m1"))]
        summed = []

        def counted(terms):
            summed.append(len(terms))
            return exact_sum(terms)

        monkeypatch.setattr(spectrum, "exact_sum", counted)
        min_usable_gamma(replace(em200), kind)
        steps = len(summed)             # one search on a list of its own
        summed.clear()
        modes = replace(em200)
        pair = [remainder_scan(modes, p, gammas)
                for p in (pred, pred.without("g_m1"))]
        searched = steps if pair[0].excluded else 0
        assert (kind is RegulatorKind.SQRT) == bool(searched)
        assert len(summed) == len(gammas) + searched
        for got, want in zip(pair, fresh):
            assert got.as_dict() == want.as_dict()
        assert detection_z(*pair) == detection_z(*fresh)

    def test_memo_is_bounded_oldest_first(self, em60):
        modes = replace(em60)
        size = spectrum._SUM_MEMO_SIZE
        grids = [np.geomspace(0.02, 0.5, 60) * (1 + k / 100)
                 for k in range(2 * size // 60 + 1)]
        for gammas in grids:
            for g in gammas:
                regularized_sum(modes, float(g), RegulatorKind.SQRT)
                assert len(modes._sums) <= size
        keys = [("sqrt", float(g)) for g in np.concatenate(grids)]
        assert list(modes._sums) == keys[-size:]

    def test_one_bound_over_every_sum(self, em60):
        # heat-trace, regulated and resolvent keys share the one memo
        modes = replace(em60)
        size = spectrum._SUM_MEMO_SIZE
        keys = []
        for x in np.geomspace(0.05, 0.5, 110):
            x = float(x)
            heat_trace(modes, x)
            regularized_sum(modes, x, RegulatorKind.HEAT)
            resolvent2_trace(modes, 100 * x)
            keys += [("heat_trace", x), ("heat", x), ("resolvent2", 100 * x)]
            assert len(modes._sums) <= size
        assert len(keys) > size
        assert list(modes._sums) == keys[-size:]

    def test_copies_start_empty(self, em60, tmp_path):
        modes = replace(em60)
        regularized_sum(modes, 0.02, RegulatorKind.HEAT)
        assert modes._sums
        modes.to_csv(tmp_path / "modes.csv")
        for copy in (replace(modes), ModeList.from_csv(tmp_path / "modes.csv")):
            assert copy._sums == {}


class TestRegulatorIntegral:
    # exact O(1) offsets at delta = 1: numeric - asymptote tends to
    # -1/2, -2/3, -1, -2, log 4 for n = 0..4
    OFFSET = {0: -0.5, 1: -2.0 / 3.0, 2: -1.0, 3: -2.0, 4: math.log(4.0)}

    @pytest.mark.parametrize("n", range(5))
    def test_matches_asymptote_to_order_one(self, n):
        ri = regulator_integral(n, 1e-6)
        diff = ri.numeric - ri.asymptote
        assert diff == pytest.approx(self.OFFSET[n], abs=0.02)

    @staticmethod
    def reference(n, gamma, delta):
        """2 int_0^sqrt(delta) (s^2 + gamma)^((n-5)/2) ds to 30 digits."""
        with mpmath.workdps(30):
            g = mpmath.mpf(gamma)
            power = mpmath.mpf(n - 5) / 2
            return float(2 * mpmath.quad(lambda s: (s * s + g) ** power,
                                         [0, mpmath.sqrt(g),
                                          mpmath.sqrt(delta)]))

    @pytest.mark.parametrize("delta", [1.0, 2.0])
    @pytest.mark.parametrize("gamma", [1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 2e-3,
                                       0.05, 0.5, 0.9])
    @pytest.mark.parametrize("n", range(5))
    def test_matches_30_digit_reference(self, n, gamma, delta):
        # t -> delta t: the integral to delta is
        # delta^((n-4)/2) times the integral to 1 at gamma / delta
        ref = self.reference(n, gamma, delta)
        got = delta ** ((n - 4) / 2) * regulator_integral(
            n, gamma / delta).numeric
        assert abs(got - ref) <= 1e-13 * abs(ref)

    def test_asymptote_forms(self):
        g = 1e-4
        assert regulator_integral(0, g).asymptote == pytest.approx(
            (4 / 3) * g**-2)
        assert regulator_integral(3, g).asymptote == pytest.approx(
            math.pi * g**-0.5)
        assert regulator_integral(4, g).asymptote == pytest.approx(
            -math.log(g))

    def test_validation(self):
        with pytest.raises(ValueError):
            regulator_integral(5, 1e-6)
        with pytest.raises(ValueError):
            regulator_integral(2, 2.0)


# the term of each sum of spectrum._SUMS at argument x and eigenvalue lam
SUM_WEIGHT = {
    "heat_trace": lambda x, lam: mpmath.exp(-x * lam),
    "heat": lambda x, lam: mpmath.sqrt(lam) * mpmath.exp(-x * lam),
    "sqrt": lambda x, lam: (mpmath.sqrt(lam)
                            * mpmath.exp(-mpmath.sqrt(x * lam))),
    "resolvent2": lambda x, lam: (lam + x) ** -2,
}
# arguments each sum is checked at: small t and gamma, large mu
CHECK_POINTS = {"heat_trace": (1e-3, 0.1), "heat": (1e-3, 0.1),
                "sqrt": (1e-3, 0.1), "resolvent2": (10.0, 1e3)}


def regulated_integral(name, density, x):
    """int_0^inf density(lam) * (term of the sum ``name`` at x) dlam."""
    with mpmath.workdps(30):
        x = mpmath.mpf(x)
        return float(mpmath.quad(
            lambda lam: density(lam) * SUM_WEIGHT[name](x, lam),
            [0, *sorted((x, 1 / x)), mpmath.inf]))


def series(name, coeffs, x):
    """The package's expansion of the sum ``name`` at x from a_0..a_5."""
    if name == "resolvent2":
        return resolvent2_expansion(coeffs, x)
    if name == "heat_trace":
        return sum(f * coeffs[n] * x ** e
                   for n, (e, _, f) in enumerate(pole_terms(name, 6)))
    return divergence_prediction(coeffs, RegulatorKind(name)).evaluate(x)


def assert_slots_match_closed_forms(name):
    """Every term factor of the sum ``name`` against a spectrum solved
    exactly.

    Terms n = 0, 1, 2: the density lam^((1-n)/2) on (0, inf) has the
    single heat-trace term a_n t^-s, s = (3-n)/2, with a_n = Gamma(s) its
    integral against e^-lam.  Its regulated sum is that slot's power of
    gamma alone, and its T2(mu) is mu^(s-2) Gamma(s) Gamma(2-s) =
    a_n Gamma((n+1)/2) mu^-(n+1)/2, so each expansion must equal its sum.

    Log and a_3 slots of the regulated sums: the density lam^-3/2 on
    [1, inf) has K(t) = a_3 + a_4 t^1/2 + O(t), with a_3 =
    int_1^inf lam^-3/2 dlam and, by lam = mu / t, a_4 =
    int_0^inf mu^-3/2 (e^-mu - 1) dmu.  Its sums are E_1(gamma) under
    HEAT and, by lam = u^2 / gamma, 2 E_1(sqrt(gamma)) under SQRT:
    -log(gamma) plus a constant and positive powers of gamma, so
    S - prediction must reach a finite limit.
    """
    with mpmath.workdps(30):
        for n in range(3):
            power = mpmath.mpf(1 - n) / 2
            coeffs = [0.0] * 6
            coeffs[n] = float(mpmath.quad(
                lambda lam: lam ** power * mpmath.exp(-lam),
                [0, 1, mpmath.inf]))
            for x in CHECK_POINTS[name]:
                exact = regulated_integral(name, lambda lam: lam ** power, x)
                assert series(name, coeffs, x) == pytest.approx(exact,
                                                                rel=1e-12)
        if name not in ("heat", "sqrt"):
            return
        a3 = mpmath.quad(lambda lam: lam ** mpmath.mpf(-1.5), [1, mpmath.inf])
        a4 = mpmath.quad(lambda mu: mu ** mpmath.mpf(-1.5) * mpmath.expm1(-mu),
                         [0, 1, mpmath.inf])
    kind = RegulatorKind(name)
    pred = divergence_prediction([0, 0, 0, float(a3), float(a4), 0], kind)
    exact = {RegulatorKind.HEAT: mpmath.e1,
             RegulatorKind.SQRT: lambda g: 2 * mpmath.e1(math.sqrt(g))}[kind]
    # the next SQRT term, 2 sqrt(gamma), is 2e-5 at gamma = 1e-10
    near, far = (float(exact(g)) - pred.evaluate(g) for g in (1e-10, 1e-14))
    assert near == pytest.approx(far, abs=1e-4)


SQPI = math.sqrt(math.pi)


class TestPoleTerms:
    """Each generated factor against its closed form, to the bit."""

    @pytest.mark.parametrize("name, factors", [
        ("heat", (2 / SQPI, math.gamma(1.5), 1 / SQPI, 0.0, 1 / (2 * SQPI))),
        ("sqrt", (24 / SQPI, 4.0, 2 / SQPI, 0.0, 1 / (2 * SQPI))),
    ])
    def test_divergence_slots(self, name, factors):
        terms = pole_terms(name, 5)
        assert tuple(f for *_, f in terms) == factors
        assert [e for e, *_ in terms] == [-2.0, -1.5, -1.0, -0.5, 0.0]
        # only the a_4 slot carries log(gamma); the a_3 slot is +0.0
        assert [p for _, p, _ in terms] == [0, 0, 0, 0, 1]
        assert math.copysign(1.0, terms[3][2]) == 1.0

    def test_resolvent_terms(self):
        terms = pole_terms("resolvent2", 6)
        assert terms == tuple((-(n + 1) / 2, 0, math.gamma((n + 1) / 2))
                              for n in range(6))

    def test_heat_trace_terms(self):
        terms = pole_terms("heat_trace", 6)
        assert terms == tuple(((n - 3) / 2, 0, 1.0) for n in range(6))
        # +0.0, so that a fit writes the key "0.0", not "-0.0"
        assert math.copysign(1.0, terms[3][0]) == 1.0

    @pytest.mark.parametrize("name", ["heat_trace", "resolvent2"])
    def test_terms_match_closed_forms(self, name):
        assert_slots_match_closed_forms(name)


class TestDivergencePrediction:
    A = (1.0, 10.0, 100.0, 1000.0, 1e4, 0.0)

    def test_heat_map_term_by_term(self):
        assert_slots_match_closed_forms("heat")

    def test_sqrt_map_and_ratio(self):
        assert_slots_match_closed_forms("sqrt")
        # both regulators cut off at omega ~ gamma^-1/2: one log slot
        h = divergence_prediction(self.A, RegulatorKind.HEAT)
        s = divergence_prediction(self.A, RegulatorKind.SQRT)
        assert s.g_log == h.g_log

    def test_half_power_slot_always_zero(self):
        for kind in RegulatorKind:
            p = divergence_prediction((1, 2, 3, 4, 5, 6), kind)
            assert p.g_m12 == 0.0

    def test_zero_coefficients_zero_prediction(self):
        p = divergence_prediction((0.0,) * 6, RegulatorKind.HEAT)
        assert p.evaluate(0.01) == 0.0

    def test_without_slot(self):
        p = divergence_prediction(self.A, RegulatorKind.HEAT)
        q = p.without("g_m1")
        assert q.g_m1 == 0.0 and q.g_m2 == p.g_m2
        with pytest.raises(ValueError):
            p.without("g_m12")


class TestRemainderScan:
    def test_zero_remainder_fits_to_zero(self):
        # a remainder that is identically zero must yield all-zero
        # components whatever the weights
        from cavityheat.asymptotics import weighted_power_fit

        g = np.geomspace(1e-4, 1e-2, 20)
        coef, err, *_ = weighted_power_fit(
            _scan_design(g), np.zeros_like(g), np.full_like(g, 1e-6))
        assert np.allclose(coef, 0.0, atol=1e-12)

    def test_clean_scan_is_finite(self, em60, ball_coeffs):
        pred = divergence_prediction(ball_coeffs.values, RegulatorKind.HEAT)
        scan = remainder_scan(em60, pred, np.geomspace(1e-3, 5e-2, 40))
        assert scan.finite, scan.components
        assert set(scan.components) == set(SCAN_BASIS)

    def test_planted_half_power_detected(self, em60, ball_coeffs):
        # inject an artificial half-power divergence of natural size into
        # the prediction; the scan must flag it
        pred = divergence_prediction(ball_coeffs.values, RegulatorKind.HEAT)
        planted = replace(pred, g_m12=0.35)
        scan = remainder_scan(em60, planted, np.geomspace(1e-3, 5e-2, 40))
        assert not scan.finite
        assert scan.half_power[0] == pytest.approx(-0.35, rel=0.05)
        assert scan.z_half > 5.0

    def test_missing_divergence_term_detected(self, em60, ball_coeffs):
        pred = divergence_prediction(ball_coeffs.values, RegulatorKind.HEAT)
        gammas = np.geomspace(1e-3, 5e-2, 40)
        clean = remainder_scan(em60, pred, gammas)
        broken = remainder_scan(em60, pred.without("g_m1"), gammas)
        assert detection_z(clean, broken) > 5.0

    def test_detection_requires_matching_grids(self, em60, ball_coeffs):
        pred = divergence_prediction(ball_coeffs.values, RegulatorKind.HEAT)
        a = remainder_scan(em60, pred, np.geomspace(1e-3, 5e-2, 40))
        b = remainder_scan(em60, pred, np.geomspace(1e-3, 5e-2, 30))
        with pytest.raises(ValueError, match="grid"):
            detection_z(a, b)

    @pytest.mark.parametrize("a0, message", [
        (1e308, "non-finite prediction inf at gamma=0.001"),
        (-1e308, "non-finite prediction -inf at gamma=0.001"),
        (1e300, "non-finite remainder fit: const component nan"),
        (1e200, r"non-finite remainder fit: const component .* \+- inf"),
    ])
    def test_non_finite_scan_raises(self, em60, ball_coeffs, a0, message):
        # a finite a_0 near the float range overflows the prediction or
        # the fit; the scan raises instead of returning NaN or inf
        values = [a0, *ball_coeffs.values[1:]]
        pred = divergence_prediction(values, RegulatorKind.HEAT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=message):
                remainder_scan(em60, pred, np.geomspace(1e-3, 5e-2, 40))

    def test_too_few_usable_points(self, em60, ball_coeffs):
        pred = divergence_prediction(ball_coeffs.values, RegulatorKind.SQRT)
        with pytest.raises(CutoffTooLowError, match="usable gamma") as err:
            remainder_scan(em60, pred, np.geomspace(1e-5, 1e-4, 10))
        assert err.value.minimum_usable == min_usable_gamma(
            em60, RegulatorKind.SQRT)

    def test_too_short_grid_is_not_a_cutoff_error(self, em60, ball_coeffs):
        pred = divergence_prediction(ball_coeffs.values, RegulatorKind.HEAT)
        with pytest.raises(ValueError, match="usable gamma points") as err:
            remainder_scan(em60, pred, np.geomspace(1e-2, 5e-2, 5))
        assert not isinstance(err.value, CutoffTooLowError)

    def test_scan_searches_the_floor_once(self, em60, ball_coeffs,
                                          monkeypatch):
        calls = []

        def counted(terms):
            calls.append(len(terms))
            return exact_sum(terms)

        monkeypatch.setattr(spectrum, "exact_sum", counted)
        min_usable_gamma(replace(em60), RegulatorKind.SQRT)
        steps = len(calls)              # one search on a list of its own
        calls.clear()
        pred = divergence_prediction(ball_coeffs.values, RegulatorKind.SQRT)
        gammas = np.geomspace(1e-3, 5e-2, 40)
        modes = replace(em60)
        scan = remainder_scan(modes, pred, gammas)
        assert len(scan.excluded) > 1
        assert len(calls) == len(gammas) + steps
        calls.clear()
        remainder_scan(modes, pred.without("g_m1"), gammas)
        assert not calls                    # every sum is already known
        modes._sums.clear()
        remainder_scan(modes, pred.without("g_m1"), gammas)
        assert len(calls) == len(gammas)    # and so is the floor

    @pytest.mark.parametrize("planted", [ValueError, IllPosedFitError])
    def test_next_order_fit_drops_only_ill_posed_extensions(
            self, em60, ball_coeffs, monkeypatch, planted):
        fit = casimir.weighted_power_fit
        base = []

        def extension_fails(design, b, sigma):
            if np.shape(design)[1] == len(SCAN_BASIS) + 2:
                base.append(np.array(sigma))
                raise planted("planted")
            return fit(design, b, sigma)

        monkeypatch.setattr(casimir, "weighted_power_fit", extension_fails)
        pred = divergence_prediction(ball_coeffs.values, RegulatorKind.HEAT)
        gammas = np.geomspace(1e-3, 5e-2, 40)
        if planted is ValueError:
            with pytest.raises(ValueError, match="planted"):
                remainder_scan(em60, pred, gammas)
        else:
            scan = remainder_scan(em60, pred, gammas)
            assert len(base) == 1
            assert np.array_equal(scan.sigmas, base[0])

    def test_detectable_half_power_is_resolved(self, em60, ball_coeffs):
        pred = divergence_prediction(ball_coeffs.values, RegulatorKind.HEAT)
        gammas = np.geomspace(1e-3, 5e-2, 40)
        scan = remainder_scan(em60, pred, gammas)
        amplitude = scan.detectable_half_power
        assert amplitude == 5.0 * scan.half_power[1]
        assert scan.as_dict()["detectable_half_power"] == amplitude
        # a planted c * gamma^-1/2 at twice that amplitude stands out
        planted = remainder_scan(em60, replace(pred, g_m12=2.0 * amplitude),
                                 gammas)
        assert planted.z_half > 5.0

    def test_report_serialisable(self, em60, ball_coeffs):
        pred = divergence_prediction(ball_coeffs.values, RegulatorKind.HEAT)
        scan = remainder_scan(em60, pred, np.geomspace(1e-3, 5e-2, 40))
        doc = scan.as_dict()
        assert doc["finite"] is True
        assert len(doc["gammas"]) == len(doc["remainder"])
