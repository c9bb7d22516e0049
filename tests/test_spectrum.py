"""Ball spectrum enumeration against independent references.

Frozen 30-digit root references (mpmath, sqrt(pi/2x) J_(l+1/2)):

    first zero of j_1            4.49340945790906417530788092728
    first zero of j_1'           2.08157597781810061053764960157
    first zero of (x j_1)'       2.74370726999226938256112208112
"""

import csv
import json
import math
import tempfile
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import spherical_jn

import cavityheat.spectrum as spectrum
from cavityheat.spectrum import (
    BESSEL,
    CutoffTooLowError,
    ModeList,
    dirichlet_modes,
    em_modes,
    exact_sum,
    form_modes,
    heat_trace,
    heat_trace_samples,
    min_usable_t,
    neumann_modes,
    resolvent2_expansion,
    resolvent2_trace,
    upper_gamma_3_2,
)

J1_ZERO = 4.493409457909064
J1P_ZERO = 2.081575977818101
TM1_ROOT = 2.743707269992269


@pytest.fixture(scope="module")
def em30():
    return em_modes(30.0)


@pytest.fixture(scope="module")
def em60():
    return em_modes(60.0)


@pytest.fixture(scope="module")
def em200():
    """9,875 rows: long enough for exact_sum's certified path."""
    return em_modes(200.0)


def concatenated(*lists):
    """One ModeList holding every row of mode lists over the same ball."""
    return ModeList(
        **{name: np.concatenate([getattr(x, name) for x in lists])
           for name in ("family", "l", "m", "multiplicity", "lam")},
        radius=lists[0].radius,
        omega_max=min(x.omega_max for x in lists))


@pytest.fixture(scope="module")
def ball20():
    """All four families of the unit ball up to omega = 20."""
    return concatenated(em_modes(20.0), dirichlet_modes(20.0),
                        neumann_modes(20.0))


def single_mode(lam=1.0, mult=1, family="TE", l=1):
    return ModeList(
        family=np.array([family], dtype="U9"), l=np.array([l]),
        m=np.array([1]), multiplicity=np.array([mult]),
        lam=np.array([lam], dtype=float), radius=1.0,
        omega_max=math.sqrt(lam) + 1.0)


def counted_sums(monkeypatch):
    """Lengths of the term arrays spectrum sums from now on."""
    calls = []

    def counted(terms):
        calls.append(len(terms))
        return exact_sum(terms)

    monkeypatch.setattr(spectrum, "exact_sum", counted)
    return calls


class TestEnumeration:
    def test_dirichlet_lowest_is_pi_squared(self):
        d = dirichlet_modes(10.0)
        assert math.sqrt(d.lam.min()) == pytest.approx(math.pi, rel=1e-14)

    def test_dirichlet_l1_root(self):
        d = dirichlet_modes(10.0)
        l1 = np.sqrt(d.lam[(d.l == 1)]).min()
        assert l1 == pytest.approx(J1_ZERO, rel=1e-13)

    def test_dirichlet_radius_scaling(self):
        d1 = dirichlet_modes(20.0, radius=1.0)
        d2 = dirichlet_modes(10.0, radius=2.0)
        assert len(d2) > 0
        for lam2 in d2.lam[:25]:
            assert np.min(np.abs(d1.lam / 4.0 - lam2)) < 1e-12 * lam2

    def test_neumann_excludes_constant_mode(self):
        n = neumann_modes(15.0)
        assert np.all(n.lam > 0)
        assert math.sqrt(n.lam.min()) == pytest.approx(J1P_ZERO, rel=1e-13)

    def test_neumann_l0_equals_j1_zeros(self):
        n = neumann_modes(15.0)
        x0 = np.sqrt(n.lam[n.l == 0]).min()
        assert x0 == pytest.approx(J1_ZERO, rel=1e-13)

    def test_em_lowest_tm_and_te(self, em30):
        tm = np.sqrt(em30.lam[em30.family == "TM"]).min()
        te = np.sqrt(em30.lam[em30.family == "TE"]).min()
        assert tm == pytest.approx(TM1_ROOT, rel=1e-13)
        assert te == pytest.approx(J1_ZERO, rel=1e-13)

    def test_em_lowest_tm_multiplicity(self, em30):
        i = int(np.argmin(em30.lam))
        assert em30.family[i] == "TM"
        assert em30.multiplicity[i] == 3
        assert em30.l[i] == 1

    def test_em_has_no_l0(self, em30):
        assert np.all(em30.l >= 1)

    def test_cutoff_respected_and_no_zero_modes(self, em30):
        assert np.all(em30.lam > 0)
        assert np.all(em30.lam <= 30.0**2 * (1 + 1e-12))

    def test_domain_limit_enforced(self):
        with pytest.raises(ValueError, match="exceeds"):
            em_modes(150.0, radius=2.0)

    @pytest.mark.parametrize("enumerate_modes", [
        em_modes, dirichlet_modes, neumann_modes, partial(form_modes, 1)],
        ids=["em", "dirichlet", "neumann", "p1"])
    @pytest.mark.parametrize("omega_max, radius", [
        (20.0, -1.0), (20.0, 0.0), (math.nan, 1.0), (20.0, math.inf),
        (-20.0, -1.0)])
    def test_non_finite_or_non_positive_size_rejected(
            self, enumerate_modes, omega_max, radius):
        with pytest.raises(ValueError, match="finite and positive"):
            enumerate_modes(omega_max, radius)


class TestCompleteness:
    @pytest.mark.parametrize(
        "l, x_max", [(0, 35.0), (3, 35.0), (9, 35.0), (40, 100.0), (90, 100.0)],
        ids=["0", "3", "9", "40", "90"])
    def test_zero_count_matches_sign_scan(self, l, x_max):
        # independent oracle: count sign changes of j_l on a dense grid
        d = dirichlet_modes(x_max)
        got = int(np.sum(d.l == l))
        grid = np.arange(0.05, x_max, 0.005)
        vals = spherical_jn(l, grid)
        scan = int(np.sum(np.sign(vals[1:]) * np.sign(vals[:-1]) < 0))
        assert got == scan

    @pytest.mark.parametrize("family", ["TM", "NEUMANN"])
    def test_derivative_family_count_matches_sign_scan(self, family):
        for x_max, ls in ((30.0, (1, 5, 11)), (100.0, (60,))):
            modes = em_modes(x_max) if family == "TM" else neumann_modes(x_max)
            grid = np.arange(0.05, x_max, 0.005)
            for l in ls:
                got = int(np.sum((modes.l == l) & (modes.family == family)))
                if family == "TM":
                    vals = spherical_jn(l, grid) + grid * spherical_jn(
                        l, grid, derivative=True)
                else:
                    vals = spherical_jn(l, grid, derivative=True)
                scan = int(np.sum(np.sign(vals[1:]) * np.sign(vals[:-1]) < 0))
                assert got == scan, (x_max, l)

    def test_weyl_count_within_five_percent(self, em60):
        # leading growth: N(w) ~ (4 / 9 pi) w^3 for the two-family spectrum
        C = 4.0 / (9.0 * math.pi)
        for w in (20.0, 40.0, 60.0):
            ratio = em60.n_below(w) / (C * w**3)
            assert abs(ratio - 1.0) < 0.05, (w, ratio)


class TestHeatTrace:
    def test_single_mode(self):
        # one mode calibrates no truncation bound; a bound of 0 would
        # pass any rtol (the raw sum is pinned by the loop references)
        with pytest.raises(ValueError, match=r"omega_max 2: 0 of its 1 modes"):
            heat_trace(single_mode(lam=1.0), t=1.0)

    def test_value_matches_loop_reference(self, em30):
        t = 0.05
        ref = math.fsum(float(m) * math.exp(-t * lam)
                        for m, lam in zip(em30.multiplicity, em30.lam))
        # np.exp may differ from math.exp by an ulp per term
        assert heat_trace(em30, t)[0] == pytest.approx(ref, rel=1e-15)

    @pytest.mark.parametrize("t", [6e-4, 3e-3, 0.03, 0.5, 5.0])
    def test_long_list_matches_loop_reference(self, em200, t):
        assert len(em200) > spectrum._EXACT_SUM_MIN
        w = np.exp(-t * em200.lam)
        ref = math.fsum(float(m) * wi for m, wi in zip(em200.multiplicity, w))
        assert heat_trace(em200, t)[0] == ref

    def test_monotone_decreasing(self, em30):
        ts = np.geomspace(0.05, 1.0, 12)
        K = [heat_trace(em30, float(t))[0] for t in ts]
        assert all(a > b for a, b in zip(K, K[1:]))

    def test_matches_curvature_coefficients(self, em60):
        # cross-pipeline: spectral sum vs the six-term curvature model,
        # within truncation bound plus a next-order heuristic
        from cavityheat import QuadratureSpec, TopologyInfo, sphere
        from cavityheat.coefficients import compute_moments, em_coefficients

        co = em_coefficients(compute_moments(sphere(1.0), QuadratureSpec(16)),
                             TopologyInfo(1, (0,)))
        for t in (0.01, 0.02, 0.05):
            K, bound = heat_trace(em60, t)
            model = sum(co[n] * t ** ((n - 3) / 2) for n in range(6))
            budget = bound + abs(co[5]) * t ** 1.5
            assert abs(K - model) < budget, (t, K - model, budget)

    def test_cutoff_too_low_carries_minimum(self, em30, monkeypatch):
        searches = []

        def counted(modes):
            searches.append(modes)
            return min_usable_t(modes)

        monkeypatch.setattr(spectrum, "min_usable_t", counted)
        with pytest.raises(CutoffTooLowError) as err:
            heat_trace(em30, 1e-5)
        assert len(searches) == 1     # one search serves message and attribute
        assert err.value.minimum_usable == min_usable_t(em30)
        assert err.value.minimum_usable > 1e-5
        heat_trace(em30, 1.05 * err.value.minimum_usable)  # no raise

    def test_trace_raise_then_min_usable_t_searches_once(self, em30,
                                                         monkeypatch):
        calls = counted_sums(monkeypatch)
        min_usable_t(replace(em30))
        steps = len(calls)              # one search on a list of its own
        calls.clear()
        fresh = replace(em30)
        with pytest.raises(CutoffTooLowError) as err:
            heat_trace(fresh, 1e-5)
        assert len(calls) == 1 + steps  # the trace itself, then the search
        assert min_usable_t(fresh) == err.value.minimum_usable
        assert len(calls) == 1 + steps  # read from the list's memo

    def test_min_usable_t_consistent(self, em30):
        t_min = min_usable_t(em30)
        K, bound = heat_trace(em30, 1.01 * t_min)
        assert bound <= spectrum.HEAT_TRACE_RTOL * K

    @pytest.mark.parametrize("t", [1e-200, 1e-300, 5e-324])
    def test_tail_beyond_the_floats_is_unusable(self, em30, t):
        # t ** -1.5 overflows below about 1e-206: the tail reads +inf
        raw, tail = spectrum.sum_parts(replace(em30), "heat_trace", t)
        assert math.isfinite(raw) and tail > 1e299
        with pytest.raises(CutoffTooLowError) as err:
            heat_trace(em30, t)
        assert err.value.minimum_usable == min_usable_t(em30)
        if t < 1e-206:
            assert tail == math.inf
        else:
            assert tail == spectrum._heat_trace_tail(
                *em30.density, em30.omega_max, t)

    def test_min_usable_t_is_the_trace_boundary(self, em60):
        t_min = min_usable_t(em60)
        heat_trace(em60, t_min)  # no raise
        with pytest.raises(CutoffTooLowError):
            heat_trace(em60, np.nextafter(t_min, 0))

    def test_upper_gamma_3_2_matches_30_digits(self):
        import mpmath as mp

        # scipy's gammaincc(1.5, z) * gamma(1.5) reads up to 6e-14 here
        with mp.workdps(30):
            for z in np.geomspace(1e-6, 700.0, 200):
                want = mp.gammainc(mp.mpf(1.5), mp.mpf(z))
                assert abs(upper_gamma_3_2(z) - want) <= 1e-15 * want

    def test_repeated_samples_sum_once(self, em30, monkeypatch):
        calls = counted_sums(monkeypatch)
        modes = replace(em30)
        ts = np.geomspace(0.05, 0.5, 40)
        first = heat_trace_samples(modes, ts)
        second = heat_trace_samples(modes, ts)
        assert len(calls) == 40
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_samples_vectorised(self, em30):
        ts = np.geomspace(0.05, 0.5, 7)
        t, K, bounds = heat_trace_samples(em30, ts)
        for i in (0, 3, 6):
            assert K[i] == pytest.approx(heat_trace(em30, float(ts[i]))[0])


class TestResolvent:
    def test_single_mode(self):
        with pytest.raises(ValueError, match=r"omega_max 2: 0 of its 1 modes"):
            resolvent2_trace(single_mode(lam=1.0), mu=1.0)

    def test_repeated_mu_sums_once(self, em30, monkeypatch):
        calls = counted_sums(monkeypatch)
        modes = replace(em30)
        first = resolvent2_trace(modes, 50.0)
        assert resolvent2_trace(modes, 50.0) == first
        assert len(calls) == 1

    def test_raw_matches_loop_reference(self, em30):
        mu = 50.0
        ref = math.fsum(float(m) / (lam + mu) ** 2
                        for m, lam in zip(em30.multiplicity, em30.lam))
        assert resolvent2_trace(em30, mu).raw == ref

    @pytest.mark.parametrize("mu", [10.0, 1e3, 1e5])
    def test_long_list_raw_matches_loop_reference(self, em200, mu):
        ref = math.fsum(float(m) / (lam + mu) ** 2
                        for m, lam in zip(em200.multiplicity, em200.lam))
        assert resolvent2_trace(em200, mu).raw == ref

    def test_radius_scaling(self):
        m1 = em_modes(20.0, radius=1.0)
        m2 = em_modes(10.0, radius=2.0)
        mu = 30.0
        lhs = resolvent2_trace(m2, mu).raw
        # lambda -> lambda / R^2 turns T2(mu; R) into R^4 T2(mu R^2; 1)
        keep = m1.lam <= 400.0
        rhs = 16.0 * float(np.sum(
            m1.multiplicity[keep] / (m1.lam[keep] + mu * 4.0) ** 2))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_matches_coefficient_expansion(self, em60):
        from cavityheat import QuadratureSpec, TopologyInfo, sphere
        from cavityheat.coefficients import compute_moments, em_coefficients

        co = em_coefficients(compute_moments(sphere(1.0), QuadratureSpec(16)),
                             TopologyInfo(1, (0,)))
        for mu in (50.0, 200.0, 500.0):
            r = resolvent2_trace(em60, mu)
            model = resolvent2_expansion(co.values, mu)
            budget = r.tail_sigma + math.gamma(3.5) * abs(co[5]) * mu ** -3.5
            assert abs(r.value - model) < budget, (mu, r.value - model, budget)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name, trace", [("t", heat_trace),
                                         ("mu", resolvent2_trace)],
                         ids=["heat_trace", "resolvent2_trace"])
def test_non_finite_argument_rejected(em30, name, trace, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        trace(em30, value)


def fsum_outcome(x):
    """math.fsum of the array's list: its bits, or the error it raises."""
    try:
        return math.fsum(x.tolist()).hex()
    except (OverflowError, ValueError) as err:
        return type(err)


def exact_value(values):
    """The exact sum of finite floats, in units of 2^-1074."""
    total = 0
    for v in values:
        num, den = v.as_integer_ratio()
        total += num << (1075 - den.bit_length())
    return total


def exact_sum_outcome(x):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return exact_sum(x).hex()
    except (OverflowError, ValueError) as err:
        return type(err)


@st.composite
def sum_inputs(draw):
    """Arrays of up to three crossover lengths: wide exponent spans, full
    buckets, terms near overflow, heavy cancellation, subnormals, signed
    zeros, and a few floats of hypothesis's own choosing planted among
    them."""
    n = draw(st.integers(0, 3 * spectrum._EXACT_SUM_MIN))
    kind = draw(st.sampled_from(
        ["wide", "dense", "huge", "cancel", "subnormal", "zeros", "decaying"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sign = rng.choice([-1.0, 1.0], n)
    if kind == "wide":      # exponents over more than 2,000 bits
        x = sign * np.ldexp(rng.uniform(0.5, 1.0, n),
                            rng.integers(-1074, 940, n))
    elif kind == "dense":   # full bucket sums, merged runs near 2^53
        x = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(-20, 20, n))
    elif kind == "huge":    # near and past overflow
        x = sign * np.ldexp(rng.uniform(0.5, 1.0, n),
                            rng.integers(900, 1024, n))
    elif kind == "cancel":  # terms and their negations, shuffled, plus dust
        half = np.ldexp(rng.uniform(0.5, 1.0, n // 2),
                        rng.integers(-60, 60, n // 2))
        x = np.concatenate([half, -half, rng.uniform(-1e-300, 1e-300,
                                                     n % 2)])
        x = rng.permutation(x)
        x[:min(n, 3)] *= 1.0 + 2.0 ** -52
    elif kind == "subnormal":
        x = sign * np.ldexp(rng.integers(0, 2 ** 52, n).astype(float), -1074)
    elif kind == "zeros":
        x = np.where(rng.uniform(size=n) < draw(st.sampled_from([0.0, 0.5])),
                     0.0, -0.0)
    else:                   # positive spectral terms, underflowing to zero
        x = np.exp(-np.sort(rng.exponential(200.0, n)))
    planted = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                            max_size=4))
    if n:
        x[rng.integers(0, n, len(planted))] = planted
    return x


class TestExactSum:
    """exact_sum against math.fsum on the same terms, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(x=sum_inputs())
    def test_equals_fsum(self, x):
        self.check(x)

    @staticmethod
    def check(x):
        want = fsum_outcome(x)
        rounded = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(math, "fsum", lambda v, fsum=math.fsum:
                       rounded.append(v) or fsum(v))
            assert exact_sum_outcome(x) == want
        if want not in (OverflowError, ValueError):
            # whatever fsum rounded has the exact sum of the terms
            exact = exact_value(x.tolist())
            assert all(exact_value(v) == exact for v in rounded)

    @pytest.mark.parametrize("seed", range(8))
    def test_full_buckets_merge_exactly(self, seed):
        # many terms per exponent fill the buckets, so merged runs come
        # close to 2^53
        rng = np.random.default_rng(seed)
        n = 3 * spectrum._EXACT_SUM_MIN
        self.check(np.ldexp(rng.uniform(0.5, 1.0, n),
                            rng.integers(-20, 20 + seed, n)))

    @pytest.mark.parametrize("n", [10, 4 * spectrum._EXACT_SUM_MIN])
    def test_signed_zeros(self, n):
        # fsum gives +0.0 for all -0.0 before Python 3.12 and -0.0 since
        for x in (np.full(n, -0.0), np.full(n, 0.0),
                  np.r_[np.full(n - 1, -0.0), 0.0],
                  np.r_[np.ones(n // 2), -np.ones(n // 2)]):
            assert exact_sum_outcome(x) == fsum_outcome(x)

    @pytest.mark.parametrize("n", [10, 4 * spectrum._EXACT_SUM_MIN])
    @pytest.mark.parametrize("special", [[math.inf], [-math.inf], [math.nan],
                                         [math.inf, -math.inf],
                                         [math.inf, math.nan]])
    def test_non_finite_terms(self, n, special):
        x = np.linspace(-1.0, 2.0, n)
        x[:len(special)] = special
        assert exact_sum_outcome(x) == fsum_outcome(x)

    @pytest.mark.parametrize("n", [10, 4 * spectrum._EXACT_SUM_MIN])
    def test_overflow_raises_as_fsum_does(self, n):
        big = np.finfo(float).max
        for x in (np.full(n, big), np.full(n, -0.6 * big),
                  # fsum raises on an intermediate overflow, not on the
                  # same terms in an order that keeps every sum finite
                  np.r_[big, big, -big, np.zeros(n - 3)],
                  np.r_[big, -big, big, np.zeros(n - 3)],
                  np.full(n, 2.0 ** 1019), np.full(n, -2.0 ** 1000)):
            assert exact_sum_outcome(x) == fsum_outcome(x)
        assert fsum_outcome(np.full(n, big)) is OverflowError

    def test_sum_near_the_top_of_the_bucketed_range(self):
        n = 4 * spectrum._EXACT_SUM_MIN
        x = np.ldexp(np.random.default_rng(5).uniform(0.5, 1.0, n), 959)
        assert exact_sum_outcome(x) == fsum_outcome(x)
        assert math.isfinite(exact_sum(x))


def near_midpoint_terms(seed, top, negate):
    """top (1.0 or 2.0), 4,000 terms +-k 2^-100 with k in [2^50, 2^53)
    and three float parts that put the exact sum 2^-100 to one side of
    the midpoint between two floats: 1 + 2^-53 above 1.0, or 2 - 2^-53
    below the power of two 2.0.  The float sum of the small terms errs
    by far more than 2^-100, so only a sound rounding certificate, or
    fsum, rounds these sums right."""
    rng = np.random.default_rng(seed)
    small = (rng.integers(2 ** 50, 2 ** 53, 4000)
             * rng.choice([-1, 1], 4000)).tolist()
    # in units of 2^-100
    midpoint = (1 << 100) + (1 << 47) if top == 1.0 else (2 << 100) - (1 << 47)
    rest = midpoint + int(rng.choice([-1, 1])) - (int(top) << 100) - sum(small)
    parts = []
    for _ in range(3):
        parts.append(float(rest))
        rest -= int(parts[-1])
    assert rest == 0
    x = rng.permutation(np.r_[top, np.ldexp(np.array(small + parts, float),
                                            -100)])
    return -x if negate else x


class TestExactSumCertificate:
    """The rounding certificate where it decides: sums a float sum
    rounds to the wrong side of a midpoint, and the package's own sums,
    which it should certify without fsum."""

    @pytest.mark.parametrize("negate", [False, True],
                             ids=["plain", "negated"])
    @pytest.mark.parametrize("top", [1.0, 2.0],
                             ids=["midpoint", "power-of-two-from-below"])
    def test_near_midpoint_sums_round_as_fsum(self, top, negate):
        for seed in range(30):
            x = near_midpoint_terms(seed, top, negate)
            assert exact_sum(x).hex() == math.fsum(x.tolist()).hex(), seed

    def test_package_sums_take_the_certified_path(self, em200, monkeypatch):
        # criterion 6's gamma grids, criterion 3's t grid and criterion
        # 7's mu, on criterion 6's list
        from cavityheat.asymptotics import FitConfig
        narrow = np.geomspace(1e-4, 1e-2, 60)
        grids = {"heat": narrow,
                 "sqrt": np.r_[narrow, np.geomspace(1e-4, 1e-1, 60)],
                 "heat_trace": FitConfig(t_lo=0.006, t_hi=0.06,
                                         n_points=40).t_grid(),
                 "resolvent2": [50.0, 120.0, 250.0, 500.0]}
        fsum, fallbacks = math.fsum, []
        monkeypatch.setattr(math, "fsum",
                            lambda v: fallbacks.append(len(v)) or fsum(v))
        for name, xs in grids.items():
            for x in xs:
                terms = spectrum._SUMS[name][1](em200, float(x))
                want = fsum(terms.tolist())
                assert exact_sum(terms).hex() == want.hex(), (name, x)
        assert fallbacks == []


HEADER = "family,l,m,multiplicity,lambda\n"


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())


def dict_reader_modes(path):
    """A mode CSV parsed row by row through csv.DictReader: the reader
    that ModeList.from_csv must accept and reject like."""
    rows = {"family": [], "l": [], "m": [], "multiplicity": [], "lam": []}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        for column in ("family", "l", "m", "multiplicity", "lambda"):
            if column not in (reader.fieldnames or ()):
                raise ValueError(f"{path.name} has no {column!r} column")
        for rec in reader:
            rows["family"].append(rec["family"])
            rows["l"].append(int(rec["l"]))
            rows["m"].append(int(rec["m"]))
            rows["multiplicity"].append(int(rec["multiplicity"]))
            rows["lam"].append(float(rec["lambda"]))
    return ModeList(
        family=np.array(rows["family"]), l=np.array(rows["l"]),
        m=np.array(rows["m"]), multiplicity=np.array(rows["multiplicity"]),
        lam=np.array(rows["lam"]), radius=1.0, omega_max=30.0)


class TestModeListPlumbing:
    def test_csv_roundtrip(self, tmp_path, em30):
        path = tmp_path / "modes.csv"
        em30.to_csv(path)
        back = ModeList.from_csv(path)
        assert len(back) == len(em30)
        assert np.allclose(back.lam, em30.lam, rtol=0, atol=0)
        assert back.radius == em30.radius
        assert list(back.family[:5]) == list(em30.family[:5])

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), radius=st.floats(0.05, 20.0))
    def test_csv_roundtrip_is_exact(self, ball20, data, radius):
        # rows from below the tail calibration window: a subset that
        # reaches into it is an incomplete list, which its sidecar's
        # omega_max disagrees with
        low = np.flatnonzero(ball20.omega <= ball20.omega_max / 2)
        rows = low[data.draw(st.lists(st.integers(0, len(low) - 1),
                                      min_size=1, max_size=60, unique=True))]
        modes = ModeList(
            family=ball20.family[rows], l=ball20.l[rows], m=ball20.m[rows],
            multiplicity=ball20.multiplicity[rows],
            lam=ball20.lam[rows] / radius ** 2, radius=radius,
            omega_max=ball20.omega_max / radius)
        with tempfile.TemporaryDirectory() as tmp:
            modes.to_csv(Path(tmp) / "modes.csv")
            back = ModeList.from_csv(Path(tmp) / "modes.csv")
        for name in ("family", "l", "m", "multiplicity", "lam"):
            assert np.array_equal(getattr(back, name), getattr(modes, name))
        assert back.radius == modes.radius
        assert back.omega_max == modes.omega_max

    @pytest.mark.parametrize("field, value, match", [
        ("lam", math.nan, "non-finite eigenvalue"),
        ("lam", math.inf, "non-finite eigenvalue"),
        ("family", "XX", "unknown mode family 'XX'"),
        ("radius", -1.0, "radius must be finite and positive"),
        ("radius", math.inf, "radius must be finite and positive"),
        ("omega_max", math.nan, "omega_max must be finite and positive"),
        ("omega_max", 0.0, "omega_max must be finite and positive"),
    ])
    def test_invalid_rows_and_attributes_rejected(self, field, value, match):
        kwargs = dict(family=np.array(["TE"], dtype="U9"), l=np.array([1]),
                      m=np.array([1]), multiplicity=np.array([3]),
                      lam=np.array([1.0]), radius=1.0, omega_max=2.0)
        kwargs[field] = (np.array([value], dtype=kwargs[field].dtype)
                         if field in ("lam", "family") else value)
        with pytest.raises(ValueError, match=match):
            ModeList(**kwargs)

    @pytest.mark.parametrize("family, l, m, mult", [
        ("DIRICHLET", -4, 1, 1), ("NEUMANN", 1, 0, 3), ("TE", 0, 1, 1),
        ("TM", 0, 1, 1), ("TE", 2, 1, 0)])
    def test_impossible_rows_rejected(self, family, l, m, mult):
        want = f"^no {family} mode has l = {l}, m = {m}, multiplicity {mult}:"
        with pytest.raises(ValueError, match=want):
            ModeList(family=np.array(["TE", family]), l=np.array([1, l]),
                     m=np.array([1, m]), multiplicity=np.array([3, mult]),
                     lam=np.array([1.0, 2.0]), radius=1.0, omega_max=2.0)

    def test_missing_sidecar_rejected(self, tmp_path, em30):
        path = tmp_path / "modes.csv"
        em30.to_csv(path)
        (tmp_path / "modes.csv.meta.json").unlink()
        with pytest.raises(FileNotFoundError,
                           match="^missing sidecar modes.csv.meta.json;"):
            ModeList.from_csv(path)

    @pytest.mark.parametrize("text", [
        pytest.param(HEADER + "TE,1,1,3,20.19\nTM,1,1,3,7.52\n", id="plain"),
        pytest.param(HEADER + "\nTE,1,1,3,20.19\n\n\nTM,1,1,3,7.5\n\n",
                     id="blank-lines"),
        pytest.param(HEADER + "TE,1,1,3,20.19,extra,fields\n",
                     id="extra-fields"),
        pytest.param("family,l,m,multiplicity,lambda,note\n"
                     "TE,1,1,3,20.19\nTM,2,1,5,2e1,x\n",
                     id="short-optional-column"),
        pytest.param("lambda,multiplicity,m,l,family\n20.19,3,1,1,TE\n",
                     id="reordered"),
        pytest.param("family,l,m,multiplicity,lambda,l\nTE,9,1,3,20.19,1\n",
                     id="repeated-column"),
        pytest.param('"family","l","m","multiplicity","lambda"\n'
                     '"TE"," 1","+1","3"," 20.19 "\n', id="quoted-and-padded"),
        pytest.param(HEADER.replace("\n", "\r\n") + "TE,1,1,3,20.19\r\n",
                     id="crlf"),
        pytest.param(HEADER + "TE,1,1,3\n", id="short-row"),
        pytest.param("l,m,multiplicity,lambda,family\n1,1,3,20.19\n",
                     id="short-row-family-last"),
        pytest.param(HEADER + "TE,1.5,1,3,20.19\n", id="fractional-l"),
        pytest.param(HEADER + "TE,1,1,3,\n", id="empty-lambda"),
        pytest.param(HEADER + "TE,1,1,3,20.19\n \n", id="whitespace-line"),
        pytest.param(HEADER + "XX,1,1,3,20.19\n", id="unknown-family"),
        pytest.param(HEADER + "TE,1,1,3,nan\n", id="nan-lambda"),
        pytest.param(HEADER + "TE,1,1,0,20.19\n", id="zero-multiplicity"),
        pytest.param(HEADER, id="header-only"),
        pytest.param("family,l,multiplicity,lambda\nTE,1,3,20.19\n",
                     id="missing-column"),
        pytest.param("\n" + HEADER + "TE,1,1,3,20.19\n",
                     id="blank-first-line"),
        pytest.param("", id="empty-file"),
        # the reader converts 256 rows at a time
        pytest.param(HEADER + "TE,1,1,3,20.19\n\n" * 300
                     + "TM,2,1,5,7.5\n" * 300, id="many-blocks"),
        pytest.param(HEADER + "\n" * 300 + "TE,1,1,3,20.19\n",
                     id="blank-block"),
        pytest.param(HEADER + "TE,1,1,3,20.19\n" * 600 + "TE,1,1,3\n",
                     id="short-row-in-a-later-block"),
    ])
    def test_csv_reader_accepts_and_rejects_as_a_dict_reader(self, tmp_path,
                                                             text):
        path = tmp_path / "modes.csv"
        path.write_text(text, newline="")
        (tmp_path / "modes.csv.meta.json").write_text(
            json.dumps({"radius": 1.0, "omega_max": 30.0}))
        try:
            want = dict_reader_modes(path)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                ModeList.from_csv(path)
            if "column" in str(err):
                assert str(got.value) == str(err)
            return
        got = ModeList.from_csv(path)
        for name in ("family", "l", "m", "multiplicity", "lam"):
            assert same_bits(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("meta, match", [
        ({"omega_max": 30.0}, "modes.csv.meta.json has no 'radius' key"),
        ({"radius": 1.0, "omega_max": None},
         "modes.csv.meta.json must map 'radius' and 'omega_max' to numbers"),
    ])
    def test_bad_sidecar_rejected(self, tmp_path, em30, meta, match):
        path = tmp_path / "modes.csv"
        em30.to_csv(path)
        (tmp_path / "modes.csv.meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"^{match}$"):
            ModeList.from_csv(path)

    def test_deterministic_ordering(self, em30):
        again = em_modes(30.0)
        assert np.array_equal(again.lam, em30.lam)
        assert np.array_equal(again.family, em30.family)

    def test_replace_gets_its_own_density(self, em30):
        em30.density  # fills the cached density of the original
        # the ball of radius 1.1: rows and cutoff scale together
        lam, omega_max = em30.lam / 1.21, em30.omega_max / 1.1
        shifted = replace(em30, lam=lam, omega_max=omega_max)
        fresh = ModeList(family=em30.family, l=em30.l, m=em30.m,
                         multiplicity=em30.multiplicity, lam=lam,
                         radius=em30.radius, omega_max=omega_max)
        assert shifted.density == fresh.density != em30.density

    @pytest.mark.parametrize("omega_max", [15.0, 40.0, 90.0])
    @pytest.mark.parametrize("enumerate_modes",
                             [em_modes, dirichlet_modes, neumann_modes])
    def test_counts_equal_a_masked_loop(self, enumerate_modes, omega_max):
        modes = enumerate_modes(omega_max)
        points = np.concatenate([np.linspace(0.0, omega_max + 1.0, 61),
                                 modes.omega[[0, 1, len(modes) // 2, -1]]])
        want = [masked_count(modes, w) for w in points]
        assert [modes.n_below(w) for w in points] == want
        assert modes.n_below(points).tolist() == want
        assert modes.density == masked_loop_density(modes)

    @pytest.mark.parametrize("name", ["family", "l", "m", "multiplicity",
                                      "lam", "omega", "weighted_omega"])
    def test_arrays_are_read_only(self, em30, name):
        column = getattr(em30, name)
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[1]

    def test_copies_start_with_an_empty_floor_memo(self, em30, tmp_path):
        min_usable_t(em30)
        assert em30._usable_floor
        em30.to_csv(tmp_path / "modes.csv")
        for copy in (replace(em30),
                     ModeList.from_csv(tmp_path / "modes.csv")):
            assert copy._usable_floor == {}

    @pytest.mark.parametrize("radius", [1.0, 1.13])
    @pytest.mark.parametrize("omega_max", [20.0, 55.5, 90.0])
    @pytest.mark.parametrize("p, scalar", [(1, dirichlet_modes),
                                           (2, neumann_modes)])
    def test_form_list_equals_the_union(self, p, scalar, omega_max, radius):
        got = form_modes(p, omega_max, radius)
        want = concatenated(em_modes(omega_max, radius),
                            scalar(omega_max, radius))
        for column in ("family", "l", "m", "multiplicity", "lam"):
            assert same_bits(getattr(got, column), getattr(want, column))
        assert (got.note, got.omega_max, got.radius) == (
            f"p{p}", want.omega_max, want.radius)

    def test_zero_mode_rejected(self):
        with pytest.raises(ValueError, match="zero or negative"):
            single_mode(lam=0.0)


def masked_count(modes, omega):
    """N(omega) from a mask over the whole list: the counting reference."""
    return int(np.sum(modes.multiplicity[modes.omega <= omega]))


def masked_loop_density(modes):
    """ModeList.density with one masked count per calibration edge."""
    w_hi = modes.omega_max
    w_lo = spectrum.TAIL_CALIBRATION_WINDOW * w_hi
    n_lo = masked_count(modes, w_lo)
    if modes.count - n_lo < 500:
        return (modes.count - n_lo) / ((w_hi ** 3 - w_lo ** 3) / 3.0), 0.0
    edges = np.linspace(w_lo, w_hi, 40)[1:]
    counts = np.array([masked_count(modes, w) - n_lo for w in edges],
                      dtype=float)
    design = np.column_stack([(edges ** 3 - w_lo ** 3) / 3.0,
                              (edges ** 2 - w_lo ** 2) / 2.0])
    (c2, c1), *_ = np.linalg.lstsq(design, counts, rcond=None)
    return float(c2), float(c1)


def bisect_reference(f, lo, hi, iterations=63):
    """Plain bisection, 63 halvings: the oracle the solver must match."""
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    flo = f(lo)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        left = flo * fm < 0
        hit = fm == 0.0
        hi = np.where(left | hit, mid, hi)
        lo = np.where(left, lo, mid)
        flo = np.where(left, flo, fm)
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def ladder():
    """Zeros of j_0..j_201, each level covering x <= 200; level 201
    holds two."""
    zeros = spectrum._zero_ladder(200.0)
    assert len(zeros) == 202 and len(zeros[201]) >= 2
    return zeros


def consecutive_zero_brackets(ladder, data, order):
    """A random run of brackets between consecutive zeros of j_order,
    in the verified domain where j_order has two zeros there."""
    z = ladder[order]
    z = z[:max(2, np.count_nonzero(z <= BESSEL.x_max))]
    k = data.draw(st.integers(0, len(z) - 2))
    n = data.draw(st.integers(1, min(8, len(z) - 1 - k)))
    return z[k:k + n], z[k + 1:k + n + 1]


def check_solver(f, l, lo, hi, shrink):
    """The solver against bisect_reference on [lo, hi], optionally shrunk
    towards the reference root by the fractions shrink = (u, v)."""
    g = partial(f, l)
    if shrink is not None:
        ref = bisect_reference(g, lo, hi)
        u, v = shrink
        lo, hi = lo + u * (ref - lo), hi - v * (hi - ref)
        assume(np.all(g(lo) * g(hi) < 0))
    roots = spectrum._bisect_brackets(f, l, lo, hi)
    assert np.array_equal(roots, bisect_reference(g, lo, hi))
    assert np.all((lo <= roots) & (roots <= hi))
    below = g(np.nextafter(roots, -np.inf))
    above = g(np.nextafter(roots, np.inf))
    assert np.all(below * above < 0)


shrinks = st.none() | st.tuples(st.floats(0, 1, exclude_max=True),
                                st.floats(0, 1, exclude_max=True))


class TestCutoffCheck:
    """A mode list's omega_max must agree with its rows."""

    @pytest.fixture(scope="class")
    def em40(self):
        return em_modes(40.0)

    def test_cutoff_below_a_row_rejected(self, em40):
        with pytest.raises(ValueError, match="^omega_max 38 lies below 38 of "
                           "the 374 rows, which reach 39.9961$"):
            replace(em40, omega_max=38.0)

    def test_cutoff_within_rounding_of_the_last_row_accepted(self, em40):
        top = em40.omega[-1]
        assert replace(em40, omega_max=top * (1 - 1e-13)).density[0] > 0
        with pytest.raises(ValueError, match="lies below 1 of the 374 rows"):
            replace(em40, omega_max=top * (1 - 1e-11))

    def test_cutoff_beyond_the_end_rejected(self, em40):
        modes = replace(em40, omega_max=44.0)
        with pytest.raises(ValueError, match=r"^omega_max 44 lies beyond the "
                           r"end of the mode list: its calibrated density "
                           r"has c2 = -0\.0887 <= 0$"):
            modes.density

    @pytest.mark.parametrize("enumerate_modes", [
        em_modes, dirichlet_modes, neumann_modes,
        partial(form_modes, 1), partial(form_modes, 2)],
        ids=["em", "dirichlet", "neumann", "p1", "p2"])
    def test_one_percent_overstated_cutoff_rejected(self, enumerate_modes):
        modes = enumerate_modes(60.0)
        with pytest.raises(ValueError, match="above the last row"):
            replace(modes, omega_max=60.6).density

    @pytest.mark.parametrize("omega_max, radius", [
        (15.0, 1.0), (61.0, 1.0), (200.0, 1.0), (40.0, 2.9), (150.0, 0.37)])
    @pytest.mark.parametrize("enumerate_modes", [
        em_modes, dirichlet_modes, neumann_modes,
        partial(form_modes, 1), partial(form_modes, 2)],
        ids=["em", "dirichlet", "neumann", "p1", "p2"])
    def test_every_enumerated_list_accepted(self, enumerate_modes,
                                            omega_max, radius):
        modes = enumerate_modes(omega_max, radius)
        assert modes.omega[-1] <= modes.omega_max
        assert modes.density[0] > 0

    @pytest.mark.parametrize("omega_max, detail", [
        (38.0, "lies below 38 of the 374 rows"),
        (44.0, "has c2 = -0.0887 <= 0"),
        (40.4, "lies 0.404 above the last row"),
    ])
    def test_from_csv_names_the_sidecar(self, em40, tmp_path, omega_max,
                                        detail):
        path = tmp_path / "modes.csv"
        em40.to_csv(path)
        meta = tmp_path / "modes.csv.meta.json"
        meta.write_text(json.dumps({**json.loads(meta.read_text()),
                                    "omega_max": omega_max}))
        with pytest.raises(ValueError) as err:
            ModeList.from_csv(path)
        assert str(err.value).startswith(
            f"modes.csv.meta.json: omega_max {omega_max:g} ")
        assert detail in str(err.value)


class TestRootSolver:
    @settings(max_examples=60, deadline=None)
    @given(l=st.integers(0, 200), below=st.booleans(), shrink=shrinks,
           data=st.data())
    def test_zeros_between_neighbour_order_zeros(self, ladder, l, below,
                                                 shrink, data):
        # zeros of j_l interlace with those of j_(l-1) and of j_(l+1)
        order = l - 1 if below and l > 0 else l + 1
        lo, hi = consecutive_zero_brackets(ladder, data, order)
        check_solver(BESSEL.jl, l, lo, hi, shrink)

    @settings(max_examples=60, deadline=None)
    @given(l=st.integers(1, 200), family=st.sampled_from(["TM", "NEUMANN"]),
           turning=st.booleans(), shrink=shrinks, data=st.data())
    def test_derivative_family_brackets(self, ladder, l, family, turning,
                                        shrink, data):
        f = BESSEL.riccati_prime if family == "TM" else BESSEL.jl_prime
        if turning:
            lo = np.array([math.sqrt(l * (l + 1.0))])
            hi = ladder[l][:1]
        else:
            lo, hi = consecutive_zero_brackets(ladder, data, l)
        check_solver(f, l, lo, hi, shrink)

    def test_lost_sign_change_rejected(self):
        with pytest.raises(spectrum.BracketError):
            spectrum._bisect_brackets(BESSEL.jl, 1, [1.0, 4.0], [2.0, 5.0])


class TestZeroLadder:
    def test_three_families_share_one_ladder(self, monkeypatch):
        spectrum._BALL.clear()
        solve = spectrum._bisect_brackets
        ladder_solves = []

        def counted(f, *args):
            if f == BESSEL.jl:
                ladder_solves.append(args)
            return solve(f, *args)

        monkeypatch.setattr(spectrum, "_bisect_brackets", counted)
        for omega_max in (31.0, 25.0, 30.5):
            for enumerate_modes in (em_modes, dirichlet_modes, neumann_modes):
                enumerate_modes(omega_max)
        assert len(ladder_solves) == 1

    def test_levels_are_read_only(self, ladder):
        assert isinstance(ladder, tuple)
        for z in (ladder[0], ladder[1], ladder[201]):
            with pytest.raises(ValueError, match="read-only"):
                z[0] = 1.0

    @pytest.mark.parametrize("x_max", [20.0, 60.0, 100.0, 200.0])
    def test_each_level_covers_x_max(self, x_max):
        zeros = spectrum._zero_ladder(x_max)
        assert len(zeros) == int(x_max) + 2
        # independent count: j_l has at most one zero per grid cell,
        # since its zeros lie more than pi apart
        grid = np.linspace(0.05, x_max, int(x_max / 0.05))
        l = np.arange(len(zeros))[:, None]
        signs = np.sign(spherical_jn(l, grid))
        counts = np.sum(signs[:, 1:] * signs[:, :-1] < 0, axis=1)
        for l, z in enumerate(zeros):
            assert np.all(np.diff(z) > 0)
            assert np.count_nonzero(z <= x_max) == counts[l], l
            assert z[-1] > x_max, l
            if l:
                prev = zeros[l - 1]
                assert np.all((prev[:len(z)] < z) & (z < prev[1:len(z) + 1]))

    def test_short_level_zero_rejected(self):
        level0 = np.arange(1, 12) * math.pi   # 11 zeros; 30 + 1 + 2 needed
        with pytest.raises(spectrum.BracketError, match="level"):
            spectrum._climb(level0, 31, 30.0)

    def test_evaluations_stay_in_the_certified_domain(self, monkeypatch):
        spectrum._BALL.clear()
        jn = spectrum.spherical_jn
        largest = [0.0]

        def recorded(l, x, *args, **kwargs):
            largest[0] = max(largest[0], float(np.max(x)))
            return jn(l, x, *args, **kwargs)

        monkeypatch.setattr(spectrum, "spherical_jn", recorded)
        for enumerate_modes in (em_modes, dirichlet_modes, neumann_modes):
            enumerate_modes(200.0)
        assert 600.0 < largest[0] <= BESSEL.x_max

    def test_ladder_outside_the_contract_rejected(self, monkeypatch):
        spectrum._BALL.clear()
        monkeypatch.setattr(spectrum, "BESSEL",
                            spectrum.SphericalBesselContract(x_max=300.0))
        with pytest.raises(ValueError, match="verified Bessel domain"):
            em_modes(100.0)
        spectrum._BALL.clear()
        monkeypatch.setattr(spectrum, "BESSEL",
                            spectrum.SphericalBesselContract(l_max=150))
        with pytest.raises(ValueError, match="verified Bessel domain"):
            em_modes(150.0)


ENUMERATORS = {"em": em_modes, "dirichlet": dirichlet_modes,
               "neumann": neumann_modes, "p1": partial(form_modes, 1),
               "p2": partial(form_modes, 2)}


def counted_bessel(monkeypatch):
    """Counts of spherical_jn calls and of the points they evaluate."""
    jn = spectrum.spherical_jn
    counts = {"calls": 0, "points": 0}

    def counted(l, x, *args, **kwargs):
        counts["calls"] += 1
        counts["points"] += np.broadcast(l, x).size
        return jn(l, x, *args, **kwargs)

    monkeypatch.setattr(spectrum, "spherical_jn", counted)
    return counts


class TestBallMemo:
    """The memo of the deepest ball spectrum against cold enumerations."""

    @settings(max_examples=10, deadline=None)
    @given(calls=st.lists(st.tuples(st.floats(4.0, 50.0), st.floats(0.8, 1.3),
                                    st.sampled_from(sorted(ENUMERATORS))),
                          min_size=1, max_size=4))
    @example(calls=[(40.2, 1.0, "em"), (40.7, 1.1, "neumann"),
                    (40.7, 0.9, "p1"), (12.5, 1.2, "p2")])
    def test_any_call_sequence_equals_cold_builds(self, calls):
        spectrum._BALL.clear()
        warm = [ENUMERATORS[name](x / radius, radius)
                for x, radius, name in calls]
        for (x, radius, name), got in zip(calls, warm):
            spectrum._BALL.clear()
            want = ENUMERATORS[name](x / radius, radius)
            for column in ("family", "l", "m", "multiplicity", "lam"):
                assert same_bits(getattr(got, column), getattr(want, column))
            assert (got.radius, got.omega_max, got.note) == (
                want.radius, want.omega_max, want.note)

    def test_bessel_work_only_for_a_deeper_cutoff(self, monkeypatch):
        spectrum._BALL.clear()
        counts = counted_bessel(monkeypatch)
        three = (em_modes, dirichlet_modes, neumann_modes)
        for enumerate_modes in three:
            enumerate_modes(80.0)
        # the cold work of one ladder and two derivative families at 80
        assert counts == {"calls": 618, "points": 70784}
        for omega_max in (60.0, 79.9, 80.0):
            for enumerate_modes in three:
                enumerate_modes(omega_max)
        assert counts == {"calls": 618, "points": 70784}
        em_modes(95.0)
        assert counts["calls"] > 618

    def test_domain_checked_on_every_call(self, monkeypatch):
        em_modes(200.0)
        monkeypatch.setattr(spectrum, "BESSEL",
                            spectrum.SphericalBesselContract(x_max=300.0))
        with pytest.raises(ValueError, match="verified Bessel domain"):
            em_modes(100.0)

    def test_reach_checked_on_every_call(self):
        spectrum._BALL.clear()
        dirichlet_modes(60.0)
        # plant a ladder whose levels stop short of x_max = 30
        ladder = spectrum._BALL["ladder"]
        spectrum._BALL["ladder"] = tuple(z[z <= 30.0] for z in ladder)
        try:
            with pytest.raises(spectrum.BracketError, match="level 0 ends"):
                dirichlet_modes(30.0)
        finally:
            spectrum._BALL.clear()

    def test_prefix_levels_are_read_only(self):
        spectrum._BALL.clear()
        deep = spectrum._zero_ladder(60.0)
        zeros = spectrum._zero_ladder(20.0)
        assert len(zeros) == 22
        for l, z in enumerate(zeros):
            assert len(z) == 23 - l and np.shares_memory(z, deep[l])
            with pytest.raises(ValueError, match="read-only"):
                z[0] = 1.0


def envelope_error(contract, n_samples=60, seed=20240901, dps=30):
    """Worst error of the contract's j_l and j_l' against 30-digit
    references (mpmath, sqrt(pi/2x) J_(l+1/2)) over a seeded sample grid,
    relative to the local envelope max(|j_l|, |j_l'|)."""
    import mpmath as mp

    def ref(l, x):
        xm = mp.mpf(x)
        j = mp.sqrt(mp.pi / (2 * xm)) * mp.besselj(l + mp.mpf(1) / 2, xm)
        if l == 0:
            xj = mp.sqrt(mp.pi / (2 * xm)) * mp.besselj(mp.mpf(3) / 2, xm)
            return j, -xj
        jm = mp.sqrt(mp.pi / (2 * xm)) * mp.besselj(l - mp.mpf(1) / 2, xm)
        return j, jm - (l + 1) / xm * j

    rng = np.random.default_rng(seed)
    cases = [(contract.l_max, contract.x_max), (120, 200.0), (0, 1e-2)]
    for _ in range(n_samples):
        l = int(rng.integers(0, contract.l_max + 1))
        x = float(rng.uniform(max(0.3, 0.45 * l), contract.x_max))
        cases.append((l, x))
    worst = 0.0
    with mp.workdps(dps):
        for l, x in cases:
            rj, rjp = ref(l, x)
            scale = float(max(abs(rj), abs(rjp)))
            err = max(abs(contract.jl(l, x) - float(rj)),
                      abs(contract.jl_prime(l, x) - float(rjp))) / scale
            worst = max(worst, err)
    return worst


class TestBesselContract:
    def test_envelope_accuracy(self):
        worst = envelope_error(BESSEL, n_samples=25, seed=11)
        assert worst < BESSEL.rtol

    @pytest.mark.parametrize("derivative", [False, True])
    def test_kernels_equal_the_public_scipy_function(self, derivative):
        # seeded sample of the certified domain, its corners included
        rng = np.random.default_rng(20261018)
        l = np.r_[0, 0, BESSEL.l_max, BESSEL.l_max,
                  rng.integers(0, BESSEL.l_max + 1, 20000)]
        x = np.r_[1e-3, BESSEL.x_max, 1e-3, BESSEL.x_max,
                  rng.uniform(0.0, BESSEL.x_max, 20000)]
        x[-100:] = BESSEL.x_max - rng.uniform(0.0, 1.0, 100)
        assert same_bits(spectrum.spherical_jn(l, x, derivative),
                         spherical_jn(l, x, derivative))
        for order in (0, 1, 37, BESSEL.l_max):     # scalar l
            assert same_bits(spectrum.spherical_jn(order, x[:500], derivative),
                             spherical_jn(order, x[:500], derivative))
            assert same_bits(spectrum.spherical_jn(order, 639.75, derivative),
                             spherical_jn(order, 639.75, derivative))

    @pytest.mark.parametrize("omega_max", [20.0, 55.5, 100.0])
    def test_enumeration_equals_the_public_scipy_function(self, monkeypatch,
                                                          omega_max):
        def three_lists():
            spectrum._BALL.clear()
            return [enumerate_modes(omega_max) for enumerate_modes in
                    (em_modes, dirichlet_modes, neumann_modes)]

        direct = three_lists()
        monkeypatch.setattr(spectrum, "spherical_jn", spherical_jn)
        public = three_lists()
        spectrum._BALL.clear()
        for got, want in zip(direct, public):
            for name in ("family", "l", "m", "multiplicity", "lam"):
                assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_domain_constants(self):
        assert BESSEL.x_max >= 210.0
        assert BESSEL.l_max >= 205
