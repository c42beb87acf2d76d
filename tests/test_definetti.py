"""Mixing-measure numerics: potentials, quadrature, moments, sampling,
minimum classification, and asymptotic moment formulas."""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from cwrmt import (
    DeFinettiMeasure,
    LaplaceExpansion,
    PointMass,
    Potential,
    curie_weiss_potential,
    find_minimum,
    laplace_moment_asymptotic,
    log_density_unnormalized,
    magnetization,
)
from cwrmt.ensembles import seed_stream
from cwrmt.errors import (
    ClassificationError,
    DomainError,
    IntegrabilityError,
    NumericError,
)

# regression pins, frozen from independent high-precision evaluation of the
# closed forms (30-digit arithmetic)
F_2_AT_HALF = -0.13681345235020818
F_HALF_AT_03 = 0.097294091300860555
M_OF_1_1 = 0.50294057494464182
M_OF_1_5 = 0.85855963664011036
M_OF_2 = 0.95750402407726874
M_OF_5 = 0.99990912171523255


def _zero_potential():
    return Potential(fn=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                     even=True, label="zero")


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

class TestCurieWeissPotential:
    def test_second_derivative_at_zero_half(self):
        p = curie_weiss_potential(0.5)
        assert p.second_derivative(0.0) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.8, 2.0, 5.0])
    def test_second_derivative_closed_form(self, beta):
        p = curie_weiss_potential(beta)
        assert p.second_derivative(0.0) == pytest.approx(
            2.0 * (1.0 - beta) / beta, abs=1e-12)

    def test_critical_beta_quartic(self):
        p = curie_weiss_potential(1.0)
        assert p.second_derivative(0.0) == pytest.approx(0.0, abs=1e-12)
        assert p.fourth_derivative(0.0) == pytest.approx(4.0, abs=1e-10)

    def test_value_pins(self):
        assert float(curie_weiss_potential(2.0)(0.5)) == pytest.approx(
            F_2_AT_HALF, abs=1e-14)
        assert float(curie_weiss_potential(0.5)(0.3)) == pytest.approx(
            F_HALF_AT_03, abs=1e-14)

    def test_value_matches_independent_formula(self):
        # artanh(0.5) = ln(3)/2
        expected = (math.log(3.0) / 2.0) ** 2 / 2.0 + math.log(0.75)
        assert float(curie_weiss_potential(2.0)(0.5)) == pytest.approx(
            expected, abs=1e-14)

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_nonpositive_beta_rejected(self, beta):
        with pytest.raises(DomainError):
            curie_weiss_potential(beta)

    @pytest.mark.parametrize("beta", [0.4, 1.7])
    def test_analytic_derivatives_match_finite_differences(self, beta):
        p = curie_weiss_potential(beta)
        h = 1e-5
        for t in (0.0, 0.2, -0.45, 0.7):
            fd1 = (float(p(t + h)) - float(p(t - h))) / (2 * h)
            fd2 = (float(p(t + h)) - 2 * float(p(t)) + float(p(t - h))) / h**2
            assert p.first_derivative(t) == pytest.approx(fd1, abs=1e-5)
            assert p.second_derivative(t) == pytest.approx(fd2, abs=1e-3)


class TestPotentialType:
    def test_even_flag_enforced(self):
        with pytest.raises(DomainError):
            Potential(fn=lambda t: np.asarray(t, dtype=float) ** 3
                      + np.asarray(t, dtype=float), even=True)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            Potential(fn=lambda t: np.arctanh(np.asarray(t) * 1.0000001),
                      even=True)

    def test_finite_difference_fallback(self):
        p = Potential(fn=lambda t: np.arctanh(np.asarray(t, dtype=float)) ** 2,
                      even=True, label="atanh-squared")
        # artanh(t)^2 = t^2 + (2/3) t^4 + ...
        assert p.second_derivative(0.0) == pytest.approx(2.0, abs=1e-5)
        assert p.fourth_derivative(0.0) == pytest.approx(16.0, rel=1e-2)


# ---------------------------------------------------------------------------
# log density
# ---------------------------------------------------------------------------

class TestLogDensity:
    def test_zero_potential_at_origin(self):
        holder = types.SimpleNamespace(potential=_zero_potential(), scale=100.0)
        assert log_density_unnormalized(holder, 0.0) == 0.0

    def test_cw_at_origin(self):
        m = DeFinettiMeasure(curie_weiss_potential(0.5), 100.0)
        assert log_density_unnormalized(m, 0.0) == 0.0

    def test_cw_at_03_matches_closed_form(self):
        m = DeFinettiMeasure(curie_weiss_potential(0.5), 100.0)
        expected = -50.0 * F_HALF_AT_03 - math.log(0.91)
        assert log_density_unnormalized(m, 0.3) == pytest.approx(
            expected, abs=1e-11)
        assert m.log_density(0.3) == pytest.approx(expected, abs=1e-11)

    def test_no_overflow_near_endpoint(self):
        m = DeFinettiMeasure(curie_weiss_potential(0.5), 1e6)
        v = log_density_unnormalized(m, 1.0 - 1e-9)
        assert math.isfinite(v)

    @pytest.mark.parametrize("t", [1.0, -1.0, 1.5])
    def test_domain_error(self, t):
        m = DeFinettiMeasure(curie_weiss_potential(0.5), 100.0)
        with pytest.raises(DomainError):
            log_density_unnormalized(m, t)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

class TestNormalize:
    def test_total_mass_one(self):
        m = DeFinettiMeasure(curie_weiss_potential(0.5), 1e4)
        assert math.isfinite(m.normalize())
        assert m.moment(0) == 1.0
        ts, cs = m.cdf_table
        assert cs[0] == pytest.approx(0.0, abs=1e-9)
        assert cs[-1] == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(ts) > 0)
        assert np.all(np.diff(cs) > 0)

    @pytest.mark.parametrize("beta,scale", [(0.5, 1e4), (2.0, 1e4), (1.0, 1e3)])
    def test_self_convergence_under_refinement(self, beta, scale):
        # doubling the panel count changes log Z by less than 1e-9
        m = DeFinettiMeasure(curie_weiss_potential(beta), scale)
        breaks = m._breaks
        doubled = np.unique(np.concatenate(
            [breaks, 0.5 * (breaks[:-1] + breaks[1:])]))
        ys, logw = m._panel_nodes(doubled)
        refined = float(logsumexp(m._log_density_y(ys) + logw))
        assert abs(refined - m.log_normalizer) < 1e-9

    def test_concentration_with_increasing_scale(self):
        pot = curie_weiss_potential(0.5)
        masses = [DeFinettiMeasure(pot, S).mass(-0.1, 0.1)
                  for S in (1e2, 1e4, 1e6)]
        assert masses[0] < masses[1] < masses[2] <= 1.0 + 1e-12
        assert masses[2] > 1.0 - 1e-9

    def test_non_integrable_density_rejected(self):
        # finite at the endpoints, so 1/(1-t^2) wins and the mass diverges
        bump = Potential(
            fn=lambda t: np.asarray(t, dtype=float) ** 2
            * (1.0 - np.asarray(t, dtype=float) ** 2),
            even=True, label="bump")
        with pytest.raises(IntegrabilityError):
            DeFinettiMeasure(bump, 1e4)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

class TestMoments:
    def test_zeroth_moment(self):
        m = DeFinettiMeasure(curie_weiss_potential(0.5), 1e3)
        assert m.moment(0) == 1.0

    def test_odd_moments_exactly_zero(self):
        m = DeFinettiMeasure(curie_weiss_potential(2.0), 1e4)
        for K in (1, 3, 5, 7):
            assert m.moment(K) == 0.0

    def test_second_moment_subcritical(self):
        # near-Gaussian regime: E t^2 ~ (beta/(1-beta))/S
        m = DeFinettiMeasure(curie_weiss_potential(0.5), 1e4)
        assert m.moment(2) == pytest.approx(1e-4, rel=0.05)

    def test_negative_K_rejected(self):
        m = DeFinettiMeasure(curie_weiss_potential(0.5), 1e3)
        with pytest.raises(DomainError):
            m.moment(-1)

    @given(beta=st.floats(0.3, 3.0), log_scale=st.floats(1.0, 4.0))
    @settings(max_examples=10)
    def test_even_moments_decreasing_and_bounded(self, beta, log_scale):
        m = DeFinettiMeasure(curie_weiss_potential(beta), 10.0 ** log_scale)
        evens = [m.moment(2 * j) for j in range(0, 6)]
        assert evens[0] == 1.0
        for lo, hi in zip(evens[1:], evens[:-1]):
            assert -1e-12 <= lo <= hi + 1e-12
        for j in range(1, 6):
            assert m.moment(2 * j - 1) == 0.0


class TestAbsMoment:
    def test_gaussian_regime_asymptotics(self):
        # E|t| ~ sqrt(2/pi) (F''(0)/2)^(-1/2) S^(-1/2); F''(0) = 2 at beta=1/2
        m = DeFinettiMeasure(curie_weiss_potential(0.5), 1e6)
        expected = math.sqrt(2.0 / math.pi) * 1e-3
        assert m.abs_moment() == pytest.approx(expected, rel=0.02)

    def test_concentrated_limit_vanishes(self):
        m = DeFinettiMeasure(curie_weiss_potential(0.01), 1e6)
        assert 0.0 <= m.abs_moment() < 1e-3

    def test_bimodal_supercritical(self):
        m = DeFinettiMeasure(curie_weiss_potential(2.0), 1e6)
        assert m.abs_moment() == pytest.approx(M_OF_2, abs=1e-3)

    def test_point_mass(self):
        assert PointMass(0.0).abs_moment() == 0.0
        assert PointMass(-0.25).abs_moment() == 0.25


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

class TestSampling:
    def test_reproducible(self):
        m = DeFinettiMeasure(curie_weiss_potential(0.5), 1e4)
        t1 = m.sample_t(seed_stream(7, 0, "latent"))
        t2 = m.sample_t(seed_stream(7, 0, "latent"))
        assert t1 == t2
        assert -1.0 < t1 < 1.0

    @pytest.mark.parametrize("beta,scale", [(0.5, 1e4), (2.0, 1e4)])
    def test_empirical_cdf_matches_table(self, beta, scale, rng):
        m = DeFinettiMeasure(curie_weiss_potential(beta), scale)
        draws = np.sort(m.sample_t(rng, size=100_000))
        n = len(draws)
        F = m.cdf(draws)
        ks = max(np.max(np.abs(np.arange(1, n + 1) / n - F)),
                 np.max(np.abs(np.arange(0, n) / n - F)))
        assert ks < 0.01

    def test_bimodal_sign_symmetry(self, rng):
        m = DeFinettiMeasure(curie_weiss_potential(2.0), 1e4)
        draws = m.sample_t(rng, size=10_000)
        assert np.mean(draws > 0) == pytest.approx(0.5, abs=0.02)

    def test_subcritical_concentration(self, rng):
        m = DeFinettiMeasure(curie_weiss_potential(0.5), 1e4)
        draws = m.sample_t(rng, size=10_000)
        assert np.mean(np.abs(draws) < 0.05) >= 0.99

    def test_point_mass_sampling(self, rng):
        pm = PointMass(0.3)
        assert pm.sample_t(rng) == 0.3
        assert np.all(pm.sample_t(rng, size=5) == 0.3)


# ---------------------------------------------------------------------------
# minimum classification
# ---------------------------------------------------------------------------

class TestFindMinimum:
    def test_subcritical_quadratic(self):
        exp = find_minimum(curie_weiss_potential(0.5))
        assert exp.a == 0.0
        assert exp.nu == 2
        assert exp.P == pytest.approx(1.0, abs=1e-10)

    def test_critical_quartic(self):
        exp = find_minimum(curie_weiss_potential(1.0))
        assert exp.a == 0.0
        assert exp.nu == 4
        assert exp.P == pytest.approx(1.0 / 6.0, abs=1e-10)

    def test_supercritical_minimum_at_magnetization(self):
        exp = find_minimum(curie_weiss_potential(2.0))
        assert exp.nu == 2
        assert exp.a == pytest.approx(magnetization(2.0), abs=1e-12)
        assert curie_weiss_potential(2.0).first_derivative(exp.a) == \
            pytest.approx(0.0, abs=1e-9)

    def test_expansion_consistency(self):
        for beta in (0.5, 2.0):
            p = curie_weiss_potential(beta)
            exp = find_minimum(p)
            assert exp.P == pytest.approx(
                p.second_derivative(exp.a) / 2.0, abs=1e-8)
            assert exp.F_at_a == pytest.approx(float(p(exp.a)), abs=1e-14)

    def test_boundary_minimum_rejected(self):
        downhill = Potential(
            fn=lambda t: -np.arctanh(np.asarray(t, dtype=float)) ** 2,
            even=True, label="downhill")
        with pytest.raises(ClassificationError):
            find_minimum(downhill)

    def test_flat_beyond_fourth_order_rejected(self):
        sextic = Potential(
            fn=lambda t: np.asarray(t, dtype=float) ** 6,
            d1=lambda t: 6.0 * t**5,
            d2=lambda t: 30.0 * t**4,
            d4=lambda t: 360.0 * t**2,
            even=True, label="sextic")
        with pytest.raises(ClassificationError):
            find_minimum(sextic)

    def test_expansion_invariants(self):
        with pytest.raises(ClassificationError):
            LaplaceExpansion(a=0.0, nu=3, P=1.0, lam=1.0, Q=1.0, F_at_a=0.0)
        with pytest.raises(ClassificationError):
            LaplaceExpansion(a=0.0, nu=2, P=-1.0, lam=1.0, Q=1.0, F_at_a=0.0)
        with pytest.raises(ClassificationError):
            LaplaceExpansion(a=1.0, nu=2, P=1.0, lam=1.0, Q=1.0, F_at_a=0.0)


# ---------------------------------------------------------------------------
# magnetization
# ---------------------------------------------------------------------------

class TestMagnetization:
    @pytest.mark.parametrize("beta", [0.2, 0.5, 1.0])
    def test_zero_at_or_below_critical(self, beta):
        assert magnetization(beta) == 0.0

    def test_pinned_values(self):
        assert magnetization(1.1) == pytest.approx(M_OF_1_1, abs=1e-12)
        assert magnetization(1.5) == pytest.approx(M_OF_1_5, abs=1e-12)
        assert magnetization(2.0) == pytest.approx(M_OF_2, abs=1e-12)
        assert magnetization(5.0) == pytest.approx(M_OF_5, abs=1e-12)

    def test_fixed_point_residuals_and_monotonicity(self):
        grid = [1.1, 1.5, 2.0, 5.0]
        vals = [magnetization(b) for b in grid]
        for b, m in zip(grid, vals):
            assert abs(math.tanh(b * m) - m) < 1e-12
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            magnetization(0.0)


# ---------------------------------------------------------------------------
# Laplace asymptotics
# ---------------------------------------------------------------------------

class TestLaplaceAsymptotics:
    def test_quadratic_second_moment(self):
        exp = find_minimum(curie_weiss_potential(0.5))
        assert laplace_moment_asymptotic(exp, 2, 1e6) == pytest.approx(
            1e-6, rel=1e-12)

    def test_odd_moments_vanish(self):
        for beta in (0.5, 1.0, 2.0):
            exp = find_minimum(curie_weiss_potential(beta))
            assert laplace_moment_asymptotic(exp, 3, 1e4) == 0.0

    def test_supercritical_plateau(self):
        exp = find_minimum(curie_weiss_potential(2.0))
        m2 = magnetization(2.0) ** 2
        assert laplace_moment_asymptotic(exp, 2, 1e6) == pytest.approx(
            m2, rel=1e-12)
        assert laplace_moment_asymptotic(exp, 4, 1e6) == pytest.approx(
            m2 * m2, rel=1e-12)

    def test_quartic_scaling_exponent(self):
        exp = find_minimum(curie_weiss_potential(1.0))
        v1 = laplace_moment_asymptotic(exp, 2, 1e4)
        v2 = laplace_moment_asymptotic(exp, 2, 1e6)
        # K=2 at a quartic minimum scales like S^(-1/2)
        assert v1 / v2 == pytest.approx(10.0, rel=1e-12)

    def test_zeroth_moment_is_one(self):
        exp = find_minimum(curie_weiss_potential(0.5))
        assert laplace_moment_asymptotic(exp, 0, 1e4) == 1.0

    def test_higher_quadratic_moment_double_factorial(self):
        # K=4: (4-1)!! = 3 times (P*S)^(-2)
        exp = find_minimum(curie_weiss_potential(0.5))
        assert laplace_moment_asymptotic(exp, 4, 1e3) == pytest.approx(
            3.0 * 1e-6, rel=1e-12)

    @pytest.mark.parametrize("K", [2, 4])
    def test_ratio_converges_to_one(self, K):
        pot = curie_weiss_potential(0.5)
        exp = find_minimum(pot)
        devs = []
        for S in (1e3, 1e4, 1e5, 1e6):
            exact = DeFinettiMeasure(pot, S).moment(K)
            asym = laplace_moment_asymptotic(exp, K, S)
            devs.append(abs(exact / asym - 1.0))
        assert all(a > b for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 0.02


# ---------------------------------------------------------------------------
# unsupported inputs and failure messages
# ---------------------------------------------------------------------------

def test_non_even_potential_rejected():
    with pytest.raises(DomainError, match="only even potentials"):
        Potential(fn=lambda t: np.asarray(t, dtype=float) ** 2, even=False,
                  label="flagged-uneven")


def test_classification_error_names_beta():
    with pytest.raises(ClassificationError, match="beta=8"):
        DeFinettiMeasure(curie_weiss_potential(8.0), 1e4)


def test_integrability_error_names_beta_and_scale():
    with pytest.raises(IntegrabilityError, match=r"beta=5.*scale=1e\+06"):
        DeFinettiMeasure(curie_weiss_potential(5.0), 1e6)


def test_coarse_cdf_table_raises(monkeypatch):
    # a table whose interpolation error exceeds 1e-6 is an error, not a
    # reason to switch samplers
    monkeypatch.setattr(DeFinettiMeasure, "_interp_error_estimate",
                        lambda self: 1e-3)
    with pytest.raises(NumericError, match=r"beta=0.5.*scale=1000"):
        DeFinettiMeasure(curie_weiss_potential(0.5), 1e3)
