"""Mixing-measure numerics: potentials, quadrature, moments, sampling,
minimum classification, and asymptotic moment formulas."""

import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwrmt import (
    DeFinettiMeasure,
    LaplaceExpansion,
    PointMass,
    Potential,
    curie_weiss_potential,
    find_minimum,
    laplace_moment_asymptotic,
    magnetization,
)
from cwrmt import definetti
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

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" \
    / "measure_reference.json"

# log Z = log int e^{-S F_beta(t)/2} / (1 - t^2) dt, one cell per beta, from
# mpmath at 40 and 50 digits (they agree to 1e-39), kept to 30:
#   import mpmath as mp
#   def logz(beta, S, dps):
#       with mp.workdps(dps):
#           beta, S = mp.mpf(beta), mp.mpf(S)
#           g = lambda y: y * y / beta - 2 * mp.log(mp.cosh(y))
#           ys = (mp.findroot(lambda y: y / beta - mp.tanh(y), beta)
#                 if beta > 1 else mp.mpf(0))
#           gs = g(ys)
#           pts = sorted({mp.mpf(0), ys, *[
#               p for k in range(60)
#               for p in (ys + 2**k / mp.sqrt(S) / 16,
#                         ys - 2**k / mp.sqrt(S) / 16) if p > 0]})
#           pts = [p for p in pts if S / 2 * (g(p) - gs) < 2000] + [mp.inf]
#           I = mp.quad(lambda y: mp.exp(-S / 2 * (g(y) - gs)), pts)
#           return -S / 2 * gs + mp.log(2 * I)
#   mp.nstr(logz("5", "1e10", 40), 30)
LOGZ_PINS = [
    (0.3, 1e10, "-11.017635861963749321899000324"),
    (0.99, 1.0, "1.40891336527792202118855530763"),
    (1.0, 1.7e7, "-2.94602217721088502455620717481"),
    (1.01, 1e3, "-0.29314483589541199923413255514"),
    (2.0, 1e6, "326519.02931529376003986494505"),
    (5.0, 1e10, "18068982380.581042919858500836"),
    (8.0, 1.0, "5.95865930404459070590617791859"),
    (15.0, 1.7e7, "115716492.572231383844097042541"),
]


# (nu, P) of the minimum of F_beta, F(t) - F(a) ~ P (t - a)^nu, from mpmath
# at 30 digits: P = (1/beta - sech^2 y*) cosh^4 y* = F''(a)/2 with
# y* = beta m(beta), and P = 1/6 = F''''(0)/24 at beta = 1:
#   import mpmath as mp
#   mp.mp.dps = 30
#   b = mp.mpf(beta)
#   ys = mp.findroot(lambda y: y / b - mp.tanh(y), b) if b > 1 else 0
#   mp.nstr((1 / b - mp.sech(ys) ** 2) * mp.cosh(ys) ** 4, 25)
MINIMUM_PINS = [
    (0.3, 2, "2.333333333333333333333333"),
    (0.5, 2, "1.0"),
    (0.99, 2, "0.01010101010101010101010101"),
    (1.0, 4, "0.1666666666666666666666667"),
    (1.01, 2, "0.02077300634091797320680944"),
    (1.5, 2, "5.843287381897222047214322"),
    (2.0, 2, "60.23394531637484990907015"),
    (5.0, 2, "6049150.492109183040694652"),
    (8.0, 2, "616891739542.3031948445511"),
    (15.0, 2, "475836412415365036833128.2"),
]


def _artanh_power(k):
    """artanh(t)^k = y^k: its minimum at 0 has order k and P = 1."""
    return Potential(lambda y, y0: y**k - y0**k, label=f"artanh{k}")


def _bump(y, y0):
    """t^2 (1 - t^2) = tanh^2 y sech^2 y: finite at the endpoints."""
    def g(y):
        return np.tanh(y) ** 2 / np.cosh(y) ** 2
    return g(y) - g(y0)


class _FixedUniforms:
    """Stands in for a Generator: `random(size)` returns the given u."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return self.u


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

def _F(p, t):
    """F(t) = G(artanh t) - G(0) from the y-form, as F(0) = 0."""
    return float(p.fn_y(np.asarray(math.atanh(t)), 0.0))


class TestCurieWeissPotential:
    def test_value_pins(self):
        assert _F(curie_weiss_potential(2.0), 0.5) == pytest.approx(
            F_2_AT_HALF, abs=1e-14)
        assert _F(curie_weiss_potential(0.5), 0.3) == pytest.approx(
            F_HALF_AT_03, abs=1e-14)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 15.0])
    @pytest.mark.parametrize("t", [0.1, 0.35, 0.7, 0.95, 1.0 - 1e-6])
    def test_value_matches_independent_formula(self, t, beta):
        # the cancellation-free y-form against the t-form
        # artanh(t)^2/beta + log1p(-t^2)
        expected = math.atanh(t) ** 2 / beta + math.log1p(-t * t)
        assert _F(curie_weiss_potential(beta), t) == pytest.approx(
            expected, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_nonpositive_beta_rejected(self, beta):
        with pytest.raises(DomainError):
            curie_weiss_potential(beta)


class TestPotentialType:
    def test_non_finite_rejected(self):
        # artanh((1 + 2e-6) t)^2 is finite below |t| = 1 - 2e-6 only, so the
        # finiteness probe at t = 1 - 1e-6 rejects it
        def fn_y(y, y0):
            def g(y):
                return np.arctanh(np.tanh(y) * (1 + 2e-6)) ** 2
            return g(y) - g(y0)
        with pytest.raises(DomainError, match="not finite"), \
                np.errstate(invalid="ignore"):
            Potential(fn_y)

    def test_even_by_construction(self):
        # measures and the classifier read G at |y|, so even a y-form that
        # is odd in y states an even F
        p = Potential(lambda y, y0: y**3 - y0**3, label="cubic")
        y = np.array([0.1, 0.7, 3.0])
        assert np.array_equal(definetti._excess(p, -y, 0.0),
                              definetti._excess(p, y, 0.0))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

class TestNormalize:
    def test_total_mass_one(self):
        m = DeFinettiMeasure(curie_weiss_potential(0.5), 1e4)
        assert math.isfinite(m.log_normalizer)
        assert m.moment(0) == 1.0
        ts, cs = m.cdf_table
        assert cs[0] == pytest.approx(0.0, abs=1e-9)
        assert cs[-1] == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(ts) > 0)
        assert np.all(np.diff(cs) > 0)

    def test_moments_match_mpmath_reference(self):
        # all 40 beta x S cells of the 30-digit mpmath table build, and their
        # moments K = 2..8 agree to 1e-10 relative
        cells = json.loads(REFERENCE.read_text())["cells"]
        assert len(cells) == 40
        worst = 0.0
        for cell in cells:
            m = DeFinettiMeasure(curie_weiss_potential(cell["beta"]),
                                 cell["scale"])
            for K, want in cell["moments"].items():
                worst = max(worst, abs(m.moment(int(K)) / float(want) - 1.0))
        assert worst < 1e-10

    @pytest.mark.parametrize("beta,scale", [(0.5, 1e4), (2.0, 1e4), (1.0, 1e3)])
    def test_self_convergence_under_refinement(self, beta, scale):
        # halving every panel of the table changes log Z by less than 1e-9
        m = DeFinettiMeasure(curie_weiss_potential(beta), scale)
        ys = m._ys
        doubled = np.unique(np.concatenate([ys, 0.5 * (ys[:-1] + ys[1:])]))
        x, w = definetti._nodes(doubled[:-1], doubled[1:], definetti._GL16)
        mass = float((m._density(x) * w).sum())
        refined = -0.5 * scale * m.minimum.F_at_a + math.log(2.0 * mass)
        assert abs(refined - m.log_normalizer) < 1e-9

    @pytest.mark.parametrize("beta,scale,want", LOGZ_PINS,
                             ids=[f"{b:g}-{s:g}" for b, s, _ in LOGZ_PINS])
    def test_log_normalizer_matches_mpmath(self, beta, scale, want):
        m = DeFinettiMeasure(curie_weiss_potential(beta), scale)
        assert m.log_normalizer == pytest.approx(float(want), rel=1e-13)

    def test_concentration_with_increasing_scale(self):
        pot = curie_weiss_potential(0.5)
        # +-0.01 is 1 and 10 standard deviations at S = 1e4 and 1e6
        masses = [DeFinettiMeasure(pot, S).mass(-0.01, 0.01)
                  for S in (1e2, 1e4, 1e6)]
        assert masses[0] < masses[1] < masses[2] <= 1.0 + 1e-12
        assert masses[2] > 1.0 - 1e-9

    def test_non_integrable_density_rejected(self):
        # finite at the endpoints, so 1/(1-t^2) wins and the mass diverges
        with pytest.raises(IntegrabilityError):
            DeFinettiMeasure(Potential(_bump, label="bump"), 1e4)


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

    @pytest.mark.parametrize("beta", [0.5, 1.5, 2.0])
    @pytest.mark.parametrize("scale", [1e4, 1e6])
    def test_cdf_inverts_sampler(self, beta, scale):
        # cdf and sample_t read one table, so cdf undoes the sampler's map
        # u -> t up to the table's error bound, 1e-8
        m = DeFinettiMeasure(curie_weiss_potential(beta), scale)
        u = np.concatenate([np.linspace(0.0, 1.0, 100_001)[:-1],
                            0.5 + np.linspace(-1e-6, 1e-6, 1001),
                            [1e-12, 1.0 - 1e-12]])
        t = m.sample_t(_FixedUniforms(u), size=len(u))
        assert np.max(np.abs(m.cdf(t) - u)) <= 1e-8
        assert m.table_error <= 1e-8

    def test_draws_stay_inside_open_interval(self, rng):
        # at beta = 15, S = 1 about a tenth of the mass lies at y > 19, where
        # tanh y rounds to 1; draws keep |t| < 1, the support of the measure
        m = DeFinettiMeasure(curie_weiss_potential(15.0), 1.0)
        draws = m.sample_t(rng, size=10_000)
        assert np.all(np.abs(draws) < 1.0)
        assert np.mean(draws == np.nextafter(1.0, 0.0)) > 0.01

    @pytest.mark.parametrize("size", [
        None, 2**14, 2**14 + 1, 3 * 2**14 + 5, (3 * 2**14 + 5, 1),
        (2**12 + 1, 13)])
    def test_sliced_map_keeps_every_bit(self, size):
        # sample_t maps u to t a slice at a time; the map is elementwise, so
        # each draw has the bits of the one-shot formula, at every shape
        m = DeFinettiMeasure(curie_weiss_potential(1.5), 1e4)
        u = np.random.default_rng(5).random(size)
        v = 2.0 * np.asarray(u) - 1.0
        y = definetti._hermite(np.abs(v), m._us, m._ys, m._dydu)
        want = np.copysign(np.minimum(np.tanh(y), definetti._T_MAX), v)
        got = m.sample_t(np.random.default_rng(5), size=size)
        if size is None:
            assert type(got) is float
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == want.tobytes()

    def test_draw_memory_is_sliced(self):
        # 10^5 draws hold u, t and one slice's temporaries; mapping them at
        # once peaked at 11-13 MB
        m = DeFinettiMeasure(curie_weiss_potential(0.5), 1e4)
        rng = np.random.default_rng(3)
        tracemalloc.start()
        try:
            m.sample_t(rng, size=(10**5, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    @pytest.mark.parametrize("beta,scale", [(0.3, 1.0), (15.0, 1e10),
                                            (1.5, 1e4), (1.0, 1e12)])
    def test_guide_gives_the_searched_interval(self, beta, scale):
        # the guide's cells [g, g + 1) / 2^12 have exact edges, so where a
        # cell knows its row that is the searched row of every u in it, and
        # the guided interpolant keeps every bit of the searched one: at 0
        # and 1, the table's own values (at beta = 15, S = 1e10 many lie
        # within 1e-7 of 1), each cell edge and both its neighbours, and
        # 10^5 uniforms
        m = DeFinettiMeasure(curie_weiss_potential(beta), scale)
        us, n = m._us, len(m._us)
        edges = np.arange(definetti._GUIDE + 1) / definetti._GUIDE
        x = np.concatenate([
            [0.0, 1.0], us, edges, np.nextafter(edges, 0.0),
            np.nextafter(edges, 1.0),
            np.random.default_rng(9).random(10**5)])
        x = x[(0.0 <= x) & (x <= 1.0)]
        want = np.clip(np.searchsorted(us, x, "right") - 1, 0, n - 2)
        row = m._guide[(x * definetti._GUIDE).astype(np.intp)]
        known = row >= 0
        assert 0.5 < np.mean(known) < 1.0  # both paths are taken
        assert np.array_equal(np.clip(row[known], 0, n - 2), want[known])
        guided = definetti._hermite(x, us, m._ys, m._dydu, m._guide)
        searched = definetti._hermite(x, us, m._ys, m._dydu)
        assert guided.tobytes() == searched.tobytes()

    def test_point_mass_sampling(self, rng):
        pm = PointMass(0.3)
        assert pm.sample_t(rng) == 0.3
        assert np.all(pm.sample_t(rng, size=5) == 0.3)


# ---------------------------------------------------------------------------
# caches and the Curie-Weiss excess
# ---------------------------------------------------------------------------

class TestCaches:
    def test_one_potential_per_beta(self):
        assert curie_weiss_potential(0.7) is curie_weiss_potential(0.7)
        assert curie_weiss_potential(0.7) is not curie_weiss_potential(0.8)

    def test_minimum_found_once_per_potential(self, monkeypatch):
        # each minimum is bisected once; a fresh potential keys a fresh entry
        p = Potential(lambda y, y0: definetti._cw_excess(0.7, y, y0),
                      label="fresh")
        bisect, calls = definetti._bisect, []
        monkeypatch.setattr(definetti, "_bisect",
                            lambda *args: calls.append(args) or bisect(*args))
        measures = [DeFinettiMeasure(p, S) for S in (1e2, 1e3, 1e4, 1e5, 1e6)]
        assert len(calls) == 1
        assert len({id(m.minimum) for m in measures}) == 1

    def test_racing_threads_share_one_potential_and_minimum(self,
                                                            monkeypatch):
        # more threads than cores ask for a fresh beta at once; the slowed
        # bisection keeps the first inside the minimum while the others ask
        bisect, calls = definetti._bisect, []

        def slow(*args):
            calls.append(args)
            time.sleep(0.05)
            return bisect(*args)

        monkeypatch.setattr(definetti, "_bisect", slow)
        barrier, got = threading.Barrier(4), []

        def ask(scale):
            barrier.wait(timeout=10)
            p = curie_weiss_potential(0.6543)  # a beta no other test uses
            got.append((p, DeFinettiMeasure(p, scale).minimum))

        threads = [threading.Thread(target=ask, args=(10.0**j,))
                   for j in range(2, 6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(calls) == 1 and len(got) == 4
        assert all(p is got[0][0] and e is got[0][1] for p, e in got)

    @pytest.mark.parametrize("beta", [b for b, _, _ in MINIMUM_PINS])
    def test_cached_minimum_equals_a_fresh_one(self, beta):
        p = curie_weiss_potential(beta)
        DeFinettiMeasure(p, 1e4)
        y, exp = definetti._minimum.__wrapped__(p)
        assert find_minimum(p) == exp
        assert definetti._minimum(p)[0] == y

    def test_errors_are_not_cached(self):
        calls = []

        def downhill(y, y0):
            calls.append(1)
            return y0**2 - y**2
        p = Potential(downhill, label="downhill")
        for tries in (1, 2):
            before = len(calls)
            with pytest.raises(ClassificationError, match="boundary"):
                find_minimum(p)
            assert len(calls) > before, tries


def _two_branch_excess(beta, u, y0):
    """_cw_excess with both of its forms evaluated everywhere."""
    d = u - y0
    with np.errstate(over="ignore", invalid="ignore"):
        near = np.log1p(2.0 * np.sinh(0.5 * (u + y0)) * np.sinh(0.5 * d)
                        / math.cosh(y0))
        far = d + np.log1p(np.expm1(-2.0 * d) / (1.0 + math.exp(2.0 * y0)))
    return d * (u + y0) / beta - 2.0 * np.where(u < 300.0, near, far)


@pytest.mark.parametrize("beta,y0", [(0.5, 0.0), (1.5, 1.3), (15.0, 15.0),
                                     (15.0, 18.4)])
def test_cw_excess_keeps_every_bit_across_its_branches(beta, y0):
    # the overflow form is evaluated only when some u >= 300 needs it
    u = np.concatenate([
        np.linspace(0.0, 600.0, 601), np.linspace(299.0, 301.0, 41),
        np.nextafter(300.0, [0.0, np.inf]), [1e3, 1e6, 1e150]])
    for x in (u, u[u < 300.0], u[u >= 300.0], u[-12:].reshape(3, 4)):
        want = _two_branch_excess(beta, x, y0)
        assert definetti._cw_excess(beta, x, y0).tobytes() == want.tobytes()
    for v in np.concatenate([u[:601:25], u[601:]]):  # all of 299..301
        for x in (float(v), np.asarray(v)):
            got, want = (f(beta, x, y0) for f in (definetti._cw_excess,
                                                  _two_branch_excess))
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


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

    def test_expansion_consistency(self):
        for beta in (0.5, 2.0):
            p = curie_weiss_potential(beta)
            exp = find_minimum(p)
            assert exp.F_at_a == pytest.approx(_F(p, exp.a), abs=1e-14)

    def test_boundary_minimum_rejected(self):
        downhill = Potential(lambda y, y0: y0**2 - y**2, label="downhill")
        with pytest.raises(ClassificationError):
            find_minimum(downhill)

    def test_flat_beyond_order_twelve_rejected(self):
        with pytest.raises(ClassificationError, match="flat beyond order 12"):
            find_minimum(_artanh_power(14))

    @pytest.mark.parametrize("beta,nu,P", MINIMUM_PINS,
                             ids=[f"{b:g}" for b, _, _ in MINIMUM_PINS])
    def test_minimum_matches_mpmath(self, beta, nu, P):
        exp = find_minimum(curie_weiss_potential(beta))
        assert exp.nu == nu
        assert exp.P == pytest.approx(float(P), rel=1e-9)
        assert type(exp.P) is float

    @pytest.mark.parametrize("beta,nu", [
        (1 - 1e-9, 4), (1 + 1e-9, 4), (1 - 1e-7, 2), (1 + 1e-7, 2)])
    def test_order_near_critical(self, beta, nu):
        # G''(y*) <= 1e-8 counts as zero: within about 1e-9 of beta = 1 the
        # minimum is quartic, and from about 1e-7 quadratic
        assert find_minimum(curie_weiss_potential(beta)).nu == nu

    def test_sextic_minimum(self):
        # artanh(t)^6 = y^6: nu = 6 and P = 1, and the K = 2 moment's ratio
        # to Gamma(3/6)/Gamma(1/6) (2/S)^(2/6) rises towards 1
        pot = _artanh_power(6)
        exp = find_minimum(pot)
        assert (exp.a, exp.nu) == (0.0, 6)
        assert exp.P == pytest.approx(1.0, rel=1e-9)
        ratios = [DeFinettiMeasure(pot, S).moment(2)
                  / laplace_moment_asymptotic(exp, 2, S)
                  for S in (1e2, 1e4, 1e6, 1e8)]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert 0.89 < ratios[0] and ratios[-1] > 0.998

    def test_expansion_invariants(self):
        with pytest.raises(ClassificationError):
            LaplaceExpansion(a=0.0, nu=3, P=1.0, F_at_a=0.0)
        with pytest.raises(ClassificationError):
            LaplaceExpansion(a=0.0, nu=14, P=1.0, F_at_a=0.0)
        assert LaplaceExpansion(a=0.0, nu=12, P=1.0, F_at_a=0.0).nu == 12
        with pytest.raises(ClassificationError):
            LaplaceExpansion(a=0.0, nu=2, P=-1.0, F_at_a=0.0)
        with pytest.raises(ClassificationError):
            LaplaceExpansion(a=1.0, nu=2, P=1.0, F_at_a=0.0)


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

    @pytest.mark.parametrize("K", [342, 344, 400, 1000])
    def test_high_moment_stays_finite(self, K):
        # Gamma((K+1)/2) alone overflows a double from K = 344; the value
        # itself is far inside the double range at scale 1e3
        import mpmath as mp
        exp = find_minimum(curie_weiss_potential(0.5))
        with mp.workdps(40):
            want = (mp.gamma(mp.mpf(K + 1) / 2) / mp.gamma(mp.mpf(1) / 2)
                    * (2 / (mp.mpf(exp.P) * 1000)) ** (mp.mpf(K) / 2))
        got = laplace_moment_asymptotic(exp, K, 1e3)
        assert got == pytest.approx(float(want), rel=1e-12)

    def test_moment_beyond_the_double_range_is_typed(self):
        exp = find_minimum(curie_weiss_potential(0.5))
        with pytest.raises(NumericError, match="K=400 at scale=0.001"):
            laplace_moment_asymptotic(exp, 400, 1e-3)
        # below the double range too: a moment read as 0 compares nothing
        with pytest.raises(NumericError, match="K=400 at scale=1e"):
            laplace_moment_asymptotic(exp, 400, 1e6)
        for scale in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError, match="scale must be positive"):
                laplace_moment_asymptotic(exp, 2, scale)

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

def test_classification_error_names_beta():
    # every Curie-Weiss beta of the reference grid builds; a minimum flat
    # beyond order 12 still cannot be classified, and the message names the
    # potential
    with pytest.raises(ClassificationError, match="artanh14"):
        DeFinettiMeasure(_artanh_power(14), 1e4)


@pytest.mark.parametrize("scale", [0.0, -1.0, math.inf, math.nan])
def test_scale_must_be_positive_and_finite(scale):
    with pytest.raises(DomainError, match="positive and finite"):
        DeFinettiMeasure(curie_weiss_potential(0.5), scale)


def test_integrability_error_names_beta_and_scale():
    with pytest.raises(IntegrabilityError, match=r"bump.*scale=1e\+06"):
        DeFinettiMeasure(Potential(_bump, label="bump"), 1e6)


def test_coarse_cdf_table_raises(monkeypatch):
    # a table that cannot meet its error bound within the panel budget is an
    # error, not a reason to switch samplers
    monkeypatch.setattr(definetti, "_TABLE_TOL", 0.0)
    with pytest.raises(NumericError, match=r"beta=0.5.*scale=1000"):
        DeFinettiMeasure(curie_weiss_potential(0.5), 1e3)


def test_supercritical_minimum_in_y():
    # beta = 15 puts m(beta) within 2e-13 of 1; the minimum is found in y,
    # at y* = beta m(beta), and y*, a and F(a) match their closed forms there
    p = curie_weiss_potential(15.0)
    exp = find_minimum(p)
    m = magnetization(15.0)
    assert exp.nu == 2
    assert exp.a == pytest.approx(m, abs=1e-15)
    assert abs(definetti._minimum(p)[0] - 15 * m) <= 5e-15
    assert exp.F_at_a == pytest.approx(
        15.0 * m * m - 2.0 * math.log(math.cosh(15.0 * m)), rel=1e-14)


def test_import_does_not_load_scipy():
    code = ("import sys, cwrmt; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"
