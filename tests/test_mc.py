"""Monte Carlo estimators: functional correctness on analytic covariances,
statistical agreement with closed forms, inflation-factor optimality."""

from math import inf, log2, nan, sqrt

import numpy as np
import pytest

from ccdp import (
    CcdpError,
    ChannelParams,
    DegenerateCovariance,
    DomainError,
    InvalidSplit,
    SimulationConfig,
    decompose_states,
    estimate_gp_rate,
    estimate_san_rate,
    gaussian_mi,
    gp_rate_closed_form,
    gp_rate_lambda_profile,
    state_split_reduction,
    verify_decomposition_stats,
    verify_scheme_rate,
)
from ccdp.mc import SchemeSystem, delta_stderr, mi_gradient


def config(M=2, P=10.0, c2=4.0, rho=0.0, ab=0.0, n=200_000, seed=3):
    return SimulationConfig(
        params=ChannelParams(M, P, sqrt(c2), rho),
        samples=n, seed=seed, alpha_bar=ab)


# ---------------------------------------------------------------------------
# The Gaussian MI functional on analytic covariances (no sampling noise).
# ---------------------------------------------------------------------------

def test_functional_reproduces_san_closed_form():
    for M, c2, ab in ((2, 4.0, 0.0), (3, 9.0, 0.3), (4, 0.0, 0.5)):
        p = ChannelParams(M, 10.0, sqrt(c2), 0.0)
        sys = SchemeSystem(p, ab)
        cov = sys.analytic_cov(["X_san", "Y_1"])
        got = gaussian_mi(cov, [0], [1])
        want = 0.5 * log2(1 + (1 - ab) * 10.0 / (c2 + ab * 10.0 + 1))
        assert got == pytest.approx(want, abs=1e-10)


def test_functional_reproduces_gp_closed_form():
    for c2, ab in ((4.0, 1.0), (4.0, 0.3), (25.0, 0.7)):
        p = ChannelParams(2, 10.0, sqrt(c2), 0.0)
        sys = SchemeSystem(p, ab)
        names = ["Y_1", "U_1", "S_1", "X_san"]
        cov = sys.analytic_cov(names)
        cond = [3] if ab < 1.0 else []
        got = gaussian_mi(cov, [0], [1], cond) - gaussian_mi(cov, [1], [2])
        assert got == pytest.approx(0.5 * log2(1 + ab * 10.0), abs=1e-10)


def test_functional_reproduces_common_precoding_closed_form():
    p = ChannelParams(3, 10.0, 2.0, 0.64)
    ab = 0.25
    sys = SchemeSystem(p, ab)
    cov = sys.analytic_cov(["Y_2", "U_san", "S_c"])
    got = gaussian_mi(cov, [0], [1]) - gaussian_mi(cov, [1], [2])
    resid = ab * 10.0 + (1 - 0.64) * 4.0 + 1.0
    assert got == pytest.approx(0.5 * log2(1 + 0.75 * 10.0 / resid), abs=1e-10)


def test_gp_closed_form_special_points():
    assert gp_rate_closed_form(3.0, 4.0, 0.75) == pytest.approx(1.0, abs=1e-12)
    assert gp_rate_closed_form(3.0, 4.0, 0.0) == pytest.approx(
        0.5 * log2(1 + 3.0 / 5.0), abs=1e-12)
    assert gp_rate_closed_form(10.0, 0.0, 0.3) == pytest.approx(
        0.5 * log2(11.0), abs=1e-12)


@pytest.mark.parametrize("q", [3.0, 7e-3, 1e6])
def test_gp_closed_form_at_zero_gain_takes_any_finite_lam(q):
    # with no state the rate does not depend on lam: every finite lam gives the
    # bits of lam = 0, also past lam = 1.3e154, where lam*lam*c2 was inf*0 = NaN
    rate = gp_rate_closed_form(q, 0.0, 0.0)
    assert rate == pytest.approx(0.5 * log2(1.0 + q), rel=1e-12)
    for lam in (0.3, -2.0, 1e100, 1.3e154, 1e200, -1e300, 1.7976931348623157e308):
        assert gp_rate_closed_form(q, 0.0, lam).hex() == rate.hex()
    for lam in (inf, -inf, nan):
        with pytest.raises(DomainError):
            gp_rate_closed_form(q, 0.0, lam)


def test_degenerate_covariance_raises():
    cov = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(DegenerateCovariance):
        gaussian_mi(cov, [0], [1])


# ---------------------------------------------------------------------------
# Estimators against closed forms (moderate n, fixed seeds).
# ---------------------------------------------------------------------------

def test_san_estimate_within_three_sigma():
    for seed in (1, 2, 3):
        est = estimate_san_rate(config(ab=0.0, seed=seed))
        assert est.closed_form == pytest.approx(0.5 * log2(3.0), abs=1e-12)
        assert abs(est.z_score) < 4.0
        assert est.stderr > 0


def test_san_estimate_awgn_point():
    est = estimate_san_rate(config(c2=0.0, ab=0.0))
    assert est.closed_form == pytest.approx(0.5 * log2(11.0), abs=1e-12)
    assert abs(est.z_score) < 4.0


def test_san_estimate_zero_power_layer():
    est = estimate_san_rate(config(ab=1.0))
    assert est.value == 0.0 and est.closed_form == 0.0
    assert est.stderr > 0 and est.z_score == 0.0


def test_gp_estimate_full_power():
    est = estimate_gp_rate(config(ab=1.0))
    assert est.closed_form == pytest.approx(0.5 * log2(11.0), abs=1e-12)
    assert abs(est.z_score) < 4.0


def test_gp_estimate_partial_power():
    est = estimate_gp_rate(config(ab=0.3))
    assert est.closed_form == pytest.approx(1.0, abs=1e-12)
    assert abs(est.z_score) < 4.0


def test_gp_estimate_rejects_zero_power():
    with pytest.raises(InvalidSplit):
        estimate_gp_rate(config(ab=0.0))


def test_gp_without_inflation_loses_rate():
    # lam = 0 turns pre-coding off; the estimate drops to the
    # state-as-interference value, far below the pre-coded rate
    est = estimate_gp_rate(config(ab=1.0, n=100_000), lam=0.0)
    assert est.closed_form == pytest.approx(0.5 * log2(3.0), abs=1e-12)
    assert est.value < 0.5 * log2(11.0) - 0.2
    assert abs(est.z_score) < 4.0


def test_scheme_rate_independent_states():
    r = verify_scheme_rate(config(ab=0.3))
    assert r.closed_form == pytest.approx(0.9534452978042593, abs=1e-12)
    assert abs(r.combined_rate - r.closed_form) <= 3 * r.combined_stderr
    assert len(r.per_receiver) == 2
    san, gp = r.per_receiver[0]
    assert san.closed_form == pytest.approx(0.5 * log2(1 + 7 / 8), abs=1e-12)
    assert gp.closed_form == pytest.approx(0.5 * log2(4.0), abs=1e-12)


def test_scheme_rate_degenerates_to_awgn():
    r = verify_scheme_rate(config(M=4, c2=0.0, ab=0.0))
    assert r.closed_form == pytest.approx(0.5 * log2(11.0), abs=1e-12)
    assert abs(r.combined_rate - r.closed_form) <= 3 * r.combined_stderr
    assert all(gp is None for _, gp in r.per_receiver)


def test_scheme_rate_correlated_states():
    # common component pre-coded away; effective squared gain 1.44
    p = ChannelParams(3, 10.0, 2.0, 0.64)
    cfg = SimulationConfig(params=p, samples=200_000, seed=5, alpha_bar=0.0)
    r = verify_scheme_rate(cfg)
    assert r.closed_form == pytest.approx(0.5 * log2(1 + 10 / 2.44), abs=1e-12)
    assert abs(r.combined_rate - r.closed_form) <= 3 * r.combined_stderr


def test_scheme_rate_correlated_with_split():
    p = ChannelParams(3, 10.0, 2.0, 0.64)
    cfg = SimulationConfig(params=p, samples=200_000, seed=6, alpha_bar=0.4)
    r = verify_scheme_rate(cfg)
    ceff2 = 4.0 * 0.36
    want = 0.5 * log2(1 + 6.0 / (ceff2 + 4.0 + 1.0)) + log2(5.0) / 6.0
    assert r.closed_form == pytest.approx(want, abs=1e-12)
    assert abs(r.combined_rate - r.closed_form) <= 3 * r.combined_stderr


def test_estimates_reproducible():
    a = estimate_san_rate(config(seed=9))
    b = estimate_san_rate(config(seed=9))
    assert a.value == b.value and a.stderr == b.stderr


def test_threads_do_not_change_estimate():
    a = estimate_san_rate(config(seed=11), threads=1)
    b = estimate_san_rate(config(seed=11), threads=4)
    assert a.value == b.value


def test_stderr_calibrated_against_seed_spread():
    # delta-method stderr should match the empirical spread across seeds
    ests = [estimate_san_rate(config(n=50_000, seed=s)) for s in range(16)]
    spread = np.std([e.value for e in ests], ddof=1)
    typical = np.median([e.stderr for e in ests])
    assert 0.4 < spread / typical < 2.5


# ---------------------------------------------------------------------------
# Inflation-factor profile.
# ---------------------------------------------------------------------------

def test_lambda_profile_peaks_at_mmse_value():
    cfg = config(ab=0.3, n=300_000, seed=7)
    lambdas = np.linspace(0.0, 1.0, 101)
    profile = gp_rate_lambda_profile(cfg, lambdas)
    lam_star = 3.0 / 4.0  # abP/(abP+1)
    assert abs(lambdas[int(np.argmax(profile))] - lam_star) <= 0.01 + 1e-12


# ---------------------------------------------------------------------------
# Decomposition statistics and the gain-reduction argument.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("M,rho", [(2, 0.5), (4, -1.0 / 3.0)])
def test_decomposition_stats_small(M, rho):
    d = decompose_states(ChannelParams(M, 1.0, 1.0, rho))
    err = verify_decomposition_stats(d, 100_000, seed=2)
    assert err < 0.03


def test_decomposition_error_shrinks_like_root_n():
    # 100x more samples should cut the error about 10x (within a factor 3)
    d = decompose_states(ChannelParams(2, 1.0, 1.0, 0.5))
    coarse = verify_decomposition_stats(d, 10**4, seed=31)
    fine = verify_decomposition_stats(d, 10**6, seed=32)
    assert 10.0 / 3.0 < coarse / fine < 30.0


def test_decomposition_stats_rejects_tiny_n():
    d = decompose_states(ChannelParams(2, 1.0, 1.0, 0.5))
    with pytest.raises(ValueError):
        verify_decomposition_stats(d, 5000, seed=1)


def test_state_split_reduction_matches():
    p = ChannelParams(3, 10.0, 2.0, 0.25)
    n = 200_000
    out = state_split_reduction(p, theta=0.4, n=n, seed=21)
    target = out["analytic"]
    # second-moment estimates have sd ~ sqrt((C_ii*C_jj + C_ij^2)/n) per
    # entry; the difference of two independent runs is sqrt(2) larger
    sd = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / n)
    assert out["max_abs_difference"] < 5.0 * sqrt(2.0) * sd.max()
    assert out["max_abs_error_vs_analytic"] < 5.0 * sd.max()
    # the analytic target is the reduced-gain channel's covariance
    assert target[0, 0] == pytest.approx(10.0)
    assert target[1, 1] == pytest.approx(10.0 + 0.4 * 4.0 + 1.0)


def test_simulation_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(params=ChannelParams(2, 1.0, 1.0, 0.0), samples=10)
    with pytest.raises(InvalidSplit):
        SimulationConfig(params=ChannelParams(2, 1.0, 1.0, 0.0), alpha_bar=1.2)
    with pytest.raises(ValueError):
        SimulationConfig(params=ChannelParams(2, 1.0, 1.0, 0.0), target="bogus")


@pytest.mark.parametrize("over", [dict(samples=0), dict(samples=-5),
                                  dict(target="bogus")])
def test_simulation_config_errors_are_ccdp_errors(over):
    with pytest.raises(CcdpError):
        SimulationConfig(params=ChannelParams(2, 1.0, 1.0, 0.0), **over)


def test_delta_stderr_positive_and_scales():
    p = ChannelParams(2, 10.0, 2.0, 0.0)
    sys = SchemeSystem(p, 0.0)
    cov = sys.analytic_cov(["X_san", "Y_1"])
    g = mi_gradient(cov, [0], [1])
    assert delta_stderr(cov, g, 10_000) == pytest.approx(
        10.0 * delta_stderr(cov, g, 1_000_000), rel=1e-9)
