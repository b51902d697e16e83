"""Monte Carlo estimators: functional correctness on analytic covariances,
statistical agreement with closed forms, inflation-factor optimality."""

from math import inf, isfinite, log2, nan, sqrt

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
    state_covariance,
    verify_decomposition_stats,
    verify_scheme_rate,
)
from ccdp import cli, mc
from ccdp.mc import SchemeSystem, delta_stderr, mi_gradient
from ccdp.model import DRAW_ROWS, SAMPLE_BLOCK, block_generator


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


@pytest.mark.parametrize("c2", [0.0, 4.0])
@pytest.mark.parametrize("q", [1e12, 1e15, 1e17, 1e20])
def test_gp_closed_form_at_large_power_is_the_awgn_rate(q, c2):
    # at the MMSE lam the rate is 1/2*log2(1+q) for any gain; the factored
    # denominator cancelled here, and from q = 1e16 rounded to 0
    assert gp_rate_closed_form(q, c2, q / (q + 1.0)) == pytest.approx(
        0.5 * log2(1.0 + q), rel=1e-15)


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


@pytest.mark.parametrize("receiver", [0, 3, -1, 1.0])
def test_gp_estimate_rejects_a_receiver_outside_1_to_M(receiver):
    with pytest.raises(CcdpError, match="receiver must be in 1..2"):
        estimate_gp_rate(config(ab=0.3, n=1000), receiver=receiver)


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
    mc._MOMENTS.clear()  # the second estimate draws its samples again
    b = estimate_san_rate(config(seed=9))
    assert a.value == b.value and a.stderr == b.stderr


def test_threads_do_not_change_estimate():
    # the shared moments are cleared, so each thread count draws its own
    a = estimate_san_rate(config(seed=11), threads=1)
    mc._MOMENTS.clear()
    b = estimate_san_rate(config(seed=11), threads=4)
    assert a.value == b.value
    runs = []
    for threads in (1, 2):
        mc._MOMENTS.clear()
        runs.append(verify_scheme_rate(config(M=3, rho=0.64, ab=0.3, n=100_000, seed=11),
                                       threads=threads))
    a, b = runs
    assert (a.combined_rate, a.combined_stderr) == (b.combined_rate, b.combined_stderr)
    decomposition = decompose_states(ChannelParams(4, 1.0, 1.0, 0.3))
    runs = []
    for threads in (1, 2):
        mc._MOMENTS.clear()
        runs.append(verify_decomposition_stats(decomposition, 70_000, 11, threads=threads))
    mc._MOMENTS.clear()
    assert runs[0] == runs[1]


def test_draw_moment_is_bit_equal_over_thread_counts():
    # a partial last block with a partial last piece; the pieces' products are
    # added in the same order at any thread count, and the moment agrees with
    # one summed block by block to the round-off of reordered sums
    n = 2 * SAMPLE_BLOCK + 5_003
    moments = [mc._draw_moment(n, 5, 17, threads) for threads in (1, 2, 3)]
    assert all(np.array_equal(moments[0], m) for m in moments[1:])
    blocks = [block_generator(17, b).standard_normal((rows, 5))
              for b, rows in enumerate((SAMPLE_BLOCK, SAMPLE_BLOCK, n - 2 * SAMPLE_BLOCK))]
    by_block = sum(block.T @ block for block in blocks) / n
    assert np.max(np.abs(moments[0] - by_block)) <= 1e3 * np.finfo(float).eps


def test_draw_moment_holds_only_a_few_pieces():
    # numpy reports its data buffers to tracemalloc; a whole 154-column block
    # would be 80.7 MB, and two were alive at once when blocks were drawn whole
    import tracemalloc
    tracemalloc.start()
    try:
        mc._draw_moment(2 * SAMPLE_BLOCK, 154, 7, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * DRAW_ROWS * 154 * 8


@pytest.mark.parametrize("M, rho, ab", [(3, 0.0, 0.5), (4, 0.0, 0.5), (8, 0.0, 0.5),
                                        (3, 0.64, 0.0)])
def test_scheme_z_score_is_calibrated_over_seeds(M, rho, ab):
    # the mean over statistically equivalent receivers with its joint stderr;
    # the minimum over receivers with its own stderr had mean z -0.5 to -0.8
    zs = [verify_scheme_rate(config(M=M, rho=rho, ab=ab, n=1000, seed=s)).z_score
          for s in range(250)]
    mc._MOMENTS.clear()
    assert abs(np.mean(zs)) <= 0.2 and 0.85 <= np.std(zs, ddof=1) <= 1.15


def test_second_moments_are_shared_read_only_and_bounded(monkeypatch):
    draws = []
    blocks = mc.normal_blocks

    def counted(n, width, seed, **start):  # a threaded draw starts each block by keyword
        draws.append((n, width, seed))
        return blocks(n, width, seed, **start)

    monkeypatch.setattr(mc, "normal_blocks", counted)
    mc._MOMENTS.clear()
    first = mc._second_moment(5000, 3, 41)
    assert mc._second_moment(5000, 3, 41, threads=2) is first  # threads is not in the key
    assert draws == [(5000, 3, 41)] and not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 0.0
    for seed in range(mc._MOMENT_SLOTS + 5):
        mc._second_moment(100, 2, seed)
        mc._second_moment(5000, 3, 41)  # the most recently used stays
    assert len(mc._MOMENTS) == mc._MOMENT_SLOTS and len(draws) == mc._MOMENT_SLOTS + 6
    assert (5000, 3, 41) in mc._MOMENTS and (100, 2, 0) not in mc._MOMENTS
    mc._MOMENTS.clear()
    assert np.array_equal(mc._second_moment(5000, 3, 41, threads=2), first)


def test_shared_second_moments_hold_under_concurrent_callers():
    # more threads than cores, switching often: every call gets its own key's
    # moment, and the cache never holds more than its slots
    import sys
    from concurrent.futures import ThreadPoolExecutor
    keys = [(200, 2, seed) for seed in range(mc._MOMENT_SLOTS + 8)]
    mc._MOMENTS.clear()
    want = {key: mc._draw_moment(*key, 1) for key in keys}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda key: (key, mc._second_moment(*key)), keys * 20,
                                timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(moment, want[key]) for key, moment in got)
    assert len(mc._MOMENTS) <= mc._MOMENT_SLOTS


# The six points of acceptance criterion 8 and the four of criterion 9, as
# `ccdp simulate` runs them, with the width of the one moment each draws.
_P2 = ("--M", "2", "--P", "10", "--c2", "4", "--rho", "0")
_SIMULATE_WIDTHS = [
    (("--target", "san", *_P2, "--alpha-bar", "0"), 5),
    (("--target", "san", "--M", "2", "--P", "10", "--c2", "0", "--alpha-bar", "0"), 5),
    (("--target", "gp", *_P2, "--alpha-bar", "1"), 5),
    (("--target", "gp", *_P2, "--alpha-bar", "0.3"), 6),
    (("--target", "scheme", *_P2, "--alpha-bar", "0.3"), 6),
    (("--target", "scheme", "--M", "3", "--P", "10", "--c2", "4", "--rho", "0.64",
      "--alpha-bar", "0"), 8),
    (("--target", "decomposition", "--M", "2", "--rho", "0.5"), 3),
    (("--target", "decomposition", "--M", "4", "--rho", repr(-1.0 / 3.0)), 6),
    (("--target", "decomposition", "--M", "5", "--rho", "0.3"), 6),
    (("--target", "decomposition", "--M", "3", "--rho", "-0.5"), 3),
]


@pytest.fixture
def drawn_widths(monkeypatch):
    # the width of each moment drawn during the test; none is shared with another
    widths = []
    draw = mc._draw_moment

    def counted(n, width, seed, threads):
        widths.append(width)
        return draw(n, width, seed, threads)

    monkeypatch.setattr(mc, "_draw_moment", counted)
    mc._MOMENTS.clear()
    yield widths
    mc._MOMENTS.clear()


def test_simulate_draws_only_the_live_basis_columns(drawn_widths, tmp_path):
    # the full bases are 7, 7, 7, 7, 7, 9, 3, 10, 6 and 6 columns wide
    for seed, (args, _) in enumerate(_SIMULATE_WIDTHS):
        assert cli.main(["simulate", *args, "--samples", "10000", "--seed", str(seed),
                         "--out", str(tmp_path / "out.json")]) == 0
    assert drawn_widths == [width for _, width in _SIMULATE_WIDTHS]


def _design_points():
    # seeded (M, rho, alpha_bar, c) points, with c = 0, alpha_bar at 0 and 1,
    # and rho at both ends of its feasible range among them
    rng = np.random.default_rng(2023)
    points = []
    for M in range(2, 9):
        for rho in (-1.0 / (M - 1), 0.0, 1.0, rng.uniform(-1.0 / (M - 1), 1.0)):
            for ab in (0.0, 1.0, rng.uniform()):
                for c in (0.0, float(np.exp(rng.uniform(-5.0, 5.0)))):
                    points.append((M, rho, ab, c))
    return points


def test_a_scheme_system_keeps_no_dead_basis_column():
    for M, rho, ab, c in _design_points():
        params = ChannelParams(M, 10.0, c, rho)
        system = SchemeSystem(params, ab)
        A = system.transform(system.rows)
        assert A.shape[1] == system.dim and np.all(np.any(A != 0.0, axis=0)), (M, rho, ab, c)
        # no live column was dropped: the states and outputs keep their covariance
        sigma = state_covariance(M, rho).entries
        states = system.analytic_cov([f"S_{m}" for m in range(1, M + 1)])
        outputs = system.analytic_cov([f"Y_{m}" for m in range(1, M + 1)])
        assert np.allclose(states, sigma, rtol=0.0, atol=1e-12), (M, rho, ab, c)
        assert np.allclose(outputs, 10.0 + params.c2 * sigma + np.eye(M),
                           rtol=1e-12, atol=1e-12), (M, rho, ab, c)


def test_stderr_calibrated_against_seed_spread():
    # delta-method stderr should match the empirical spread across seeds
    ests = [estimate_san_rate(config(n=50_000, seed=s)) for s in range(16)]
    spread = np.std([e.value for e in ests], ddof=1)
    typical = np.median([e.stderr for e in ests])
    assert 0.4 < spread / typical < 2.5


# ---------------------------------------------------------------------------
# The scheme estimator: one factor per simulation, each block once per receiver.
# ---------------------------------------------------------------------------

def _scheme_sums(rho, ab, m):
    # the common layer's terms, then the pre-coded layer's, as the scheme has them
    y, u, s = f"Y_{m}", f"U_{m}", f"S_{m}"
    san = [] if ab == 1.0 else (
        [(1.0, [y], ["U_san"], []), (-1.0, ["U_san"], ["S_c"], [])] if rho > 0
        else [(1.0, ["X_san"], [y], [])])
    gp = [] if ab == 0.0 else [(1.0, [y], [u], ["X_san"] if ab < 1.0 else []),
                               (-1.0, [u], [s], [])]
    return san, gp


@pytest.mark.parametrize("rho", [0.0, 0.64])
def test_scheme_builds_one_factor_and_factors_each_block_once(monkeypatch, rho):
    choleskys, receivers, blocks = [], [], []
    cholesky, estimate_sums, factor = mc._cholesky, mc._estimate_sums, mc._factor

    def counted_cholesky(cov):
        choleskys.append(cov.shape)
        return cholesky(cov)

    def counted_sums(rows, sums, n):
        receivers.append(len(receivers))
        return estimate_sums(rows, sums, n)

    def counted_factor(rows, block):
        blocks.append((receivers[-1], block))
        return factor(rows, block)

    monkeypatch.setattr(mc, "_cholesky", counted_cholesky)
    monkeypatch.setattr(mc, "_estimate_sums", counted_sums)
    monkeypatch.setattr(mc, "_factor", counted_factor)
    M = 3
    verify_scheme_rate(config(M=M, rho=rho, ab=0.3, n=1000))
    assert len(choleskys) == 1 and len(receivers) == 1
    want = {k for m in range(1, M + 1) for _, *groups in sum(_scheme_sums(rho, 0.3, m), [])
            for k in mi_gradient(*groups)}
    assert len(blocks) == len(set(blocks)) == len(want)


def test_scheme_calls_the_traced_functional_once_per_sum(monkeypatch):
    # a benchmark tracer wraps mc.mi_gradient and mc.delta_stderr by name
    calls = {"mi_gradient": 0, "delta_stderr": 0}
    for name in calls:
        def counted(*args, _fn=getattr(mc, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(mc, name, counted)
    M = 3
    verify_scheme_rate(config(M=M, ab=0.3, n=1000))
    san, gp = _scheme_sums(0.0, 0.3, 1)
    # each receiver's sum, san and gp, and the mean of the receivers' sums
    assert calls == {"mi_gradient": M * 3 * (len(san) + len(gp)),
                     "delta_stderr": M * 3 + 1}


def _covariance_form(cov, terms, n):
    # the reference: slogdet of each block, inv for the gradient, trace for
    # the delta-method variance (2/n) * tr(G cov G cov)
    value, grad = 0.0, np.zeros_like(cov)
    for w, a, b, cond in terms:
        for group, sign in ((a + cond, 1), (b + cond, 1), (cond, -1), (a + b + cond, -1)):
            if group:
                ix = np.ix_(group, group)
                value += 0.5 * w * sign * np.linalg.slogdet(cov[ix])[1] / np.log(2.0)
                grad[ix] += 0.5 * w * sign * np.linalg.inv(cov[ix])
    gs = grad @ cov
    return value, np.sqrt(2.0 / n * np.trace(gs @ gs)) / np.log(2.0)


@pytest.mark.parametrize("c2,rho", [(4.0, 0.0), (4.0, 0.64), (0.0, 0.0), (0.0, 0.64)])
@pytest.mark.parametrize("ab", [0.0, 0.3, 1.0])
def test_scheme_estimate_equals_the_covariance_form(c2, rho, ab):
    cfg = config(M=3, c2=c2, rho=rho, ab=ab, n=20_000, seed=4)
    report = verify_scheme_rate(cfg)
    system = SchemeSystem(cfg.params, ab)
    moment = system.basis_second_moment(cfg.samples, cfg.seed)
    names = sorted(system.rows)
    A = system.transform(names)
    cov = A @ moment @ A.T

    def estimate(terms):
        return _covariance_form(cov, [(w, *([names.index(g) for g in group]
                                            for group in groups))
                                      for w, *groups in terms], cfg.samples)

    totals, mean = [], []
    for m, (san_est, gp_est) in enumerate(report.per_receiver, start=1):
        san, gp = _scheme_sums(rho, ab, m)
        assert (san_est.value, san_est.stderr) == (
            pytest.approx(estimate(san), rel=1e-12) if san else (0.0, 1.0 / cfg.samples))
        if gp:
            assert (gp_est.value, gp_est.stderr) == pytest.approx(estimate(gp), rel=1e-12)
        else:
            assert gp_est is None
        total = san + [(w / 3, *groups) for w, *groups in gp]
        totals.append(estimate(total)[0])
        mean += [(w / 3, *groups) for w, *groups in total]
    assert report.min_rate == pytest.approx(min(totals), rel=1e-12)
    assert (report.combined_rate, report.combined_stderr) == (
        pytest.approx(estimate(mean), rel=1e-12) if mean else (0.0, 1.0 / cfg.samples))


@pytest.mark.parametrize("delta", [0.0, 1e-300, 0.25])
def test_stderr_is_the_delta_method_stderr_floored_at_the_log_det_round_off(
        monkeypatch, delta):
    # I(X; Y) of two rows 1e-3 apart: log-dets of +-14 nats, information 6.9
    rows = {"X": np.array([1.0, 0.0, 0.0]), "Y": np.array([1.0, 1e-3, 0.0])}
    monkeypatch.setattr(mc, "delta_stderr", lambda *args: delta)
    [(value, se)] = mc._estimate_sums(rows, [[(1.0, ["X"], ["Y"], [])]], 1000)
    lds = {k: w * mc._factor(rows, k)[0] for k, w in mi_gradient(["X"], ["Y"]).items()}
    assert value == pytest.approx(sum(lds.values()) / mc.LN2, rel=1e-12)
    floor = mc._EPS * sum(map(abs, lds.values())) / mc.LN2
    assert 1e-16 < floor < 1e-13
    assert se == max(delta, floor)


@pytest.mark.parametrize("c2", [0.0, 4.0])
def test_gp_estimate_keeps_its_accuracy_at_large_power(c2):
    # on the same draws the estimator is scale-free: the z-score must not move
    # with P (a Gram matrix of variances P next to a conditional variance 1
    # lost it: z = -20 at P = 1e15, -58,546 at 1e20)
    def z(P):
        return estimate_gp_rate(config(P=P, c2=c2, ab=1.0, n=100_000, seed=0)).z_score

    at_1e6 = z(1e6)
    assert abs(at_1e6) < 3
    for P in (1e12, 1e15, 1e20):
        assert z(P) == pytest.approx(at_1e6, abs=0.05)


def test_scheme_estimate_keeps_its_accuracy_at_large_power():
    report = verify_scheme_rate(config(M=3, P=1e15, c2=4.0, ab=0.5, n=100_000, seed=0))
    assert abs(report.z_score) < 3


def test_rank_rule_is_relative_to_each_row():
    # equal rows are dependent; a row scaled by 1e-150 (variance 1e-300) is not
    row = np.array([1.0, 2.0, 0.0])
    with pytest.raises(DegenerateCovariance):
        mc._factor({"a": row, "b": row.copy()}, ("a", "b"))
    other = np.array([0.3, -1.0, 2.0])
    ld, q = mc._factor({"a": row, "b": 1e-150 * other}, ("a", "b"))
    gram = np.array([[row @ row, row @ other], [row @ other, other @ other]])
    assert ld == pytest.approx(np.linalg.slogdet(gram)[1] + 2 * np.log(1e-150), rel=1e-14)
    assert np.allclose(q.T @ q, np.eye(2))


def test_scheme_with_no_power_left_in_either_layer_reports_zero():
    # a subnormal P split in half rounds both layer powers to 0: each layer
    # carries exactly zero rate with stderr 1/n, and no covariance is built
    report = verify_scheme_rate(config(P=5e-324, ab=0.5, n=1000))
    assert (report.combined_rate, report.combined_stderr, report.closed_form) == (
        0.0, 1e-3, 0.0)
    assert all(gp is None and (san.value, san.stderr) == (0.0, 1e-3)
               for san, gp in report.per_receiver)


# ---------------------------------------------------------------------------
# Inflation-factor profile.
# ---------------------------------------------------------------------------

def test_lambda_profile_peaks_at_mmse_value():
    cfg = config(ab=0.3, n=300_000, seed=7)
    lambdas = np.linspace(0.0, 1.0, 101)
    profile = gp_rate_lambda_profile(cfg, lambdas)
    lam_star = 3.0 / 4.0  # abP/(abP+1)
    assert abs(lambdas[int(np.argmax(profile))] - lam_star) <= 0.01 + 1e-12


def test_lambda_profile_draws_once_and_equals_the_gp_estimate_at_each_lam(monkeypatch):
    draws = []
    draw = mc._draw_moment

    def counted(*args):
        draws.append(args)
        return draw(*args)

    monkeypatch.setattr(mc, "_draw_moment", counted)
    mc._MOMENTS.clear()
    cfg = config(M=3, rho=0.64, ab=0.5, n=20_000, seed=8)
    lambdas = np.linspace(0.0, 1.0, 101)
    profile = gp_rate_lambda_profile(cfg, lambdas, receiver=2)
    assert len(draws) == 1
    assert [v.hex() for v in profile] == [
        estimate_gp_rate(cfg, lam=lam, receiver=2).value.hex() for lam in lambdas]
    assert len(draws) == 1
    mc._MOMENTS.clear()


@pytest.mark.parametrize("P, ab", [(10.0, 0.3), (10.0, 1.0), (5e-324, 0.9)])
@pytest.mark.parametrize("rho", [0.0, 0.64])
def test_gp_estimate_is_the_scheme_estimate_of_receiver_1(P, ab, rho):
    # one pre-coded rate for both: at P = 5e-324 the common layer's power
    # rounds to 0, so neither conditions on it
    cfg = config(M=3, P=P, rho=rho, ab=ab, n=20_000, seed=2)
    gp = estimate_gp_rate(cfg)
    scheme_gp = verify_scheme_rate(cfg).per_receiver[0][1]
    assert isfinite(gp.z_score)
    assert (gp.value.hex(), gp.stderr.hex(), gp.closed_form.hex()) == (
        scheme_gp.value.hex(), scheme_gp.stderr.hex(), scheme_gp.closed_form.hex())


@pytest.mark.parametrize("receiver", [0, 3])
def test_lambda_profile_rejects_a_receiver_outside_1_to_M(receiver):
    with pytest.raises(CcdpError, match="receiver must be in 1..2"):
        gp_rate_lambda_profile(config(ab=0.3, n=1000), [0.5], receiver=receiver)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", [nan, inf, 1e308, 1e200, -1e300])
def test_lambda_profile_rejects_a_non_finite_state_weight(lam):
    # lam*c with c = 2, or its square, is not finite: refused before any draw,
    # with no warning
    with pytest.raises(DomainError, match="lam and lam\\*c must be finite"):
        gp_rate_lambda_profile(config(ab=0.3, n=1000), [0.5, lam])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", [nan, inf, 1e308, 1e200, -1e300, np.float64(1e200)])
def test_gp_estimate_rejects_a_state_weight_as_the_profile_does(lam):
    with pytest.raises(DomainError, match="lam and lam\\*c must be finite"):
        estimate_gp_rate(config(ab=0.3, n=1000), lam=lam)
    with pytest.raises(DomainError, match="lam and lam\\*c must be finite"):
        gp_rate_lambda_profile(config(ab=0.3, n=1000), np.array([lam]))


# ---------------------------------------------------------------------------
# Decomposition statistics and the gain-reduction argument.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("M,rho", [(2, 0.5), (4, -1.0 / 3.0)])
def test_decomposition_stats_small(M, rho):
    d = decompose_states(ChannelParams(M, 1.0, 1.0, rho))
    err = verify_decomposition_stats(d, 100_000, seed=2)
    assert err < 0.03


@pytest.mark.parametrize("M, live", [(3, 3), (4, 6), (8, 28)])
def test_decomposition_stats_at_the_boundary_draw_the_pairs_only(drawn_widths, M, live):
    # at rho = -1/(M-1) every residual latent has weight 0 and is not drawn
    d = decompose_states(ChannelParams(M, 1.0, 1.0, -1.0 / (M - 1)))
    assert verify_decomposition_stats(d, 10**6, seed=13) < 0.01
    assert drawn_widths == [live]


def test_decomposition_error_shrinks_like_root_n():
    # 100x more samples should cut the error about 10x (within a factor 3).
    # One ratio of two maxima leaves these bounds for 13 to 20 % of seed pairs;
    # the ratio of the mean errors over 8 seeds each, with probability < 1e-4.
    d = decompose_states(ChannelParams(2, 1.0, 1.0, 0.5))
    coarse = np.mean([verify_decomposition_stats(d, 10**4, seed=s) for s in range(31, 47, 2)])
    fine = np.mean([verify_decomposition_stats(d, 10**6, seed=s) for s in range(32, 48, 2)])
    assert 10.0 / 3.0 < coarse / fine < 30.0


def test_scheme_z_scores_over_200_seeds_are_standard_normal():
    # a gate on the block streams: criterion 8's two-receiver scheme point
    from scipy.stats import kstest

    params = ChannelParams(2, 10.0, 2.0, 0.0)
    z = [verify_scheme_rate(SimulationConfig(params=params, samples=10_000, seed=s,
                                             alpha_bar=0.3)).z_score for s in range(200)]
    assert kstest(z, "norm").pvalue > 0.01


def test_decomposition_stats_rejects_tiny_n():
    d = decompose_states(ChannelParams(2, 1.0, 1.0, 0.5))
    with pytest.raises(ValueError):
        verify_decomposition_stats(d, 5000, seed=1)


@pytest.mark.parametrize("M,rho,theta", [(3, 0.25, 0.4), (5, -0.2, 0.7), (2, 0.9, 0.1),
                                         (16, -0.05, 0.33)])
def test_split_and_cancel_leaves_the_reduced_gain_channel(M, rho, theta):
    # The outer bound's split-and-cancel step, with no draw: each state splits
    # into sqrt(theta)*S_kept + sqrt(1-theta)*S_known over two copies of the
    # latents, and every receiver cancels c*sqrt(1-theta)*S_known.  Basis of the
    # split channel: [x, kept latents, known latents, z_1..z_M].
    P, c = 10.0, 2.0
    W = decompose_states(ChannelParams(M, P, c, rho)).mixing_matrix()
    K = W.shape[1]
    assert np.all(np.any(W != 0.0, axis=0))  # every latent is live
    kept = np.r_[0:1 + K, 1 + 2 * K:1 + 2 * K + M]
    A = np.zeros((1 + M, 1 + 2 * K + M))
    A[0, 0] = sqrt(P)
    for m in range(M):
        y = np.zeros(1 + 2 * K + M)
        y[0] = sqrt(P)
        y[1:1 + K] = c * sqrt(theta) * W[m]
        y[1 + K:1 + 2 * K] = c * sqrt(1.0 - theta) * W[m]
        y[1 + 2 * K + m] = 1.0
        known = np.zeros_like(y)
        known[1 + K:1 + 2 * K] = c * sqrt(1.0 - theta) * W[m]
        A[1 + m] = y - known
    # the reduced channel as the estimators build it: gain c*sqrt(theta), no
    # pre-coded layer, so its live basis is [x, latents, z_1..z_M]
    reduced = SchemeSystem(ChannelParams(M, P, c * sqrt(theta), rho), 0.0)
    B = reduced.transform(["X_san"] + [f"Y_{m}" for m in range(1, M + 1)])
    assert not np.any(np.delete(A, kept, axis=1))  # the known part is gone
    assert np.array_equal(A[:, kept], B)
    target = np.full((1 + M, 1 + M), P)
    target[1:, 1:] += theta * c * c * state_covariance(M, rho).entries + np.eye(M)
    assert np.max(np.abs(A @ A.T - target)) <= 1e-12 * np.max(np.abs(target))


def test_simulation_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(params=ChannelParams(2, 1.0, 1.0, 0.0), samples=10)
    with pytest.raises(InvalidSplit):
        SimulationConfig(params=ChannelParams(2, 1.0, 1.0, 0.0), alpha_bar=1.2)
    # numpy integers are integers
    SimulationConfig(params=ChannelParams(2, 1.0, 1.0, 0.0), samples=np.int64(2000),
                     seed=np.uint64(3))


@pytest.mark.parametrize("over", [dict(samples=0), dict(samples=-5), dict(samples=1e6),
                                  dict(samples=np.float64(2000)), dict(samples=True),
                                  dict(seed=1.5), dict(seed="3"), dict(seed=False)])
def test_simulation_config_errors_are_ccdp_errors(over):
    with pytest.raises(CcdpError):
        SimulationConfig(params=ChannelParams(2, 1.0, 1.0, 0.0), **over)


@pytest.mark.parametrize("n,seed", [(1e6, 0), (10**4, 1.5), (np.float64(1e5), 2)])
def test_decomposition_stats_rejects_non_integers(n, seed):
    with pytest.raises(CcdpError):
        verify_decomposition_stats(decompose_states(ChannelParams(2, 1.0, 1.0, 0.5)), n, seed)


def test_delta_stderr_positive_and_scales():
    p = ChannelParams(2, 10.0, 2.0, 0.0)
    sys = SchemeSystem(p, 0.0)
    rows = np.linalg.cholesky(sys.analytic_cov(["X_san", "Y_1"]))
    blocks = mi_gradient([0], [1])
    factors = [np.linalg.qr(rows[list(k)].T)[0] for k in blocks]
    weights = list(blocks.values())
    assert delta_stderr(factors, weights, 10_000) > 0
    assert delta_stderr(factors, weights, 10_000) == pytest.approx(
        10.0 * delta_stderr(factors, weights, 1_000_000), rel=1e-9)
