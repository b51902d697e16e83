"""Closed-form bounds: frozen example values, branch logic, optimization
oracles, exact gap identities, monotonicity."""

import pickle
import sys
from collections import Counter
from dataclasses import FrozenInstanceError, asdict, astuple, fields, replace
from math import isfinite, log2, sqrt
from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from ccdp import (
    APPENDIX_FORM,
    APPENDIX_LOOSENED,
    RAW,
    THEOREM,
    BoundResult,
    ChannelParams,
    DomainError,
    InfeasibleRho,
    InvalidSplit,
    WrongModel,
    alpha_star,
    awgn_capacity,
    baseline_inner_2,
    baseline_outer_2,
    baseline_outer_m,
    ccdp2_inner,
    ccdp2_outer,
    ccdp_es_inner,
    ccdp_es_outer,
    ccdp_m_inner,
    ccdp_m_inner_raw,
    ccdp_m_outer,
    delta_conditional_variances,
    es_effective_gain,
)
from ccdp import bounds
from ccdp.bounds import _inner_raw_value, _plane

P2 = lambda c2, rho=0.0: ChannelParams(2, 10.0, sqrt(c2), rho)
P4 = lambda c2: ChannelParams(4, 10.0, sqrt(c2), 0.0)


# ---------------------------------------------------------------------------
# BoundResult as a record, and the frames one scalar point enters.
# ---------------------------------------------------------------------------

def test_bound_result_is_a_frozen_record_of_four_fields():
    p = ChannelParams(3, 10.0, 1.0, 0.25)
    r = ccdp_es_inner(p)
    assert [f.name for f in fields(r)] == ["value", "branch", "variant", "params"]
    with pytest.raises(FrozenInstanceError):
        r.value = 0.0
    assert repr(r) == (f"BoundResult(value={r.value!r}, branch='c2<=M-1', "
                       f"variant='theorem-statement', params={p!r})")
    assert r == BoundResult(r.value, "c2<=M-1", THEOREM, p)
    assert hash(r) == hash((r.value, "c2<=M-1", THEOREM, p))
    assert astuple(r) == (r.value, "c2<=M-1", THEOREM, astuple(p))
    assert asdict(r)["params"] == asdict(p)
    assert pickle.loads(pickle.dumps(r)) == r
    assert replace(r, branch="middle") == BoundResult(r.value, "middle", THEOREM, p)
    assert awgn_capacity(3.0) == BoundResult(1.0, "n/a", "n/a")


# M = 3, P = 10: the inner bound switches at c2 = 2 and 11, the appendix-form
# outer bound at c2 = 2 and 22; the effective gain is c2*(1 - max(rho, 0)).
BUDGET_POINTS = [(3, 10.0, 1.0, -0.5), (3, 10.0, 2.5, 0.2), (3, 10.0, 4.0, 0.0),
                 (3, 10.0, 10.0, 0.0), (3, 10.0, 10.0, -0.0)]


def test_scalar_point_builds_each_record_in_one_frame():
    # ChannelParams plus the certification pair, one point per branch: no
    # __post_init__, rho_range or property getter runs, and each record is
    # built by one frame (whose self is the record) of the __init__ written in
    # its module, not the generated one that sets each field by a call
    entered, branches = [], set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.append((code.co_name, code.co_filename,
                            type(frame.f_locals.get("self"))))

    for M, P, c, rho in BUDGET_POINTS:
        entered.clear()
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            p = ChannelParams(M, P, c, rho)
            pair = ccdp_es_inner(p), ccdp_es_outer(p, APPENDIX_FORM)
        finally:
            sys.setprofile(previous)
        branches.add(tuple(r.branch for r in pair))
        names = {name for name, _, _ in entered}
        assert not names & {"__post_init__", "rho_range", "c2", "rho_bar_plus"}
        built = Counter((cls.__name__, path == sys.modules[cls.__module__].__file__)
                        for _, path, cls in entered
                        if cls in (ChannelParams, BoundResult))
        assert built == {("ChannelParams", True): 1, ("BoundResult", True): 2}
    assert {inner for inner, _ in branches} == {"c2<=M-1", "middle", "time-sharing"}
    assert {outer for _, outer in branches} == {"c2<=M-1", "middle", "c2>=(M-1)(P+1)"}


# ---------------------------------------------------------------------------
# State-free benchmark.
# ---------------------------------------------------------------------------

def test_awgn_values():
    assert awgn_capacity(1.0).value == pytest.approx(0.5, abs=1e-15)
    assert awgn_capacity(3.0).value == pytest.approx(1.0, abs=1e-15)
    # high-precision evaluation of 1/2*log2(11)
    assert awgn_capacity(10.0).value == pytest.approx(1.7297158093186486, abs=1e-12)


# ---------------------------------------------------------------------------
# Baseline two-receiver bounds.
# ---------------------------------------------------------------------------

def test_baseline_outer_2_branches_agree_at_boundary():
    lo = baseline_outer_2(ChannelParams(2, 10.0, 2.0 - 1e-13, 0.0))
    hi = baseline_outer_2(ChannelParams(2, 10.0, 2.0 + 1e-13, 0.0))
    assert lo.branch == "c2<4" and hi.branch == "c2>=4"
    assert abs(lo.value - hi.value) < 1e-9
    # frozen evaluation of either branch at the boundary
    assert baseline_outer_2(P2(4.0)).value == pytest.approx(
        1.5621481972762210, abs=1e-12)


def test_baseline_outer_2_large_gain_asymptote():
    # the as-stated expression tends to 1/4*log2(1+P) from above, so on a
    # log-spaced grid it is eventually decreasing toward that constant
    values = [baseline_outer_2(P2(c2)).value for c2 in np.logspace(1, 8, 30)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(0.25 * log2(11.0), abs=1e-3)


def test_baseline_outer_2_not_monotone_near_zero():
    # small-gain bump: the cross term 2c*sqrt(P) lifts the bound before the
    # state penalty takes over
    v0 = baseline_outer_2(P2(1e-6)).value
    v1 = baseline_outer_2(P2(0.16)).value
    assert v1 > v0 + 1e-3


def test_baseline_inner_2_examples():
    # c2/2 <= 1 branch at c2 = 1: 1/2*log2(23/3)
    assert baseline_inner_2(P2(1.0)).value == pytest.approx(
        1.4692997276679283, abs=1e-12)
    # c2 = 2(P+1): 1/4*log2(11), upper branch
    r = baseline_inner_2(P2(22.0))
    assert r.value == pytest.approx(0.8648579046593243, abs=1e-12)
    assert r.branch == "c2>=2(P+1)"
    # no state: the full benchmark rate
    assert baseline_inner_2(P2(0.0)).value == pytest.approx(
        1.7297158093186486, abs=1e-12)


def test_baseline_inner_2_continuity():
    for c2 in (2.0, 22.0):
        lo = baseline_inner_2(ChannelParams(2, 10.0, sqrt(c2) * (1 - 1e-13), 0.0))
        hi = baseline_inner_2(ChannelParams(2, 10.0, sqrt(c2) * (1 + 1e-13), 0.0))
        assert abs(lo.value - hi.value) < 1e-9


def test_baseline_outer_m_values():
    r = baseline_outer_m(P2(4.0))
    assert r.value == pytest.approx(1.6180077408458574, abs=1e-12)
    assert r.branch == "unclamped"  # c2 < M(P+1) = 22, correction inactive
    # M=4, c=1: the -(1/8)log2(4) term is present, value finite
    v = baseline_outer_m(ChannelParams(4, 10.0, 1.0, 0.0)).value
    expect = 0.5 * log2(10 + 1 + 2 * sqrt(10)) - 0.0 - 0.125 * log2(4.0)
    assert v == pytest.approx(expect, abs=1e-12)
    # correction term switches on exactly at c2 = M(P+1)
    at = baseline_outer_m(P2(22.0))
    eps_above = baseline_outer_m(P2(22.0 * (1 + 1e-9)))
    assert at.branch == "unclamped" and eps_above.branch == "clamped"


def test_baseline_outer_m_rejects_zero_gain():
    with pytest.raises(DomainError):
        baseline_outer_m(ChannelParams(4, 10.0, 0.0, 0.0))


def test_baselines_reject_wrong_model():
    with pytest.raises(WrongModel):
        baseline_outer_2(ChannelParams(3, 10.0, 2.0, 0.0))
    with pytest.raises(WrongModel):
        baseline_inner_2(ChannelParams(2, 10.0, 2.0, 0.5))
    with pytest.raises(WrongModel):
        baseline_outer_m(ChannelParams(4, 10.0, 2.0, 0.1))


# ---------------------------------------------------------------------------
# Two-receiver optimized bounds.
# ---------------------------------------------------------------------------

def test_ccdp2_outer_examples():
    r = ccdp2_outer(P2(0.5), APPENDIX_LOOSENED)
    assert r.value == pytest.approx(1.7297158093186486, abs=1e-12)
    assert r.branch == "c2<=1"
    r = ccdp2_outer(P2(4.0), APPENDIX_LOOSENED)
    assert r.value == pytest.approx(1.9534452978042593, abs=1e-12)
    r = ccdp2_outer(P2(11.0), APPENDIX_LOOSENED)
    assert r.value == pytest.approx(0.25 * log2(11.0) + 1.0, abs=1e-12)
    assert r.branch == "c2>=P+1"
    # theorem variant differs only in the middle branch
    t = ccdp2_outer(P2(4.0), THEOREM)
    assert t.value == pytest.approx(
        0.5 * log2(15.0) - 0.25 * log2(5.0) + 0.5, abs=1e-12)
    assert ccdp2_outer(P2(0.5), THEOREM).value == ccdp2_outer(
        P2(0.5), APPENDIX_LOOSENED).value


def test_ccdp2_inner_examples():
    r = ccdp2_inner(P2(4.0))
    assert r.value == pytest.approx(0.9534452978042593, abs=1e-12)
    assert r.branch == "middle"
    assert ccdp2_inner(P2(0.5)).value == pytest.approx(
        0.5 * log2(1 + 10 / 1.5), abs=1e-12)
    assert ccdp2_inner(P2(11.0)).value == pytest.approx(
        0.25 * log2(11.0), abs=1e-12)
    assert ccdp2_inner(P2(64.0)).value == pytest.approx(
        0.25 * log2(11.0), abs=1e-12)


def test_ccdp2_inner_matches_grid_search():
    # optimized bound equals max over the power split of the raw rate
    for c2 in (0.5, 2.0, 4.0, 9.0, 10.999, 11.0, 40.0):
        p = P2(c2)
        grid = np.linspace(0.0, 1.0, 10_001)
        best = max(_inner_raw_value(2, 10.0, c2, ab) for ab in grid)
        assert ccdp2_inner(p).value == pytest.approx(best, abs=1e-6)


def test_ccdp2_continuity_at_branch_points():
    # inner: continuous at both branch points
    for c2 in (1.0, 11.0):
        lo_i = ccdp2_inner(ChannelParams(2, 10.0, sqrt(c2) * (1 - 1e-13), 0.0))
        hi_i = ccdp2_inner(ChannelParams(2, 10.0, sqrt(c2) * (1 + 1e-13), 0.0))
        assert abs(lo_i.value - hi_i.value) < 1e-9
    # loosened outer: continuous at c2 = P+1
    lo = ccdp2_outer(ChannelParams(2, 10.0, sqrt(11.0) * (1 - 1e-13), 0.0),
                     APPENDIX_LOOSENED)
    hi = ccdp2_outer(ChannelParams(2, 10.0, sqrt(11.0) * (1 + 1e-13), 0.0),
                     APPENDIX_LOOSENED)
    assert abs(lo.value - hi.value) < 1e-9
    # both outer variants genuinely jump up at c2 = 1, where the trivial
    # bound 1/2*log2(P+1) is spliced in below; the jump is documented, not
    # smoothed over
    for variant, jump in (
        (APPENDIX_LOOSENED, 0.5 * log2(12.0 / 11.0) + 0.5),
        (THEOREM, 0.5 * log2(12.0 / 11.0) + 0.25),
    ):
        lo = ccdp2_outer(ChannelParams(2, 10.0, 1.0 - 1e-13, 0.0), variant)
        hi = ccdp2_outer(ChannelParams(2, 10.0, 1.0 + 1e-13, 0.0), variant)
        assert hi.value - lo.value == pytest.approx(jump, abs=1e-9)
    # the theorem-statement outer also jumps at c2 = P+1 (its middle branch
    # keeps the +1 inside the log)
    lo = ccdp2_outer(ChannelParams(2, 10.0, sqrt(11.0) * (1 - 1e-13), 0.0), THEOREM)
    hi = ccdp2_outer(ChannelParams(2, 10.0, sqrt(11.0) * (1 + 1e-13), 0.0), THEOREM)
    expected_jump = 0.25 * log2(12.0) - 0.25 * log2(11.0)
    assert hi.value - lo.value == pytest.approx(expected_jump, abs=1e-9)


def test_ccdp2_raw_variant_minimizer():
    # the raw expression has its interior minimum exactly at c = sqrt(P+1)
    res = minimize_scalar(
        lambda c: ccdp2_outer(ChannelParams(2, 10.0, c, 0.0), RAW).value,
        bounds=(0.1, 10.0), method="bounded", options={"xatol": 1e-10})
    assert res.x == pytest.approx(sqrt(11.0), abs=1e-6)
    # beyond it the raw value grows like 1/4*log2(c2)
    v1 = ccdp2_outer(P2(1e4), RAW).value
    v2 = ccdp2_outer(P2(1e6), RAW).value
    assert v2 - v1 == pytest.approx(0.25 * log2(1e6 / 1e4), abs=0.01)


@pytest.mark.parametrize("bound, params, variant", [
    (ccdp2_outer, P2(4.0), APPENDIX_FORM),
    (ccdp_m_outer, P4(4.0), APPENDIX_LOOSENED),
    (ccdp_es_outer, P4(4.0), RAW),
    (ccdp_es_outer, P2(4.0), "bogus"),
])
def test_variant_outside_the_family_raises_value_error(bound, params, variant):
    with pytest.raises(ValueError, match=f"unknown variant '{variant}'"):
        bound(params, variant)


@pytest.mark.parametrize("bound, variant", [
    ("ccdp2_outer", APPENDIX_FORM), ("ccdp_m_outer", APPENDIX_LOOSENED),
    ("ccdp_es_outer", RAW), ("ccdp2_inner", APPENDIX_FORM),
])
def test_plane_rejects_a_variant_its_bound_lacks(bound, variant):
    with pytest.raises(ValueError, match=f"unknown variant '{variant}'"):
        _plane(2, np.array([[10.0]]), np.array([2.0]), [0.0], (bound, variant))


def test_ccdp2_wrong_model():
    with pytest.raises(WrongModel):
        ccdp2_outer(ChannelParams(3, 10.0, 2.0, 0.0), APPENDIX_LOOSENED)
    with pytest.raises(WrongModel):
        ccdp2_inner(ChannelParams(2, 10.0, 2.0, 0.25))


# ---------------------------------------------------------------------------
# Power-split optimization.
# ---------------------------------------------------------------------------

def test_alpha_star_closed_form():
    assert alpha_star(P2(5.0)).alpha_bar == pytest.approx(0.4, abs=1e-12)
    assert alpha_star(ChannelParams(3, 10.0, 1.0, 0.0)).alpha_bar == 0.0
    assert alpha_star(P2(30.0)).alpha_bar == 1.0


@pytest.mark.parametrize("M, P, c2, rho", [
    (2, 10.0, 5.0, 0.5), (3, 10.0, 40.0, 0.64), (4, 2.0, 30.0, 0.9),
    (5, 100.0, 200.0, 0.25), (3, 10.0, 40.0, -0.5),
])
def test_alpha_star_uses_effective_gain(M, P, c2, rho):
    ceff2 = c2 * (1.0 - max(rho, 0.0))
    star = alpha_star(ChannelParams(M, P, sqrt(c2), rho)).alpha_bar
    independent = alpha_star(ChannelParams(M, P, sqrt(ceff2), 0.0)).alpha_bar
    assert star == pytest.approx(independent, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    M=st.integers(2, 8),
    P=st.floats(0.5, 1e4),
    c2=st.floats(0.0, 1e6),
)
def test_alpha_star_is_optimal_by_grid_search(M, P, c2):
    p = ChannelParams(M, P, sqrt(c2), 0.0)
    star = alpha_star(p).alpha_bar
    value_at_star = _inner_raw_value(M, P, c2, star)
    grid = np.linspace(0.0, 1.0, 10_001)
    ab_p = grid * P
    vals = 0.5 * np.log2(1 + (1 - grid) * P / (c2 + ab_p + 1)) \
        + np.log2(1 + ab_p) / (2 * M)
    assert value_at_star >= vals.max() - 1e-6


def test_inner_raw_examples():
    r = ccdp_m_inner_raw(P2(4.0), 0.0)
    assert r.value == pytest.approx(0.5 * log2(3.0), abs=1e-12)
    # alpha_bar = 1 leaves only the time-shared layer
    for M in (2, 4):
        p = ChannelParams(M, 10.0, 2.0, 0.0)
        assert ccdp_m_inner_raw(p, 1.0).value == pytest.approx(
            log2(11.0) / (2 * M), abs=1e-12)
    # the optimal split reproduces the middle branch of the optimized bound
    r = ccdp_m_inner_raw(P2(4.0), 0.3)
    assert r.value == pytest.approx(ccdp2_inner(P2(4.0)).value, abs=1e-12)


def test_inner_raw_rejects_bad_split():
    with pytest.raises(InvalidSplit):
        ccdp_m_inner_raw(P2(4.0), 1.5)
    with pytest.raises(InvalidSplit):
        ccdp_m_inner_raw(P2(4.0), -0.1)


# ---------------------------------------------------------------------------
# M-receiver optimized bounds.
# ---------------------------------------------------------------------------

def test_ccdp_m_inner_examples():
    r = ccdp_m_inner(P4(2.0))
    assert r.value == pytest.approx(0.5 * log2(1 + 10 / 3), abs=1e-12)
    assert r.branch == "c2<=M-1"
    r = ccdp_m_inner(P4(11.0))
    assert r.value == pytest.approx(
        0.5 * log2(22.0) - 3 / 8 * log2(11.0) - 0.5, abs=1e-12)
    r = ccdp_m_inner(P4(100.0))
    assert r.value == pytest.approx(log2(11.0) / 8, abs=1e-12)
    assert r.branch == "time-sharing"


def test_ccdp_m_inner_never_below_time_sharing():
    # the reported rate is floored at the always-achievable time-sharing rate
    for M in (2, 3, 4, 8):
        for c2 in np.logspace(-2, 6, 200):
            p = ChannelParams(M, 10.0, sqrt(c2), 0.0)
            assert ccdp_m_inner(p).value >= log2(11.0) / (2 * M) - 1e-12


def test_ccdp_m_inner_does_not_exceed_true_optimum():
    for M in (2, 3, 4, 8):
        for c2 in (0.5, 3.0, 7.0, 11.0, 40.0, 1e3):
            p = ChannelParams(M, 10.0, sqrt(c2), 0.0)
            grid = np.linspace(0.0, 1.0, 20_001)
            best = max(_inner_raw_value(M, 10.0, c2, ab) for ab in grid)
            assert ccdp_m_inner(p).value <= best + 1e-9
            if M == 2:  # for two receivers the optimized form is exact
                assert ccdp_m_inner(p).value == pytest.approx(best, abs=1e-6)


def test_ccdp_m_outer_examples():
    r = ccdp_m_outer(P4(2.0), THEOREM)
    assert r.value == pytest.approx(0.5 * log2(1 + 10 / 3) + 2.25, abs=1e-12)
    assert r.branch == "c2<=M-1"
    assert ccdp_m_outer(P4(2.0), APPENDIX_FORM).value == r.value
    r = ccdp_m_outer(P4(11.0), APPENDIX_FORM)
    assert r.value == pytest.approx(
        0.5 * log2(22.0) - 3 / 8 * log2(11.0) + 1.5, abs=1e-12)
    # at M=2 the appendix form sits exactly 1 above the loosened two-receiver
    # outer bound (constant 3/2 vs 1/2)
    a = ccdp_m_outer(P2(4.0), APPENDIX_FORM).value
    b = ccdp2_outer(P2(4.0), APPENDIX_LOOSENED).value
    assert a - b == pytest.approx(1.0, abs=1e-12)


def test_ccdp_m_outer_clamp_matches_numerical_minimizer():
    # appendix form: the clamped gain equals the argmin of the raw expression
    for M, P, c2 in ((4, 10.0, 1e5), (3, 50.0, 4e3), (2, 10.0, 1e4)):
        def raw(x):
            return 0.5 * log2(1 + P + x) - (M - 1) / (2 * M) * log2(x) + 1.5
        res = minimize_scalar(raw, bounds=(1e-6, c2), method="bounded",
                              options={"xatol": 1e-9})
        assert res.x == pytest.approx((M - 1) * (P + 1), rel=1e-5)
        clamped = ccdp_m_outer(ChannelParams(M, P, sqrt(c2), 0.0),
                               APPENDIX_FORM).value
        assert clamped == pytest.approx(raw(res.x), abs=1e-8)


def test_ccdp_m_outer_theorem_constant_branch():
    r = ccdp_m_outer(P4(1e3), THEOREM)  # c2 > (M-1)(P+1) = 33
    assert r.value == pytest.approx(log2(11.0) / 8 + 2.0, abs=1e-12)
    assert r.branch == "c2>=(M-1)(P+1)"


def test_exact_middle_gap_identities():
    # appendix outer minus inner: exactly 1 for M=2, exactly 2 for general M
    rng = np.random.default_rng(1234)
    for _ in range(50):
        P = 10 ** rng.uniform(np.log10(3.2), 4.0)
        c2 = 10 ** rng.uniform(np.log10(1.0001), np.log10((P + 1) * 0.9999))
        p = ChannelParams(2, P, sqrt(c2), 0.0)
        gap = ccdp2_outer(p, APPENDIX_LOOSENED).value - ccdp2_inner(p).value
        assert abs(gap - 1.0) < 1e-12
    for _ in range(50):
        M = int(rng.integers(2, 9))
        P = 10 ** rng.uniform(np.log10(max(3.2, M)), 4.0)
        c2 = 10 ** rng.uniform(np.log10((M - 1) * 1.0001),
                               np.log10((P + 1) * 0.9999))
        p = ChannelParams(M, P, sqrt(c2), 0.0)
        gap = ccdp_m_outer(p, APPENDIX_FORM).value - ccdp_m_inner(p).value
        assert abs(gap - 2.0) < 1e-12


def test_small_gain_gap_is_exactly_nine_quarters():
    # c chosen so that c*c is exactly representable at or below M-1
    for M, cs in ((2, (0.5, 1.0)), (5, (0.5, 2.0)), (8, (1.5, 2.5))):
        for c in cs:
            p = ChannelParams(M, 100.0, c, 0.0)
            assert p.c2 <= M - 1.0
            gap = ccdp_m_outer(p, APPENDIX_FORM).value - ccdp_m_inner(p).value
            assert abs(gap - 2.25) < 1e-12


# ---------------------------------------------------------------------------
# Equivalent-states bounds.
# ---------------------------------------------------------------------------

def test_effective_gain():
    assert es_effective_gain(ChannelParams(2, 1.0, 2.0, 0.75)) == pytest.approx(1.0, abs=1e-15)
    assert es_effective_gain(ChannelParams(2, 1.0, 2.0, 0.0)) == 2.0
    assert es_effective_gain(ChannelParams(2, 1.0, 2.0, -0.5)) == 2.0


def test_es_outer_examples():
    # fully correlated states reduce to the state-free benchmark bound
    r = ccdp_es_outer(ChannelParams(2, 10.0, 2.0, 1.0))
    assert r.value == pytest.approx(0.5 * log2(11.0), abs=1e-12)
    assert r.branch == "c2<=1"
    # effective squared gain 4 lands in the middle branch
    r = ccdp_es_outer(ChannelParams(2, 10.0, 4.0, 0.75))
    assert r.value == pytest.approx(1.9534452978042593, abs=1e-12)
    # negative correlation: same as the independent-state theorem form
    a = ccdp_es_outer(ChannelParams(3, 10.0, 2.0, -0.5))
    b = ccdp_m_outer(ChannelParams(3, 10.0, 2.0, 0.0), THEOREM)
    assert a.value == b.value


def test_es_outer_two_receiver_high_branch_constant():
    # the stated two-receiver form uses +1/2 on its high branch
    r = ccdp_es_outer(ChannelParams(2, 10.0, 10.0, 0.5))  # ceff2 = 50 >= 11
    assert r.value == pytest.approx(0.25 * log2(11.0) + 0.5, abs=1e-12)
    assert r.branch == "c2>=P+1"


def test_es_inner_examples():
    assert ccdp_es_inner(ChannelParams(2, 10.0, 2.0, 1.0)).value == \
        pytest.approx(0.5 * log2(11.0), abs=1e-12)
    assert ccdp_es_inner(ChannelParams(2, 10.0, 4.0, 0.75)).value == \
        pytest.approx(0.9534452978042593, abs=1e-12)
    a = ccdp_es_inner(ChannelParams(3, 10.0, 2.0, -0.5)).value
    b = ccdp_es_inner(ChannelParams(3, 10.0, 2.0, 0.0)).value
    assert a == b


def test_es_reduces_to_independent_at_zero_rho():
    for M in (2, 3, 5):
        for c2 in (0.5, 3.0, 20.0, 500.0):
            p = ChannelParams(M, 10.0, sqrt(c2), 0.0)
            assert ccdp_es_inner(p).value == ccdp_m_inner(p).value
            assert ccdp_es_outer(p, APPENDIX_FORM).value == \
                ccdp_m_outer(p, APPENDIX_FORM).value
            if M > 2:
                assert ccdp_es_outer(p, THEOREM).value == \
                    ccdp_m_outer(p, THEOREM).value


@settings(max_examples=80, deadline=None)
@given(
    M=st.integers(2, 8),
    P=st.floats(0.5, 1e4),
    c2=st.floats(0.0, 1e6),
    u=st.floats(0.0, 1.0),
)
def test_es_inner_below_appendix_outer(M, P, c2, u):
    lo, hi = -1.0 / (M - 1), 1.0
    rho = lo + u * (hi - lo)
    p = ChannelParams(M, P, sqrt(c2), rho)
    assert ccdp_es_inner(p).value <= ccdp_es_outer(p, APPENDIX_FORM).value + 1e-12


# ---------------------------------------------------------------------------
# Monotonicity in the gain (certification forms).
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("M,rho", [(2, 0.0), (3, 0.0), (4, 0.5), (8, -0.1), (5, 1.0)])
def test_bounds_non_increasing_in_gain(M, rho):
    cs = np.sqrt(np.logspace(-3, 6, 400))
    for fn in (
        ccdp_es_inner,
        lambda p: ccdp_es_outer(p, APPENDIX_FORM),
    ):
        vals = [fn(ChannelParams(M, 10.0, c, rho)).value for c in cs]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


def test_inner_discontinuity_at_low_branch_point_is_downward():
    # the inner bound may only drop (never jump up) at c2 = M-1
    for M in (3, 4, 8):
        p_lo = ChannelParams(M, 10.0, sqrt(M - 1.0) * (1 - 1e-13), 0.0)
        p_hi = ChannelParams(M, 10.0, sqrt(M - 1.0) * (1 + 1e-13), 0.0)
        assert ccdp_m_inner(p_hi).value <= ccdp_m_inner(p_lo).value + 1e-9


# ---------------------------------------------------------------------------
# Every branch of every bound against a value simplified by hand.
# ---------------------------------------------------------------------------

# (bound, variant, M, P, c, rho, branch, value); each c*c is exact, and each
# value is the branch expression reduced by hand to a few exact logarithms.
PIECES = [
    (ccdp2_inner, None, 2, 6.0, 1.0, 0.0, "c2<=1", 1.0),
    (ccdp2_inner, None, 2, 27.0, 2.0, 0.0, "middle", 1.5),
    (ccdp2_inner, None, 2, 15.0, 4.0, 0.0, "c2>=P+1", 1.0),
    (ccdp_m_inner, None, 4, 14.0, 1.0, 0.0, "c2<=M-1", 1.5),
    (ccdp_m_inner, None, 4, 11.0, 2.0, 0.0, "middle", 0.75),
    (ccdp_m_inner, None, 4, 15.0, 4.0, 0.0, "time-sharing", 0.5),
    (ccdp_es_inner, None, 3, 6.0, 1.0, -0.5, "c2<=M-1", 1.0),
    (ccdp_es_inner, None, 3, 11.0, 4.0, 0.75, "middle", 5.0 / 6.0),
    (ccdp_es_inner, None, 3, 15.0, 8.0, 0.75, "time-sharing", 2.0 / 3.0),
    (ccdp2_outer, THEOREM, 2, 15.0, 1.0, 0.0, "c2<=1", 2.0),
    (ccdp2_outer, THEOREM, 2, 15.0, 2.0, 0.0, "middle", 1.5 + 0.25 * log2(5.0)),
    (ccdp2_outer, THEOREM, 2, 15.0, 4.0, 0.0, "c2>=P+1", 2.0),
    (ccdp2_outer, APPENDIX_LOOSENED, 2, 3.0, 0.5, 0.0, "c2<=1", 1.0),
    (ccdp2_outer, APPENDIX_LOOSENED, 2, 11.0, 2.0, 0.0, "middle", 2.0),
    (ccdp2_outer, APPENDIX_LOOSENED, 2, 3.0, 2.0, 0.0, "c2>=P+1", 1.5),
    (ccdp2_outer, RAW, 2, 11.0, 8.0, 0.0, "raw", 0.5 * log2(19.0)),
    (ccdp_m_outer, THEOREM, 4, 14.0, 1.0, 0.0, "c2<=M-1", 3.75),
    (ccdp_m_outer, THEOREM, 4, 15.0, 4.0, 0.0, "middle", 3.5),
    (ccdp_m_outer, THEOREM, 4, 15.0, 8.0, 0.0, "c2>=(M-1)(P+1)", 2.5),
    (ccdp_m_outer, APPENDIX_FORM, 4, 6.0, 1.0, 0.0, "c2<=M-1", 3.25),
    (ccdp_m_outer, APPENDIX_FORM, 4, 11.0, 2.0, 0.0, "middle", 2.75),
    (ccdp_m_outer, APPENDIX_FORM, 4, 15.0, 8.0, 0.0, "c2>=(M-1)(P+1)",
     3.0 - 0.375 * log2(3.0)),
    (ccdp_es_outer, THEOREM, 2, 15.0, 2.0, 0.75, "c2<=1", 2.0),
    (ccdp_es_outer, THEOREM, 2, 11.0, 4.0, 0.75, "middle", 2.0),
    (ccdp_es_outer, THEOREM, 2, 15.0, 8.0, 0.5, "c2>=P+1", 1.5),
    (ccdp_es_outer, THEOREM, 3, 15.0, 4.0, 0.75, "middle", 17.0 / 6.0),
    (ccdp_es_outer, APPENDIX_FORM, 3, 7.0, 8.0, 0.75, "c2>=(M-1)(P+1)",
     5.0 / 3.0 + 0.5 * log2(3.0)),
    (baseline_outer_2, None, 2, 4.0, 1.0, 0.0, "c2<4", 1.25),
    (baseline_outer_2, None, 2, 1.0, 2.0, 0.0, "c2>=4", 0.25 * log2(10.0) - 0.25),
    (baseline_inner_2, None, 2, 6.0, 1.0, 0.0, "c2<=2", 0.5 * log2(5.0)),
    (baseline_inner_2, None, 2, 5.0, 2.0, 0.0, "middle", 0.75),
    (baseline_inner_2, None, 2, 15.0, 8.0, 0.0, "c2>=2(P+1)", 1.0),
    (baseline_outer_m, None, 4, 9.0, 1.0, 0.0, "unclamped", 1.75),
    (baseline_outer_m, None, 2, 1.0, 4.0, 0.0, "clamped", log2(5.0) - 1.75),
]


@pytest.mark.parametrize(
    "bound, variant, M, P, c, rho, branch, value", PIECES,
    ids=[f"{row[0].__name__}-{row[1]}-M{row[2]}-{row[6]}" for row in PIECES])
def test_every_branch_equals_its_hand_value(bound, variant, M, P, c, rho,
                                            branch, value):
    params = ChannelParams(M, P, c, rho)
    result = bound(params) if variant is None else bound(params, variant)
    assert result.branch == branch
    assert result.value == pytest.approx(value, abs=1e-12)


def test_flat_pieces_are_exactly_the_pieces_that_never_read_c2(monkeypatch):
    # Every piece of every spec, called on sympy symbols: a plane runs the
    # pieces of _FLAT once per power, so none of them may read c2, and any
    # other piece, the c2 >= t2 ones included, must.  _cross takes np.sqrt.
    monkeypatch.setattr(bounds, "np", SimpleNamespace(sqrt=sp.sqrt))
    M, P, c2 = sp.symbols("M P c2", positive=True)
    lg = lambda x: sp.log(x, 2)
    pieces = {fn for spec in bounds._SPECS.values() for table in (spec.pieces, spec.at_2)
              for variant in table.values() for _, fn in variant}
    high = {variant[2][1] for spec in bounds._SPECS.values()
            for table in (spec.pieces, spec.at_2) for variant in table.values()}
    assert bounds._FLAT <= pieces and high - bounds._FLAT
    for fn in pieces:
        reads_c2 = c2 in sp.sympify(fn(M, P, c2, lg)).free_symbols
        assert reads_c2 == (fn not in bounds._FLAT), fn.__name__
    for fn in bounds._FLAT:  # and they run without a gain at all
        assert sp.simplify(fn(M, P, None, lg) - fn(M, P, c2, lg)) == 0, fn.__name__


# ---------------------------------------------------------------------------
# Conditional-variance ladder of state differences.
# ---------------------------------------------------------------------------

def test_delta_variances_examples():
    assert np.allclose(delta_conditional_variances(4, 0.0), [2.0, 1.5, 4.0 / 3.0],
                       atol=1e-15)
    assert np.allclose(delta_conditional_variances(4, 0.5), [1.0, 0.75, 2.0 / 3.0],
                       atol=1e-15)
    assert np.allclose(delta_conditional_variances(2, 0.3), [1.4], atol=1e-15)


def schur_conditional_variances(M, rho):
    """Dense oracle: successive conditional variances from the explicit
    difference covariance, (1-rho) * tridiag(-1, 2, -1)."""
    n = M - 1
    sigma = (1.0 - rho) * (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))
    out = [sigma[0, 0]]
    for k in range(1, n):
        top = sigma[:k, :k]
        cross = sigma[k, :k]
        out.append(sigma[k, k] - cross @ np.linalg.solve(top, cross))
    return np.array(out)


@pytest.mark.parametrize("M", range(2, 17))
def test_delta_variances_match_schur_oracle(M):
    for rho in (-1.0 / (M - 1) + 0.01, 0.0, 0.5, 0.9):
        got = delta_conditional_variances(M, rho)
        want = schur_conditional_variances(M, rho)
        assert np.max(np.abs(got - want)) < 1e-9


@pytest.mark.parametrize("M,rho", [(4, 0.0), (9, 0.25), (16, -0.05), (12, 0.9)])
def test_delta_variances_sum_identity(M, rho):
    # chain rule: sum of half-logs of conditional variances equals the
    # half-log-determinant of the difference covariance
    cv = delta_conditional_variances(M, rho)
    n = M - 1
    sigma = (1.0 - rho) * (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))
    sign, logdet = np.linalg.slogdet(sigma)
    assert sign > 0
    assert sum(0.5 * np.log2(cv)) == pytest.approx(0.5 * logdet / np.log(2),
                                                   abs=1e-9)


def test_delta_variances_validation():
    with pytest.raises(InfeasibleRho):
        delta_conditional_variances(4, -0.4)
    from ccdp import InvalidM
    with pytest.raises(InvalidM):
        delta_conditional_variances(1, 0.0)


# ---------------------------------------------------------------------------
# The domain ceilings: every public bound is finite up to them.
# ---------------------------------------------------------------------------

CORNERS = [ChannelParams(M, P, c, rho)
           for M in (2, 3, 2 ** 53) for P in (5e-324, 1e280)
           for c in (0.0, 3e-162, 1e140) for rho in (-1.0 / (M - 1), 0.0, 1.0)]
CALLS = [(baseline_outer_2, ()), (baseline_inner_2, ()), (baseline_outer_m, ()),
         (ccdp2_inner, ()), (ccdp_m_inner, ()), (ccdp_es_inner, ()),
         *((ccdp2_outer, (v,)) for v in (THEOREM, APPENDIX_LOOSENED, RAW)),
         *((ccdp_m_outer, (v,)) for v in (THEOREM, APPENDIX_FORM)),
         *((ccdp_es_outer, (v,)) for v in (THEOREM, APPENDIX_FORM)),
         *((ccdp_m_inner_raw, (ab,)) for ab in (0.0, 0.5, 1.0))]


@pytest.mark.parametrize("p", CORNERS, ids=repr)
def test_every_public_bound_is_finite_at_the_domain_corners(p):
    values = [awgn_capacity(p.P).value, alpha_star(p).alpha_bar, es_effective_gain(p)]
    for bound, args in CALLS:
        try:
            values.append(bound(p, *args).value)
        except WrongModel:
            continue
        except DomainError:  # log2(c2) at c = 0
            assert p.c2 == 0.0 and bound in (ccdp2_outer, baseline_outer_m)
    assert all(map(isfinite, values))
    gap = ccdp_es_outer(p, APPENDIX_FORM).value - ccdp_es_inner(p).value
    assert 0.0 <= gap <= 2.25 + 1e-9
    if p.M == 2 and p.rho == 0.0:
        gap = ccdp2_outer(p, APPENDIX_LOOSENED).value - ccdp2_inner(p).value
        assert 0.0 <= gap <= 1.0 + 1e-9
