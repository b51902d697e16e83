"""Sweeps, certification, audit and serialization."""

from dataclasses import astuple, replace
from math import inf, log2, nan, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccdp import (
    APPENDIX_FORM,
    APPENDIX_LOOSENED,
    RAW,
    THEOREM,
    CcdpError,
    ChannelParams,
    DomainError,
    InfeasibleRho,
    InvalidGain,
    InvalidM,
    InvalidPower,
    SweepGrid,
    WrongModel,
    baseline_outer_2,
    ccdp2_inner,
    ccdp2_outer,
    ccdp_es_inner,
    ccdp_es_outer,
    ccdp_m_inner,
    ccdp_m_outer,
    certify_theorem,
    fig3_curve,
    monotonicity_audit,
    run_sweep,
    standard_grid,
    theorem_grid,
)
from ccdp.gaps import (
    AUDIT_FAMILIES,
    CSV_COLUMNS,
    OPTIMIZED_FAMILIES,
    THEOREMS,
    report_summary,
    rows_to_csv,
)


def small_grid(**over):
    kw = dict(
        m_values=(2, 3),
        p_values=tuple(np.logspace(np.log10(3.01), 2, 6)),
        c2_values=tuple(np.logspace(np.log10(3.01), 4, 8)),
        rho_values=None,
        rho_points=5,
    )
    kw.update(over)
    return SweepGrid(**kw)


def rows(report):
    return [report.row(i) for i in range(len(report))]


# ---------------------------------------------------------------------------
# Grids.
# ---------------------------------------------------------------------------

def test_standard_grid_shape():
    g = standard_grid()
    assert len(g.p_values) == 50 and len(g.c2_values) == 50
    assert g.p_values[0] == pytest.approx(3.01) and g.p_values[-1] == pytest.approx(1e4)
    assert g.c2_values[-1] == pytest.approx(1e6)
    assert all(len(g.rho_axis(M)) == 13 for M in g.m_values)
    assert g.size() == 50 * 50 * 13 * 7


def test_rho_axis_filters_infeasible():
    g = small_grid(rho_values=(-0.9, -0.5, 0.0, 0.5, 2.0))
    assert g.rho_axis(2) == (-0.9, -0.5, 0.0, 0.5)
    assert g.rho_axis(3) == (-0.5, 0.0, 0.5)


def test_empty_axis_rejected():
    with pytest.raises(ValueError):
        SweepGrid((), (10.0,), (4.0,))


@pytest.mark.parametrize("over, error", [
    (dict(m_values=(1, 2)), InvalidM),
    (dict(m_values=(2.0,)), InvalidM),
    (dict(p_values=(nan, 10.0)), InvalidPower),
    (dict(p_values=(0.0,)), InvalidPower),
    (dict(p_values=(inf,)), InvalidPower),
    (dict(c2_values=(-1.0, 4.0)), InvalidGain),
    (dict(c2_values=(nan,)), InvalidGain),
    (dict(c2_values=(inf,)), InvalidGain),
    (dict(rho_values=(nan,)), InfeasibleRho),
    (dict(rho_values=(0.0, -inf)), InfeasibleRho),
    (dict(p_values=()), CcdpError),
    (dict(c2_values=()), CcdpError),
    (dict(rho_values=()), CcdpError),
    (dict(m_values=(2, 2)), CcdpError),
    (dict(p_values=(10.0, 10.0)), CcdpError),
    (dict(c2_values=(4.0, 9.0, 4.0)), CcdpError),
    (dict(rho_values=(0.0, 0.5, 0.0)), CcdpError),
    (dict(rho_points=0), CcdpError),
])
def test_grid_rejects_invalid_axes(over, error):
    kw = dict(m_values=(2, 3), p_values=(10.0,), c2_values=(4.0,),
              rho_values=(0.0,))
    kw.update(over)
    with pytest.raises(error):
        SweepGrid(**kw)


def test_grid_size_counts_every_row():
    g = SweepGrid((3, 2), (10.0, 50.0), (4.0,), (0.0, 0.6, -0.6))
    assert g.size() == len(run_sweep(g)) == 2 * 1 * (3 + 2)


# ---------------------------------------------------------------------------
# Sweeps.
# ---------------------------------------------------------------------------

def test_single_point_sweep():
    g = SweepGrid((2,), (10.0,), (4.0,), (0.0,))
    report = run_sweep(g)
    assert len(report) == 1
    row = report.row(0)
    # two receivers, independent states: the dedicated pair applies
    assert row.gap == pytest.approx(1.0, abs=1e-12)
    assert row.inner == pytest.approx(0.9534452978042593, abs=1e-12)
    assert row.variant == "appendix-loosened"


def test_sweep_uses_model_specific_pairs():
    g = SweepGrid((2, 3), (10.0,), (4.0,), (0.0, 0.5))
    by_key = {(r.M, r.rho): r for r in rows(run_sweep(g))}
    assert by_key[(2, 0.0)].variant == "appendix-loosened"
    assert by_key[(2, 0.5)].variant == "appendix-form"
    assert by_key[(3, 0.0)].variant == "appendix-form"


def test_sweep_row_order_lexicographic():
    g = small_grid(rho_values=(0.0, 0.5))
    report = run_sweep(g)
    keys = [(r.M, r.P, r.c, r.rho) for r in rows(report)]
    assert keys == sorted(keys)
    assert len(report) == g.size()


def test_sweep_standard_two_receiver_grid_max_gap_one():
    # the dedicated pair caps the gap at exactly 1 over the whole grid
    g = standard_grid(m_values=(2,), rho_values=(0.0,))
    report = run_sweep(g)
    assert report.max_gap == pytest.approx(1.0, abs=1e-9)


def test_sweep_deterministic_csv():
    g = small_grid()
    a = rows_to_csv(run_sweep(g))
    b = rows_to_csv(run_sweep(g))
    assert a == b


# Pair-rule oracle grid: rho below, at and above 0 (feasible up to M = 5);
# c2 = 0, below 1, in the middle strips and above (M-1)(P+1) for every M and
# P, and exactly at each branch point 1, M-1, P+1 and (M-1)(P+1), both as c2
# and as the effective gain c2*(1-rho) at rho = 0.5 (c2 twice the point).
ORACLE_BREAKS = {1.0} | {M - 1.0 for M in (2, 3, 5)} | {
    f * (P + 1.0) for f in (1.0, 2.0, 4.0) for P in (10.0, 50.0)}
ORACLE_GRID = SweepGrid(
    (2, 3, 5), (10.0, 50.0),
    tuple(sorted({0.0, 0.5, 2.0, 6.0, 100.0, 1000.0} | ORACLE_BREAKS
                 | {2.0 * t for t in ORACLE_BREAKS})),
    (-0.2, 0.0, 0.5))


def _direct_pair(theorem, variant, p):
    """The public bound calls a row of this theorem and variant stands for."""
    appendix = variant == "appendix"
    if theorem == "Th3" or (theorem is None and p.M == 2 and p.rho == 0.0):
        return ccdp2_inner(p), ccdp2_outer(p, APPENDIX_LOOSENED if appendix else THEOREM)
    if theorem == "Th4":
        return ccdp_m_inner(p), ccdp_m_outer(p, APPENDIX_FORM if appendix else THEOREM)
    return ccdp_es_inner(p), ccdp_es_outer(p, APPENDIX_FORM if appendix else THEOREM)


@pytest.mark.parametrize("variant", ["appendix", "theorem-statement"])
@pytest.mark.parametrize("theorem", [None, "Th3", "Th4", "Th5", "Th6"])
def test_rows_equal_direct_bound_calls(theorem, variant):
    if theorem is None:
        grid = SweepGrid(ORACLE_GRID.m_values, ORACLE_GRID.p_values,
                         ORACLE_GRID.c2_values, ORACLE_GRID.rho_values,
                         outer_variant=variant)
        report = run_sweep(grid)
    else:
        m_values = (2,) if theorem in ("Th3", "Th5") else ORACLE_GRID.m_values
        rho_values = (0.0,) if theorem in ("Th3", "Th4") else ORACLE_GRID.rho_values
        grid = SweepGrid(m_values, ORACLE_GRID.p_values, ORACLE_GRID.c2_values,
                         rho_values)
        report = certify_theorem(theorem, grid, variant_kind=variant)
    assert len(report) == grid.size()
    _assert_rows_equal_direct_calls(report, theorem, variant)


def _assert_rows_equal_direct_calls(report, theorem, variant):
    for r in rows(report):
        inner, outer = _direct_pair(theorem, variant, ChannelParams(r.M, r.P, r.c, r.rho))
        assert (r.variant, r.inner, r.outer, r.gap, r.inner_branch, r.outer_branch) \
            == (outer.variant, inner.value, outer.value, outer.value - inner.value,
                inner.branch, outer.branch)


BREAK_POINTS = (0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 11.0, 22.0, 44.0)


@settings(max_examples=60, deadline=None)
@given(
    theorem=st.sampled_from([None, "Th3", "Th4", "Th5", "Th6"]),
    variant=st.sampled_from(["appendix", "theorem-statement"]),
    m_values=st.lists(st.integers(2, 6), min_size=1, max_size=3, unique=True),
    p_values=st.lists(st.floats(1e-3, 1e5), min_size=1, max_size=3, unique=True),
    c2_values=st.lists(st.one_of(st.floats(0.0, 1e6), st.sampled_from(BREAK_POINTS)),
                       min_size=1, max_size=4, unique=True),
    rho_values=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3, unique=True),
)
def test_rows_equal_scalar_pair_on_random_grids(theorem, variant, m_values, p_values,
                                                c2_values, rho_values):
    # every row equals the scalar pair exactly, values and labels alike
    if theorem in ("Th3", "Th5"):
        m_values = [2]
    if theorem in ("Th3", "Th4"):
        rho_values = [0.0]
    grid = SweepGrid(tuple(m_values), tuple(p_values), tuple(c2_values),
                     tuple(rho_values), outer_variant=variant)
    if theorem is None:
        report = run_sweep(grid)
    else:
        report = certify_theorem(theorem, grid, variant_kind=variant)
    assert len(report) == grid.size()
    _assert_rows_equal_direct_calls(report, theorem, variant)


def test_log2_plane_equals_math_log2():
    # np.log2 differs from math.log2 in the last ulp on about 1 in 300 of
    # these inputs
    from ccdp.bounds import _log2_plane
    x = np.random.default_rng(1).uniform(0.5, 2.0, (100, 100))
    assert _log2_plane(x).tolist() == [[log2(v) for v in r] for r in x.tolist()]


def test_report_rows_are_plain_python_scalars():
    row = run_sweep(SweepGrid((2, 3), (10.0,), (4.0,), (0.0, 0.5))).row(1)
    assert [type(v) for v in astuple(row)] == [
        int, float, float, float, str, float, float, float, str, str, bool]
    assert all(type(r) is float for r in small_grid().rho_axis(3))


@pytest.mark.parametrize("chunk", [None, 7])
def test_csv_lines_equal_per_row_formatting(monkeypatch, chunk):
    if chunk:  # rows rendered a few at a time give the same text
        monkeypatch.setattr("ccdp.gaps.CSV_CHUNK", chunk)
    report = run_sweep(small_grid(rho_values=(-0.5, 0.0, 0.5)))
    text = rows_to_csv(report)
    assert text.endswith("\n") and not text.endswith("\n\n")
    lines = text.splitlines()[1:]
    assert len(lines) == len(report)
    for i, line in enumerate(lines):
        r = report.row(i)
        assert line == ",".join((str(r.M), repr(r.P), repr(r.c), repr(r.rho),
                                 r.variant, repr(r.inner), repr(r.outer),
                                 repr(r.gap), r.inner_branch, r.outer_branch))


def test_grid_commands_make_no_call_per_point(monkeypatch):
    # sweeps, certificates and audits evaluate planes: no ChannelParams and
    # no public bound call per grid point
    import ccdp.bounds
    import ccdp.gaps
    grid = small_grid()
    grids = [replace(theorem_grid(t, grid), rho_values=(0.0,)) for t in THEOREMS]
    params_calls, bound_calls = [], []

    def counted(fn, calls):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ccdp.gaps, "ChannelParams", counted(ChannelParams, params_calls))
    for name in ("ccdp2_inner", "ccdp2_outer", "ccdp_m_inner", "ccdp_m_outer",
                 "ccdp_es_inner", "ccdp_es_outer", "baseline_outer_2"):
        monkeypatch.setattr(ccdp.bounds, name,
                            counted(getattr(ccdp.bounds, name), bound_calls))
    run_sweep(grid)
    for theorem, g in zip(THEOREMS, grids):
        certify_theorem(theorem, g)
    monotonicity_audit(grid, tuple(AUDIT_FAMILIES))
    assert bound_calls == []
    # only the axis checks of the grid certify_theorem sets the variant on
    assert len(params_calls) == sum(
        len(g.m_values) + len(g.p_values) + len(g.c2_values) for g in grids)


def test_th4_statement_at_two_receivers_is_the_general_form():
    # Th4 at M = 2 uses the general-M statement; the sweep's M = 2, rho = 0
    # pair uses the dedicated two-receiver statement.
    grid = SweepGrid((2,), (10.0,), (100.0,), (0.0,))
    th4 = certify_theorem("Th4", grid, variant_kind=THEOREM).row(0)
    sweep = run_sweep(SweepGrid((2,), (10.0,), (100.0,), (0.0,),
                                outer_variant=THEOREM)).row(0)
    assert th4.outer_branch == "c2>=(M-1)(P+1)" and th4.inner_branch == "time-sharing"
    assert sweep.outer_branch == "c2>=P+1" and sweep.inner_branch == "c2>=P+1"
    assert th4.outer == pytest.approx(0.25 * log2(11.0) + 2.0, abs=1e-12)
    assert sweep.outer == pytest.approx(0.25 * log2(11.0) + 1.0, abs=1e-12)
    assert th4.inner == sweep.inner


def test_variant_spellings_normalized():
    for token in ("appendix", APPENDIX_FORM, APPENDIX_LOOSENED):
        assert small_grid(outer_variant=token).outer_variant == APPENDIX_FORM
    assert small_grid(outer_variant=THEOREM).outer_variant == THEOREM
    with pytest.raises(ValueError):
        small_grid(outer_variant="raw-unoptimized")
    with pytest.raises(ValueError):
        certify_theorem("Th3", theorem_grid("Th3", small_grid()), variant_kind="bogus")


def test_csv_schema():
    g = SweepGrid((2,), (10.0,), (4.0,), (0.0,))
    text = rows_to_csv(run_sweep(g), meta={"tool_version": "t"})
    lines = text.strip().split("\n")
    assert lines[0] == "# tool_version: t"
    assert lines[1] == ",".join(CSV_COLUMNS)
    fields = lines[2].split(",")
    assert fields[0] == "2" and float(fields[1]) == 10.0
    assert fields[4] == "appendix-loosened"
    # shortest round-trip float formatting
    assert fields[5] == repr(0.9534452978042593)


# ---------------------------------------------------------------------------
# Certification.
# ---------------------------------------------------------------------------

def test_th3_certifies_at_exactly_one():
    report = certify_theorem("Th3", theorem_grid("Th3"))
    assert report.certified is True
    assert report.max_gap == pytest.approx(1.0, abs=1e-9)
    assert report.min_gap >= -1e-12


def test_th4_certifies_with_argmax_in_small_gain_regime():
    report = certify_theorem("Th4", theorem_grid("Th4"))
    assert report.certified is True
    assert report.max_gap <= 2.25 + 1e-9
    a = report.argmax
    assert a.c ** 2 <= a.M - 1.0 + 1e-9


def test_th5_and_th6_certify():
    r5 = certify_theorem("Th5", theorem_grid("Th5"))
    assert r5.certified is True and r5.max_gap <= 2.25 + 1e-9
    r6 = certify_theorem("Th6", theorem_grid("Th6", small_grid()))
    assert r6.certified is True
    a = r6.argmax
    assert a.c ** 2 * (1.0 - max(a.rho, 0.0)) <= a.M - 1.0 + 1e-9


def test_th5_theorem_variant_observes_smaller_gap():
    report = certify_theorem("Th5", theorem_grid("Th5"),
                             variant_kind="theorem-statement")
    assert report.certified is True
    assert report.max_gap == pytest.approx(1.0, abs=1e-9)
    assert report.min_gap >= -1e-12


def test_th4_theorem_statement_reports_without_certifying():
    report = certify_theorem("Th4", theorem_grid("Th4"),
                             variant_kind="theorem-statement")
    assert report.certified is False
    assert report.max_gap > 2.25
    assert any("middle branch" in w for w in report.warnings)
    assert any("negative gap" in w for w in report.warnings)


def test_certify_rejects_mismatched_grid():
    with pytest.raises(WrongModel):
        certify_theorem("Th3", small_grid())  # M=3 present
    with pytest.raises(WrongModel):
        certify_theorem("Th4", small_grid(rho_values=(0.0, 0.5)))


def test_small_regime_rule():
    # P <= 3 rows are covered by 1/2*log2(1+P) <= 1 for the 1-bpcu claim
    g = SweepGrid((2,), (0.5, 2.0, 3.0, 10.0), (0.5, 2.0, 4.0), (0.0,))
    report = certify_theorem("Th3", g)
    assert report.small_regime_rows == 11  # all but (P=10, c2=4)
    assert report.certified is True
    for P in (0.5, 2.0, 3.0):
        assert 0.5 * log2(1 + P) <= 1.0
    # and the rule genuinely has teeth: beyond P = 3 it no longer applies
    assert 0.5 * log2(1 + 3.01) > 1.0


def test_gap_nonnegative_on_appendix_runs():
    for theorem in ("Th3", "Th4", "Th6"):
        grid = theorem_grid(theorem, small_grid())
        report = certify_theorem(theorem, grid)
        assert all(r.gap >= -1e-12 for r in rows(report))


def test_report_summary_shape():
    report = certify_theorem("Th3", theorem_grid("Th3"))
    s = report_summary(report)
    assert s["certified"] is True
    assert s["maxGap"] == pytest.approx(1.0, abs=1e-9)
    assert s["claimedGap"] == 1.0
    assert s["argmax"]["gap_bpcu"] == s["maxGap"]
    assert s["grid"]["size"] == 2500


# ---------------------------------------------------------------------------
# Raw-vs-optimized outer curve.
# ---------------------------------------------------------------------------

def test_fig3_structure():
    cs = np.linspace(0.1, 10.0, 200)
    rows = fig3_curve(10.0, cs)
    raw = np.array([r[1] for r in rows])
    opt = np.array([r[2] for r in rows])
    c_star = sqrt(11.0)
    below = cs <= c_star
    # below the minimizer the optimized curve equals the raw curve
    assert np.max(np.abs(raw[below] - opt[below])) == 0.0
    # beyond it the raw curve increases strictly, the optimized one is flat
    assert np.all(np.diff(raw[~below]) > 0)
    assert np.max(opt[~below]) - np.min(opt[~below]) < 1e-9
    # at the boundary the two agree (optimization is inactive there)
    r_at = fig3_curve(10.0, [c_star])[0]
    assert r_at[1] == pytest.approx(r_at[2], abs=1e-12)


def test_fig3_matches_golden_section_oracle():
    from scipy.optimize import minimize_scalar

    def raw(c):
        return ccdp2_outer(ChannelParams(2, 10.0, c), RAW).value
    for c in (0.5, 2.0, 5.0, 9.0):
        opt = fig3_curve(10.0, [c])[0][2]
        res = minimize_scalar(raw, bounds=(1e-6, c), method="bounded",
                              options={"xatol": 1e-12})
        # boundary minima leave the numerical oracle ~1e-8 short
        assert opt == pytest.approx(res.fun, abs=1e-7)


@pytest.mark.parametrize("P", [0.0, nan, inf])
def test_fig3_rejects_invalid_power(P):
    with pytest.raises(InvalidPower):
        fig3_curve(P, [1.0])


@pytest.mark.parametrize("c", [-1.0, nan, inf])
def test_fig3_rejects_invalid_gain(c):
    with pytest.raises(InvalidGain):
        fig3_curve(10.0, [1.0, c])


# ---------------------------------------------------------------------------
# Monotonicity audit.
# ---------------------------------------------------------------------------

def test_audit_optimized_families_clean():
    assert monotonicity_audit(small_grid()) == []


def test_audit_raw_outer_documents_violations():
    g = SweepGrid((2,), (10.0,),
                  tuple(np.logspace(np.log10(3.01), 4, 30)), (0.0,))
    violations = monotonicity_audit(g, families=("outer-2-raw",))
    assert violations
    assert all(v.family == "outer-2-raw" for v in violations)
    # increases appear beyond the minimizer sqrt(P+1)
    assert all(v.c_high > sqrt(11.0) for v in violations)


def test_audit_theorem_statement_outer_violates():
    g = SweepGrid((4,), (10.0,),
                  tuple(np.logspace(np.log10(3.01), 3, 40)), (0.0,))
    assert monotonicity_audit(g, families=("outer-m-theorem",))


def test_audit_constant_slice_clean():
    # fully correlated states: every bound is constant in c
    g = SweepGrid((3,), (10.0,),
                  tuple(np.logspace(np.log10(3.01), 5, 25)), (1.0,))
    assert monotonicity_audit(
        g, families=("inner-es", "outer-es-appendix", "outer-es-theorem")) == []


def test_audit_propagates_errors_other_than_wrong_model():
    # the raw outer bound is undefined at c = 0; that is not a skipped slice
    g = SweepGrid((2, 3), (10.0,), (0.0, 4.0), (0.0,))
    with pytest.raises(DomainError):
        monotonicity_audit(g, ("outer-2-raw",))


def test_audit_family_registry():
    assert set(OPTIMIZED_FAMILIES) <= set(AUDIT_FAMILIES)


# The scalar bound each audit family scans, called once per grid point.
SCALAR_FAMILIES = {
    "inner-2": ccdp2_inner,
    "outer-2-appendix": lambda p: ccdp2_outer(p, APPENDIX_LOOSENED),
    "inner-m": ccdp_m_inner,
    "outer-m-appendix": lambda p: ccdp_m_outer(p, APPENDIX_FORM),
    "inner-es": ccdp_es_inner,
    "outer-es-appendix": lambda p: ccdp_es_outer(p, APPENDIX_FORM),
    "outer-2-raw": lambda p: ccdp2_outer(p, RAW),
    "outer-2-theorem": lambda p: ccdp2_outer(p, THEOREM),
    "outer-m-theorem": lambda p: ccdp_m_outer(p, THEOREM),
    "outer-es-theorem": lambda p: ccdp_es_outer(p, THEOREM),
    "baseline-outer-2": baseline_outer_2,
}


def _scalar_audit(grid, name):
    """The audit as one scalar call per point: (M, rho, P, c) order."""
    found, c2s = [], sorted(grid.c2_values)
    for M in grid.m_values:
        for rho in grid.rho_axis(M):
            for P in grid.p_values:
                try:
                    values = [SCALAR_FAMILIES[name](ChannelParams(M, P, sqrt(c2), rho)).value
                              for c2 in c2s]
                except WrongModel:
                    continue
                found += [(name, M, P, rho, sqrt(c2s[i]), sqrt(c2s[i + 1]), b - a)
                          for i, (a, b) in enumerate(zip(values, values[1:]))
                          if b - a > 1e-9]
    return found


@pytest.mark.parametrize("name", sorted(SCALAR_FAMILIES))
def test_audit_equals_scalar_reference(name):
    assert set(SCALAR_FAMILIES) == set(AUDIT_FAMILIES)
    grid = SweepGrid((3, 2), (50.0, 10.0, 1.5),
                     tuple(np.logspace(-1, 3, 24))
                     + (1.0, 2.0, 2.5, 4.0, 5.0, 11.0, 22.0, 51.0, 102.0),
                     (0.5, 0.0, -0.3))
    found = [astuple(v) for v in monotonicity_audit(grid, (name,))]
    assert found == _scalar_audit(grid, name)
    assert all(type(x) is float for v in found for x in v[2:])
