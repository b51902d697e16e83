"""Sweeps, certification, audit and serialization."""

from math import inf, log2, nan, sqrt

import numpy as np
import pytest

from ccdp import (
    APPENDIX_FORM,
    APPENDIX_LOOSENED,
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
    assert g.size() == len(run_sweep(g).rows) == 2 * 1 * (3 + 2)


# ---------------------------------------------------------------------------
# Sweeps.
# ---------------------------------------------------------------------------

def test_single_point_sweep():
    g = SweepGrid((2,), (10.0,), (4.0,), (0.0,))
    report = run_sweep(g)
    assert len(report.rows) == 1
    row = report.rows[0]
    # two receivers, independent states: the dedicated pair applies
    assert row.gap == pytest.approx(1.0, abs=1e-12)
    assert row.inner == pytest.approx(0.9534452978042593, abs=1e-12)
    assert row.variant == "appendix-loosened"


def test_sweep_uses_model_specific_pairs():
    g = SweepGrid((2, 3), (10.0,), (4.0,), (0.0, 0.5))
    rows = run_sweep(g).rows
    by_key = {(r.M, r.rho): r for r in rows}
    assert by_key[(2, 0.0)].variant == "appendix-loosened"
    assert by_key[(2, 0.5)].variant == "appendix-form"
    assert by_key[(3, 0.0)].variant == "appendix-form"


def test_sweep_row_order_lexicographic():
    g = small_grid(rho_values=(0.0, 0.5))
    report = run_sweep(g)
    keys = [(r.M, r.P, r.c, r.rho) for r in report.rows]
    assert keys == sorted(keys)
    assert len(report.rows) == g.size()


def test_sweep_standard_two_receiver_grid_max_gap_one():
    # the dedicated pair caps the gap at exactly 1 over the whole grid
    g = standard_grid(m_values=(2,), rho_values=(0.0,))
    report = run_sweep(g)
    assert report.max_gap == pytest.approx(1.0, abs=1e-9)


def test_sweep_deterministic_csv():
    g = small_grid()
    a = rows_to_csv(run_sweep(g).rows)
    b = rows_to_csv(run_sweep(g).rows)
    assert a == b


# Pair-rule oracle grid: rho below, at and above 0 (feasible up to M = 5);
# c2 below 1, in the middle strips and above (M-1)(P+1) for every M and P.
ORACLE_GRID = SweepGrid((2, 3, 5), (10.0, 50.0), (0.5, 2.0, 6.0, 100.0, 1000.0),
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
        rows = run_sweep(grid).rows
    else:
        m_values = (2,) if theorem in ("Th3", "Th5") else ORACLE_GRID.m_values
        rho_values = (0.0,) if theorem in ("Th3", "Th4") else ORACLE_GRID.rho_values
        grid = SweepGrid(m_values, ORACLE_GRID.p_values, ORACLE_GRID.c2_values,
                         rho_values)
        rows = certify_theorem(theorem, grid, variant_kind=variant).rows
    assert len(rows) == grid.size()
    for r in rows:
        inner, outer = _direct_pair(theorem, variant, ChannelParams(r.M, r.P, r.c, r.rho))
        assert (r.variant, r.inner, r.outer, r.gap, r.inner_branch, r.outer_branch) \
            == (outer.variant, inner.value, outer.value, outer.value - inner.value,
                inner.branch, outer.branch)


def test_th4_statement_at_two_receivers_is_the_general_form():
    # Th4 at M = 2 uses the general-M statement; the sweep's M = 2, rho = 0
    # pair uses the dedicated two-receiver statement.
    grid = SweepGrid((2,), (10.0,), (100.0,), (0.0,))
    th4 = certify_theorem("Th4", grid, variant_kind=THEOREM).rows[0]
    sweep = run_sweep(SweepGrid((2,), (10.0,), (100.0,), (0.0,),
                                outer_variant=THEOREM)).rows[0]
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
    text = rows_to_csv(run_sweep(g).rows, meta={"tool_version": "t"})
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
        assert all(r.gap >= -1e-12 for r in report.rows)


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
    from ccdp.bounds import _outer2_raw
    for c in (0.5, 2.0, 5.0, 9.0):
        opt = fig3_curve(10.0, [c])[0][2]
        res = minimize_scalar(lambda x: _outer2_raw(10.0, x * x),
                              bounds=(1e-6, c), method="bounded",
                              options={"xatol": 1e-12})
        # boundary minima leave the numerical oracle ~1e-8 short
        assert opt == pytest.approx(res.fun, abs=1e-7)


@pytest.mark.parametrize("P", [0.0, nan, inf])
def test_fig3_rejects_invalid_power(P):
    with pytest.raises(InvalidPower):
        fig3_curve(P, [1.0])


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
