"""Sweeps, certification, audit and serialization."""

from dataclasses import astuple, replace
from itertools import product
from math import inf, log2, nan, sqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from ccdp.bounds import _applies, _plane
from ccdp.gaps import (
    AUDIT_FAMILIES,
    CSV_CHUNK,
    CSV_COLUMNS,
    OPTIMIZED_FAMILIES,
    THEOREMS,
    _csv_pieces,
    _strings,
    bound_pair,
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
    # a grid without a feasible point is refused, see
    # test_sweep_and_audit_refuse_a_grid_without_a_feasible_point
    assume(grid.size() > 0)
    if theorem is None:
        report = run_sweep(grid)
    else:
        report = certify_theorem(theorem, grid, variant_kind=variant)
    assert len(report) == grid.size()
    _assert_rows_equal_direct_calls(report, theorem, variant)


@pytest.mark.parametrize("theorem, m_values", [("Th5", (2,)), ("Th6", (3, 4))])
def test_certify_refuses_a_grid_without_a_feasible_point(theorem, m_values):
    grid = SweepGrid(m_values, (10.0,), (4.0,), (-1.5, 5.0))
    assert grid.size() == 0
    with pytest.raises(InfeasibleRho):
        certify_theorem(theorem, grid)


@pytest.mark.parametrize("call", [run_sweep, monotonicity_audit])
def test_sweep_and_audit_refuse_a_grid_without_a_feasible_point(call):
    # nothing to report: not an empty sweep with maxGap -inf, not "0 violations"
    grid = SweepGrid((3, 4), (10.0,), (4.0,), (-1.5, 5.0))
    with pytest.raises(InfeasibleRho):
        call(grid)


@pytest.mark.parametrize("call", [
    lambda: bound_pair(2, 0.0, APPENDIX_FORM, "Th7"),
    lambda: theorem_grid("Th7"),
    lambda: certify_theorem("Th7", small_grid()),
])
def test_unknown_theorem_raises_value_error(call):
    with pytest.raises(ValueError, match="unknown theorem 'Th7', expected one of"):
        call()


@pytest.mark.parametrize("x", [
    # np.log2 differs from math.log2 in the last ulp on about 1 in 300 of these
    np.random.default_rng(1).uniform(0.5, 2.0, (100, 100)),
    np.random.default_rng(2).uniform(0.5, 2.0, (7, 5)).T,  # not contiguous
    np.random.default_rng(3).uniform(1.0, 1e6, 40)[::-3],   # negative stride
    np.empty((0, 3)),
    np.array(3.0),
], ids=["random", "transposed", "reversed", "empty", "0-d"])
def test_log2_plane_equals_math_log2(x):
    from ccdp.bounds import _log2_plane
    y = _log2_plane(x)
    assert y.shape == x.shape and y.dtype == np.float64
    assert [v.item() for v in y.flat] == [log2(v) for v in x.flat]


def test_report_rows_are_plain_python_scalars():
    row = run_sweep(SweepGrid((2, 3), (10.0,), (4.0,), (0.0, 0.5))).row(1)
    assert [type(v) for v in astuple(row)] == [
        int, float, float, float, str, float, float, float, str, str, bool]
    assert all(type(r) is float for r in small_grid().rho_axis(3))


def _csv_row_by_row(report):
    lines = [",".join(CSV_COLUMNS)]
    for i in range(len(report)):
        r = report.row(i)
        lines.append(",".join((str(r.M), repr(r.P), repr(r.c), repr(r.rho), r.variant,
                               repr(r.inner), repr(r.outer), repr(r.gap),
                               r.inner_branch, r.outer_branch)))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("chunk", [None, 7])
def test_csv_lines_equal_per_row_formatting(monkeypatch, chunk):
    if chunk:  # rows rendered a few at a time give the same text
        monkeypatch.setattr("ccdp.gaps.CSV_CHUNK", chunk)
    report = run_sweep(small_grid(rho_values=(-0.5, 0.0, 0.5)))
    assert rows_to_csv(report) == _csv_row_by_row(report)


def test_strings_formats_each_bit_pattern_as_repr():
    # 0.0 and -0.0 compare equal but print apart; so do two NaN payloads
    other_nan = np.array([0x7FF8000000000001]).view(float)[0]
    col = np.array([0.0, -0.0, nan, inf, -inf, 5e-324, 1e308, -0.0, 0.0, 2.5,
                    other_nan, 1e308, 2.5, -inf, 5e-324, -nan])
    assert _strings(col, repr) == [repr(v) for v in col.tolist()]
    assert _strings(col[1::-1], repr) == ["-0.0", "0.0"]
    assert _strings(col, repr, ",") == [f"{v!r}," for v in col.tolist()]


@settings(max_examples=8, deadline=None)
@given(
    m_values=st.lists(st.integers(2, 4), min_size=1, max_size=2, unique=True),
    p_values=st.lists(st.floats(1e-3, 1e5), min_size=33, max_size=36, unique=True),
    c2_values=st.lists(st.floats(0.0, 1e6), min_size=32, max_size=34, unique=True),
    rho_values=st.lists(st.floats(-1.0 / 3.0, 1.0).filter(bool), min_size=3, max_size=4,
                        unique=True),
)
def test_csv_of_random_grids_equals_rows_formatted_one_by_one(m_values, p_values,
                                                               c2_values, rho_values):
    # several CSV pieces, every rho feasible for every M, and -0.0 among them
    report = run_sweep(SweepGrid(tuple(m_values), tuple(p_values), tuple(c2_values),
                                 (-0.0, *rho_values)))
    assert len(report) > CSV_CHUNK
    assert rows_to_csv(report) == _csv_row_by_row(report)


# Grids whose M values have different rho counts (-0.5 is feasible for
# M <= 3 only, -0.9 for M = 2 only), with -0.0 or 0.0 and 1.0 among the rho.
DECODE_GRIDS = [SweepGrid((5, 2, 3), (10.0, 0.5, 3.0), (4.0, 0.0, 11.0, 1.0),
                          (1.0, zero, -0.5, 0.25, -0.9)) for zero in (-0.0, 0.0)]


def _axes_walk(grid, theorem):
    """M, P, c, rho and variant of each row: the sorted axes walked with
    itertools.product, M slowest and rho fastest, the variant by bound_pair."""
    return [(M, P, np.sqrt(c2).item(), rho, bound_pair(M, rho, grid.outer_variant, theorem)[2])
            for M in sorted(grid.m_values)
            for P, c2, rho in product(sorted(grid.p_values), sorted(grid.c2_values),
                                      sorted(grid.rho_axis(M)))]


@pytest.mark.parametrize("variant", ["appendix", "theorem-statement"])
@pytest.mark.parametrize("theorem, grid", [
    *((None, grid) for grid in DECODE_GRIDS),
    *((theorem, theorem_grid(theorem, small_grid())) for theorem in THEOREMS),
    ("Th6", DECODE_GRIDS[0]), ("Th5", replace(DECODE_GRIDS[1], m_values=(2,))),
])
def test_rows_take_their_axis_values_from_the_grid_in_product_order(theorem, grid,
                                                                      variant):
    grid = replace(grid, outer_variant=variant)
    report = (run_sweep(grid) if theorem is None
              else certify_theorem(theorem, grid, variant_kind=variant))
    if theorem is None:  # a different number of rho per M
        assert sorted(len(grid.rho_axis(M)) for M in grid.m_values) == [3, 4, 5]
    # repr tells -0.0 from 0.0
    assert [repr(astuple(report.row(i))[:5]) for i in range(len(report))] \
        == [repr(axes) for axes in _axes_walk(grid, theorem)]
    assert repr(astuple(report.row(-1))[:5]) == repr(_axes_walk(grid, theorem)[-1])
    with pytest.raises(IndexError):
        report.row(len(report))


@pytest.mark.parametrize("chunk", [4, 7, 4096])
def test_csv_pieces_hold_at_most_csv_chunk_rows_of_one_m_block(monkeypatch, chunk):
    # 13 rho per M: a piece of 4 or 7 rows starts and ends inside a (P, c2) group
    monkeypatch.setattr("ccdp.gaps.CSV_CHUNK", chunk)
    report = run_sweep(small_grid(m_values=(3, 2, 5), rho_points=13))
    pieces = list(_csv_pieces(report))[2:]
    lines = [piece.splitlines() for piece in pieces]
    assert all(0 < len(piece) <= chunk for piece in lines)
    assert all(len({line.split(",", 1)[0] for line in piece}) == 1 for piece in lines)
    block = 6 * 8 * 13
    assert len(pieces) == 3 * -(-block // chunk)
    assert "".join(pieces) == _csv_row_by_row(report).split("\n", 1)[1]


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
    # each grid was checked when it was built; certify_theorem checks no axis again
    assert params_calls == []


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


# ---------------------------------------------------------------------------
# The domain ceilings reach the grid axes, and every plane is finite up to them.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("axes, error", [
    (((2,), (np.nextafter(1e280, np.inf),), (4.0,)), InvalidPower),
    (((2,), (10.0,), (1.001e280,)), InvalidGain),
    (((2 ** 53 + 1,), (10.0,), (4.0,)), InvalidM),
])
def test_grid_axes_stop_at_the_domain_ceilings(axes, error):
    with pytest.raises(error):
        SweepGrid(*axes)


def _model_rhos(bound, M, rhos):
    # the rhos of the list at which the bound's model holds at M
    return [rho for rho in rhos if _applies(bound, M, rho)]


CORNER_P = np.array([5e-324, 1.0, 1e280])[:, None]
CORNER_C = np.array([3e-162, 1.0, 2.0, 1e140])


def test_every_audit_family_is_finite_at_the_domain_corners():
    for bound, variant in AUDIT_FAMILIES.values():
        for M in (2, 3, 2 ** 53):
            rhos = _model_rhos(bound, M, (-1.0 / (M - 1), 0.0, 1.0))
            if rhos:
                (values, _), = _plane(M, CORNER_P, CORNER_C, rhos, (bound, variant))
                assert values.shape == (3, 4, len(rhos))
                assert np.isfinite(values).all(), (bound, variant, M, rhos)


@pytest.mark.parametrize("name", sorted(AUDIT_FAMILIES))
def test_a_slab_equals_the_one_rho_slab_of_each_of_its_rhos(name):
    # -0.0 and 0.0, several rho <= 0 (one effective gain), a repeated rho,
    # rho = 1 (effective gain 0) and the domain corners; out of order
    bound, variant = AUDIT_FAMILIES[name]
    P = np.vstack([CORNER_P, [[3.01], [1e4]]])
    c = np.sort(np.append(CORNER_C, [0.5, 1.7, 3.0, 1e3]))
    slabs = 0
    for M in (2, 3, 5, 2 ** 53):
        rhos = _model_rhos(bound, M, (0.5, -0.0, -1.0 / (M - 1), 1.0, 0.0, -0.1, 0.5,
                                      1e-300, 0.0, 0.25))
        if not rhos:
            continue
        slabs += 1
        assert len(rhos) >= 3 and {repr(rho) for rho in rhos} >= {"0.0", "-0.0"}
        (values, codes), = _plane(M, P, c, rhos, (bound, variant))
        assert values.shape == codes.shape == (P.size, c.size, len(rhos))
        for k, rho in enumerate(rhos):
            (one, one_codes), = _plane(M, P, c, [rho], (bound, variant))
            assert values[..., k].tobytes() == one[..., 0].tobytes(), (M, rho)
            assert codes[..., k].tobytes() == one_codes[..., 0].tobytes(), (M, rho)
    assert slabs >= 1


@pytest.mark.parametrize("variant", ["appendix", "theorem-statement"])
def test_sweep_at_the_domain_corners_is_finite(variant):
    grid = SweepGrid((2, 3, 2 ** 53), (5e-324, 1e280), (0.0, 1e-320, 1e140 * 1e140),
                     rho_points=3, outer_variant=variant)
    report = run_sweep(grid)
    assert len(report) == grid.size()
    for name in ("inner", "outer", "gap"):
        assert np.isfinite(report.columns[name]).all()
    if variant == "appendix":
        assert 0.0 <= report.columns["gap"].min() and report.max_gap <= 2.25 + 1e-9


# ---------------------------------------------------------------------------
# Slabs: a grid call evaluates each bound once per M over its rho axis.
# ---------------------------------------------------------------------------

def _computed_planes(monkeypatch):
    # A count of the slabs computed: the bounds of the calls of bounds._plane
    # that evaluated a logarithm.
    import ccdp.bounds
    plane, log2_plane = ccdp.bounds._plane, ccdp.bounds._log2_plane
    count, evaluated = [0], []

    def counted_log2(x):
        evaluated.append(x.size)
        return log2_plane(x)

    def counted(M, P, c, rhos, *bounds):
        before = len(evaluated)
        result = plane(M, P, c, rhos, *bounds)
        count[0] += len(bounds) if len(evaluated) > before else 0
        return result

    monkeypatch.setattr(ccdp.bounds, "_log2_plane", counted_log2)
    monkeypatch.setattr(ccdp.bounds, "_plane", counted)
    return count


@pytest.mark.parametrize("label, call, planes", [
    ("sweep", lambda: run_sweep(standard_grid()), 16),
    ("Th6", lambda: certify_theorem("Th6", theorem_grid("Th6")), 14),
    ("Th5", lambda: certify_theorem("Th5", theorem_grid("Th5")), 2),
    ("audit", lambda: monotonicity_audit(standard_grid(), OPTIMIZED_FAMILIES), 22),
])
def test_a_grid_call_computes_each_plane_once(monkeypatch, label, call, planes):
    # one slab per (bound, M, variant) over the rho that share a bound pair
    # (the sweep's rho = 0 at M = 2 is its own); 146, 144, 14 and 152 planes
    # of one (M, max(rho, 0)) each, 182, 182, 26 and 190 of one (M, rho); the
    # second call of the same command shares nothing with the first
    count = _computed_planes(monkeypatch)
    call()
    first = count[0]
    call()
    assert (first, count[0] - first) == (planes, planes)


def _log2_elements(monkeypatch):
    # A count of the elements bounds._log2_plane takes the exact log2 of.
    import ccdp.bounds
    log2_plane, count = ccdp.bounds._log2_plane, [0]

    def counted(x):
        count[0] += x.size
        return log2_plane(x)

    monkeypatch.setattr(ccdp.bounds, "_log2_plane", counted)
    return count


@pytest.mark.parametrize("label, call, elements", [
    ("sweep", lambda: run_sweep(standard_grid()), 151_016),
    ("Th3", lambda: certify_theorem("Th3", theorem_grid("Th3")), 1_780),
    ("Th4", lambda: certify_theorem("Th4", theorem_grid("Th4")), 13_906),
    ("Th5", lambda: certify_theorem("Th5", theorem_grid("Th5")), 14_222),
    ("Th6", lambda: certify_theorem("Th6", theorem_grid("Th6")), 149_236),
    ("audit", lambda: monotonicity_audit(standard_grid(), OPTIMIZED_FAMILIES), 156_799),
])
def test_a_grid_call_takes_each_gains_log2_once_per_plane(monkeypatch, label, call,
                                                           elements):
    # the two slabs of a pair share the gains' log2 and the small-gain branch,
    # and so do the audit's families of one M whose rho agree: 192,649 for the
    # audit when each family took its own (522,809 per pass, 486,959 now);
    # 186,666, 1,830, 14,806, 17,222, 184,836 and 192,649 elements when each
    # slab took its own (598,009 per pass);
    # 195,366, 1,830, 14,806, 17,972, 193,536 and 201,349 elements when a
    # gain-flat piece ran once per (M, max(rho, 0)) plane, not once per slab;
    # 302,282, 3,360, 26,062, 28,344, 298,922 and 313,198 when a piece took
    # the log2 of its own gains, element by element
    count = _log2_elements(monkeypatch)
    call()
    assert count[0] == elements


def test_finalize_takes_the_trivial_bound_once_per_distinct_power(monkeypatch):
    # certify --theorem Th6 --P-min 0.1: 68,250 small-regime rows, 15 powers
    axes = standard_grid()
    grid = theorem_grid("Th6", SweepGrid(axes.m_values, tuple(np.logspace(-1, 4, 50)),
                                         axes.c2_values))
    report = certify_theorem("Th6", grid)
    summary = report_summary(report)
    count = _log2_elements(monkeypatch)
    assert report.finalize() is report and report_summary(report) == summary
    assert (count[0], report.small_regime_rows) == (15, 68_250)
    # the certificate of the trivial bound taken row by row
    small, gap, limit = report.columns["small_regime"], report.columns["gap"], 2.25 + 1e-9
    covered = all(g <= limit or 0.5 * log2(1.0 + P) <= limit for g, P in
                  zip(gap[small].tolist(),
                      [report.row(i).P for i in np.flatnonzero(small).tolist()]))
    assert report.certified is (covered and report.max_gap <= limit) is True


ZERO_GAIN_AXES = ((2, 3, 5), (0.5, 3.0, 10.0, 1e3), (0.0, 0.5, 1.0, 4.0, 11.0, 1e4),
                  (-0.25, 0.0, 0.5, 1.0))


@pytest.mark.parametrize("theorem", [None, "Th5", "Th6"])
@pytest.mark.parametrize("variant", ["appendix", "theorem-statement"])
def test_rows_equal_the_scalar_pair_at_zero_effective_gain(theorem, variant):
    # c2 = 0, and rho = 1 at every c2, give the effective gain 0, whose log2
    # a plane never takes
    m_values = (2,) if theorem == "Th5" else ZERO_GAIN_AXES[0]
    grid = SweepGrid(m_values, *ZERO_GAIN_AXES[1:], outer_variant=variant)
    report = (run_sweep(grid) if theorem is None
              else certify_theorem(theorem, grid, variant_kind=variant))
    assert len(report) == grid.size() and 1.0 in [r.rho for r in rows(report)]
    _assert_rows_equal_direct_calls(report, theorem, variant)


@pytest.mark.parametrize("name", [name for name, (_, variant) in AUDIT_FAMILIES.items()
                                  if variant != RAW])
def test_audit_at_zero_effective_gain_equals_scalar_reference(name):
    grid = SweepGrid(*ZERO_GAIN_AXES)
    found = [astuple(v) for v in monotonicity_audit(grid, (name,))]
    assert found == _scalar_audit(grid, name)


@pytest.mark.parametrize("zero", [0.0, -0.0])
@pytest.mark.parametrize("theorem", [None, "Th5", "Th6"])
@pytest.mark.parametrize("variant", ["appendix", "theorem-statement"])
def test_rows_equal_the_scalar_pair_across_nonpositive_rho(theorem, variant, zero):
    # three or more rho <= 0 per M share one plane of each bound with rho = 0;
    # at M = 2 the rho = 0 slice takes the two-receiver pair instead
    m_values = (2,) if theorem == "Th5" else (2, 3, 5)
    grid = SweepGrid(m_values, (0.5, 3.0, 10.0, 1e3),
                     (0.0, 0.5, 1.0, 2.0, 4.0, 11.0, 44.0, 1e4),
                     (-0.25, -0.1, zero, 0.5), outer_variant=variant)
    assert all(sum(r <= 0.0 for r in grid.rho_axis(M)) >= 3 for M in m_values)
    report = (run_sweep(grid) if theorem is None
              else certify_theorem(theorem, grid, variant_kind=variant))
    assert len(report) == grid.size()
    _assert_rows_equal_direct_calls(report, theorem, variant)
    assert [repr(report.row(i).rho) for i in range(4)] \
        == ["-0.25", "-0.1", repr(zero), "0.5"]


def test_a_fixed_rho_model_is_not_served_from_the_rho_zero_plane():
    # rho = 0 and rho = -0.3 share the effective gain, but only rho = 0 is
    # in the model of a fixed-rho bound
    grid = SweepGrid((3, 2), (10.0, 100.0), tuple(np.logspace(-1, 4, 12)), (0.0, -0.3))
    found = monotonicity_audit(grid, ("inner-m", "outer-m-theorem", "outer-2-theorem"))
    assert found and {v.rho for v in found} == {0.0}
    with pytest.raises(WrongModel):
        _plane(3, np.array([[10.0]]), np.array([1.0, 3.0]), [0.0, -0.3],
               ("ccdp_m_inner", THEOREM))


@pytest.mark.parametrize("name", ["outer-es-theorem", "outer-2-raw", "outer-m-theorem"])
def test_audit_reports_each_violation_for_each_rho(name):
    grid = SweepGrid((2, 3), (3.0, 10.0, 1e3), tuple(np.logspace(-1, 4, 30)),
                     (-0.5, -0.3, -0.1, 0.0, 0.4))
    found = [astuple(v) for v in monotonicity_audit(grid, AUDIT_FAMILIES)]
    assert [v for v in found if v[0] == name] == _scalar_audit(grid, name)
    if name == "outer-es-theorem":
        # the same violations at every rho <= 0 of an M, one record each
        for M in grid.m_values:
            by_rho = {rho: [(v[2], v[4], v[5], v[6]) for v in found
                            if v[:2] == (name, M) and v[3] == rho]
                      for rho in grid.rho_axis(M) if rho <= 0.0}
            assert len(by_rho) >= 3 and by_rho[-0.3]
            assert all(v == by_rho[-0.3] for v in by_rho.values())
