"""Parameter sweeps, constant-gap certification and monotonicity audits.

A sweep evaluates one (inner, outer) bound pair over a Cartesian grid and
records the gap per point.  Certification checks the grid-wide maximum gap
against a claimed constant; points in the small-parameter regime (P <= 3 or
c2 <= 3) are covered by the trivial rule that the whole capacity is below
1/2*log2(1+P) there, so either the direct comparison or that bound must stay
within the claim.

Sweeps are exact closed-form evaluations: output is deterministic and two
runs over the same grid produce byte-identical CSV.
"""

import json
from collections import namedtuple
from copy import copy
from dataclasses import astuple, dataclass, field
from math import inf, isfinite, prod, sqrt

import numpy as np

from . import bounds
from .errors import CcdpError, InfeasibleRho, WrongModel
from .model import ChannelParams, _rho_verdict, rho_range

GAP_TOL = 1e-9
MONOTONE_TOL = 1e-9
CSV_CHUNK = 1 << 12
SMALL_P = 3.0
SMALL_C2 = 3.0

# A constant-gap theorem: its claimed gap (bpcu), the family of its bound
# pair in ``bounds`` and the outer variant that family's appendix form is
# called there, and the model it states, M and rho (None: any).
_Theorem = namedtuple("_Theorem", "gap family appendix M rho")
_THEOREMS = bounds._Table("theorem", {
    "Th3": _Theorem(1.0, "ccdp2", bounds.APPENDIX_LOOSENED, 2, 0.0),
    "Th4": _Theorem(2.25, "ccdp_m", bounds.APPENDIX_FORM, None, 0.0),
    "Th5": _Theorem(2.25, "ccdp_es", bounds.APPENDIX_FORM, 2, None),
    "Th6": _Theorem(2.25, "ccdp_es", bounds.APPENDIX_FORM, None, None),
})
THEOREMS = tuple(_THEOREMS)

# The CSV header and the JSON keys of a row, in GapRow field order.
CSV_COLUMNS = ("M", "P", "c", "rho", "variant",
               "inner_bpcu", "outer_bpcu", "gap_bpcu",
               "inner_branch", "outer_branch")


# The outer-variant family each spelling names.
_FAMILY = bounds._Table("outer variant", {
    "appendix": bounds.APPENDIX_FORM, bounds.APPENDIX_FORM: bounds.APPENDIX_FORM,
    bounds.APPENDIX_LOOSENED: bounds.APPENDIX_FORM, bounds.THEOREM: bounds.THEOREM})


def bound_pair(M, rho, variant, theorem=None):
    """(inner name, outer name, outer variant) for an (M, rho) slice: the
    names of two public bounds in ``bounds`` and the outer variant, from the
    theorem's row; ``variant`` is a normalized family.

    theorem=None is the sweep rule: the two-receiver theorem's pair at M = 2
    with independent states, the general correlated-states pair elsewhere.
    """
    if theorem is None:
        theorem = "Th3" if M == 2 and rho == 0.0 else "Th6"
    row = _THEOREMS[theorem]
    if variant == bounds.APPENDIX_FORM:
        variant = row.appendix
    return f"{row.family}_inner", f"{row.family}_outer", variant


def _check_c2(c2):
    # The ChannelParams check of the gain sqrt(c2) a squared gain stands for.
    ChannelParams(2, 1.0, sqrt(c2) if c2 > 0.0 else c2)
    return float(c2)


# Per-axis value checks: the ChannelParams check of the field fed, including
# its ceiling.  Explicit rho values are only made floats; SweepGrid rejects
# non-finite ones and rho_axis filters out the infeasible ones per M.
AXIS_CHECKS = {
    "m_values": lambda M: ChannelParams(M, 1.0, 0.0).M,
    "p_values": lambda P: float(ChannelParams(2, P, 0.0).P),
    "c2_values": _check_c2,
    "rho_values": float,
}


@dataclass(frozen=True)
class SweepGrid:
    """Axes of a sweep.  rho_values=None means 13 evenly spaced feasible
    correlations per M (endpoints included); an explicit list is filtered
    per M to the feasible range.  Each axis value passes AXIS_CHECKS; an empty
    axis, a repeated value or rho_points < 1 raises CcdpError."""

    m_values: tuple
    p_values: tuple
    c2_values: tuple
    rho_values: tuple | None = None
    rho_points: int = 13
    outer_variant: str = bounds.APPENDIX_FORM

    def __post_init__(self):
        object.__setattr__(self, "outer_variant", _FAMILY[self.outer_variant])
        if self.rho_values is not None and not all(map(isfinite, self.rho_values)):
            raise InfeasibleRho(f"rho_values must be finite, got {self.rho_values}")
        for name, check in AXIS_CHECKS.items():
            if getattr(self, name) is None:
                continue  # the default feasible rho axis
            values = tuple(check(v) for v in getattr(self, name))
            if not values or len(set(values)) < len(values):
                raise CcdpError(f"{name} must be non-empty, no repeats: {values}")
            object.__setattr__(self, name, values)
        if self.rho_points < 1:
            raise CcdpError(f"rho_points must be >= 1, got {self.rho_points!r}")
        object.__setattr__(self, "_rho_axes", {})

    def rho_axis(self, M):
        """Feasible correlation values for this M, in axis order, built once per M
        (a copy by ``_with`` builds its own)."""
        if M not in self._rho_axes:
            self._rho_axes[M] = (
                tuple(np.linspace(*rho_range(M), self.rho_points).tolist())
                if self.rho_values is None
                else tuple(r for r in self.rho_values if _rho_verdict(M, r)[1]))
        return self._rho_axes[M]

    def size(self):
        per_m = sum(len(self.rho_axis(M)) for M in self.m_values)
        return len(self.p_values) * len(self.c2_values) * per_m


def standard_grid(m_values=(2, 3, 4, 5, 6, 7, 8), rho_values=None,
                  outer_variant=bounds.APPENDIX_FORM):
    """The default certification grid: P log-spaced 50 points in [3.01, 1e4],
    c2 log-spaced 50 points in [3.01, 1e6]."""
    return SweepGrid(
        m_values=tuple(m_values),
        p_values=tuple(np.logspace(np.log10(3.01), 4.0, 50)),
        c2_values=tuple(np.logspace(np.log10(3.01), 6.0, 50)),
        rho_values=rho_values,
        outer_variant=outer_variant,
    )


@dataclass(frozen=True)
class GapRow:
    """One grid point: parameters, both bounds, their gap and branch labels."""

    M: int
    P: float
    c: float
    rho: float
    variant: str
    inner: float
    outer: float
    gap: float
    inner_branch: str
    outer_branch: str
    small_regime: bool = False


# The columns a GapReport computes, in GapRow field order, and their dtypes.
COLUMNS = {"inner": float, "outer": float, "gap": float, "inner_branch": np.int8,
           "outer_branch": np.int8, "small_regime": bool}


def _blocks(grid):
    """(M, its sorted rho axis, its rows as a slice) of each M block of a report,
    in row order; a block's rows run over sorted P x c2 x rho."""
    start, per_rho = 0, len(grid.p_values) * len(grid.c2_values)
    for M in sorted(grid.m_values):
        rhos = sorted(grid.rho_axis(M))
        yield M, rhos, slice(start, start := start + per_rho * len(rhos))


@dataclass
class GapReport:
    """Sweep output plus the grid-wide gap certificate.

    ``columns`` holds the computed COLUMNS in row order, the branch columns as
    codes into bounds.BRANCHES; ``row(i)`` takes M, P, c and rho from the grid's
    axes and the row's position (``_blocks``), the variant from ``bound_pair``.
    """

    grid: SweepGrid
    columns: dict
    claimed_gap: float | None = None
    theorem: str | None = None
    max_gap: float = -inf
    min_gap: float = inf
    argmax: GapRow | None = None
    certified: bool | None = None
    small_regime_rows: int = 0
    warnings: list = field(default_factory=list)

    def __len__(self):
        return len(self.columns["gap"])

    def row(self, i):
        """Row i as a GapRow of plain Python scalars."""
        i = range(len(self))[i]  # a negative i counts from the end; IndexError
        M, rhos, rows = next(block for block in _blocks(self.grid) if i < block[2].stop)
        P, c2 = sorted(self.grid.p_values), sorted(self.grid.c2_values)
        p, j, k = np.unravel_index(i - rows.start, (len(P), len(c2), len(rhos)))
        cells = {name: col.item(i) for name, col in self.columns.items()}
        for name in ("inner_branch", "outer_branch"):
            cells[name] = bounds.BRANCHES[cells[name]]
        variant = bound_pair(M, rhos[k], self.grid.outer_variant, self.theorem)[2]
        return GapRow(M, P[p], sqrt(c2[j]), rhos[k], variant, **cells)

    def finalize(self):
        """Recompute the certificate and the warnings from the columns and the grid."""
        gap, small = self.columns["gap"], self.columns["small_regime"]
        regular = np.flatnonzero(~small)
        self.small_regime_rows = len(gap) - len(regular)
        self.max_gap, self.min_gap, self.argmax = -inf, inf, None
        if len(regular):
            i = regular[np.argmax(gap[regular])]  # the first maximum
            self.max_gap, self.min_gap = gap.item(i), gap[regular].min().item()
            self.argmax = self.row(i)
        if self.claimed_gap is not None:
            limit = self.claimed_gap + GAP_TOL
            # the trivial bound once per power of the small-regime rows: the
            # first P.size powers of each block, whose rows run over P first
            P = np.array(sorted(self.grid.p_values))
            P = P[(P <= SMALL_P) | (min(self.grid.c2_values) <= SMALL_C2)]
            fine = bounds._awgn(None, P, None, bounds._log2_plane)[:, None] <= limit
            ok = (gap <= limit) | ~small
            covered = all(np.all(ok[rows].reshape(len(self.grid.p_values), -1)[:P.size] | fine)
                          for *_, rows in _blocks(self.grid))
            self.certified = covered and self.max_gap <= limit
        self.warnings = []  # rebuilt on each call, as every field above
        negatives = np.count_nonzero(gap < -GAP_TOL)
        if negatives:
            self.warnings.append(
                f"{negatives} grid points have the outer bound below the inner "
                f"bound (negative gap); the selected outer variant is not a "
                f"valid upper bound there")
        # A theorem over any M evaluates the general-M statement, whose middle
        # branch rises with the gain.
        if self.theorem and _THEOREMS[self.theorem].M is None \
                and self.grid.outer_variant == bounds.THEOREM:
            self.warnings.append(
                "theorem-statement outer: the middle branch increases with the "
                "state gain, so it disagrees with the non-increasing appendix "
                "form; certification is defined on the appendix form")
        return self


def _evaluate_columns(grid, theorem=None):
    """The COLUMNS of every feasible grid point, in ``_blocks`` row order, or
    InfeasibleRho if there is none.

    The rho of one M that ``bound_pair`` gives one pair are one P x c2 x rho
    slab of both bounds of the pair.
    """
    if not grid.size():
        raise InfeasibleRho(f"no rho value of {grid.rho_values} is feasible for "
                            f"M in {grid.m_values}: the grid has no point")
    P = np.array(sorted(grid.p_values))[:, None]
    c2 = np.array(sorted(grid.c2_values))
    c = np.sqrt(c2)
    columns = {name: np.empty(grid.size(), dtype) for name, dtype in COLUMNS.items()}
    for M, rhos, rows in _blocks(grid):
        block = {name: col[rows].reshape(P.size, c.size, len(rhos))
                 for name, col in columns.items()}
        pairs = [bound_pair(M, rho, grid.outer_variant, theorem) for rho in rhos]
        block["small_regime"][...] = ((P <= SMALL_P) | (c2 <= SMALL_C2))[..., None]
        for inner, outer, variant in dict.fromkeys(pairs):
            ks = [k for k, pair in enumerate(pairs) if pair == (inner, outer, variant)]
            slabs = bounds._plane(M, P, c, [rhos[k] for k in ks],
                                  (inner, bounds.THEOREM), (outer, variant))
            for side, (values, codes) in zip(("inner", "outer"), slabs):
                block[side][..., ks], block[side + "_branch"][..., ks] = values, codes
        np.subtract(block["outer"], block["inner"], out=block["gap"])
    return columns


def run_sweep(grid):
    """Sweep inner/outer gaps over the grid.

    Each point is evaluated with the pair ``bound_pair`` picks for its model;
    the grid's outer variant selects the as-stated or the appendix family.
    A grid without a feasible point raises InfeasibleRho.
    """
    return GapReport(grid, _evaluate_columns(grid)).finalize()


def _with(grid, **fields):
    # A copy of a checked grid with fields that need no second check (the axes
    # a theorem's model fixes, a normalized variant); it builds its own rho axes.
    new = copy(grid)
    new.__dict__.update(fields, _rho_axes={})
    return new


def theorem_grid(theorem, grid=None, keep=()):
    """The grid (standard by default) with the axes the theorem's model fixes;
    axes named in ``keep`` stay as given, for ``certify_theorem`` to check."""
    row = _THEOREMS[theorem]
    fixed = {axis: (value,) for axis, value in (("m_values", row.M), ("rho_values", row.rho))
             if value is not None and axis not in keep}
    return _with(grid or standard_grid(), **fixed)


def certify_theorem(theorem, grid, variant_kind="appendix"):
    """Certify one constant-gap claim over a (suitably restricted) grid.

    Raises WrongModel if the grid contains points outside the theorem's
    model, and InfeasibleRho if no point of the grid is feasible.  The
    certificate compares max(outer - inner) against the claimed constant;
    theorem-statement variants are reported with a warning where the stated
    expression is known to disagree with its derivation.
    """
    row = _THEOREMS[theorem]
    if row.M is not None and grid.m_values != (row.M,):
        raise WrongModel(f"{theorem} applies to M={row.M} only, grid has {grid.m_values}")
    if row.rho is not None and grid.rho_values != (row.rho,):
        raise WrongModel(f"{theorem} applies to rho={row.rho} only, grid has "
                         f"{grid.rho_values or 'the feasible rho axis'}")
    grid = _with(grid, outer_variant=_FAMILY[variant_kind])
    return GapReport(grid, _evaluate_columns(grid, theorem),
                     claimed_gap=row.gap, theorem=theorem).finalize()


def fig3_curve(P, c_values):
    """Raw vs gain-optimized two-receiver outer bound, for plotting.

    raw(c) is the pre-clamping expression; optimized(c) is its minimum over
    gains in (0, c], i.e. raw evaluated at min(c, sqrt(P+1)).  The optimized
    curve is flat past sqrt(P+1), where the raw curve keeps increasing.
    """
    c_opt = sqrt(ChannelParams(2, P, 0.0).P + 1.0)  # InvalidPower for a bad P
    c = np.array([ChannelParams(2, P, float(v)).c for v in c_values])  # InvalidGain
    (slab, _), = bounds._plane(2, P, np.append(c, c_opt), [0.0], ("ccdp2_outer", bounds.RAW))
    values = slab.ravel()  # one power, one rho
    raw, optimized = values[:-1], np.where(c < c_opt, values[:-1], values[-1])
    return list(zip(c.tolist(), raw.tolist(), optimized.tolist()))


# Families the monotonicity audit can scan: the public bound whose plane is
# scanned, and its variant.  "optimized" is the default set (the
# certification forms); the raw/theorem families document where the
# un-optimized or as-stated expressions fail to be non-increasing.
AUDIT_FAMILIES = {
    "inner-2": ("ccdp2_inner", bounds.THEOREM),
    "outer-2-appendix": ("ccdp2_outer", bounds.APPENDIX_LOOSENED),
    "inner-m": ("ccdp_m_inner", bounds.THEOREM),
    "outer-m-appendix": ("ccdp_m_outer", bounds.APPENDIX_FORM),
    "inner-es": ("ccdp_es_inner", bounds.THEOREM),
    "outer-es-appendix": ("ccdp_es_outer", bounds.APPENDIX_FORM),
    "outer-2-raw": ("ccdp2_outer", bounds.RAW),
    "outer-2-theorem": ("ccdp2_outer", bounds.THEOREM),
    "outer-m-theorem": ("ccdp_m_outer", bounds.THEOREM),
    "outer-es-theorem": ("ccdp_es_outer", bounds.THEOREM),
    "baseline-outer-2": ("baseline_outer_2", bounds.THEOREM),
}
OPTIMIZED_FAMILIES = ("inner-2", "outer-2-appendix", "inner-m",
                      "outer-m-appendix", "inner-es", "outer-es-appendix")


@dataclass(frozen=True)
class MonotonicityViolation:
    family: str
    M: int
    P: float
    rho: float
    c_low: float
    c_high: float
    increase: float


def monotonicity_audit(grid, families=OPTIMIZED_FAMILIES):
    """Scan each family for value increases along the c axis.

    Each family and M is one P x c2 x rho slab, in grid P and rho order, over
    the rho where the family's model holds.  Any adjacent-pair increase beyond
    MONOTONE_TOL is returned as a violation record, never raised, in (family,
    M, rho, P, c) order.  An audit that would scan nothing is refused: InfeasibleRho
    without a feasible point, else WrongModel (no family, or none's model holds).
    """
    calls = {}  # (M, the rho where its model holds): its families, one _plane call
    for M in grid.m_values:
        for name in dict.fromkeys(families):  # a repeated family: one scan, one report
            rhos = tuple(rho for rho in grid.rho_axis(M)
                         if bounds._applies(AUDIT_FAMILIES[name][0], M, rho))
            if rhos:
                calls.setdefault((M, rhos), []).append(name)
    if not calls:
        raise (WrongModel if grid.size() else InfeasibleRho)(
            f"no family of {families} holds at a feasible point of the grid")
    found = {name: [] for name in families}
    P = np.array(grid.p_values)[:, None]
    c = np.sqrt(sorted(grid.c2_values))
    for (M, rhos), names in calls.items():
        slabs = bounds._plane(M, P, c, list(rhos), *map(AUDIT_FAMILIES.get, names))
        for name, (values, _) in zip(names, slabs):
            increase = np.diff(values.transpose(2, 0, 1), axis=2)
            for j, i, k in zip(*np.nonzero(increase > MONOTONE_TOL)):
                found[name].append(MonotonicityViolation(
                    name, M, P.item(i), rhos[j], c.item(k), c.item(k + 1),
                    increase.item(j, i, k)))
    return [v for violations in found.values() for v in violations]


# ---------------------------------------------------------------------------
# Serialization (fixed schemas; floats use shortest round-trip formatting).
# A CSV piece is one join of cells that carry their own separators, a computed
# cell formatted once per distinct bit pattern in the piece: repr per row.
# ---------------------------------------------------------------------------

def _strings(column, fmt, after=""):
    """fmt + after of every entry, once per distinct 64-bit pattern: equal bits
    format alike, and 0.0 and -0.0 (or two NaNs) never share one."""
    bits = column.view(np.int64)
    distinct = np.sort(bits)
    distinct = distinct[np.append(True, distinct[1:] != distinct[:-1])]
    table = [fmt(v) + after for v in distinct.view(column.dtype).tolist()]
    return np.array(table, object)[np.searchsorted(distinct, bits)].tolist()


def _csv_pieces(report, meta=None):
    # The text of rows_to_csv in pieces of at most CSV_CHUNK rows of one M block,
    # so a writer holds one piece of text and its cells at a time, never the
    # whole CSV.  "M,P,c," and "rho,variant," come from the grid's axes.
    yield "".join(f"# {k}: {v}\n" for k, v in (meta or {}).items())
    yield ",".join(CSV_COLUMNS) + "\n"
    pairs = np.array([f"{a},{b}\n" for a in bounds.BRANCHES for b in bounds.BRANCHES], object)
    powers = [f"{P!r}," for P in sorted(report.grid.p_values)]
    gains = [f"{c!r}," for c in np.sqrt(sorted(report.grid.c2_values)).tolist()]
    for M, rhos, rows in _blocks(report.grid):
        heads = [f"{M},{power}{gain}" for power in powers for gain in gains]
        tails = [f"{rho!r},{bound_pair(M, rho, report.grid.outer_variant, report.theorem)[2]},"
                 for rho in rhos] * len(heads)
        repeated = [None] * len(tails)  # each head once per rho, as the block's rows
        for k in range(len(rhos)):
            repeated[k::len(rhos)] = heads
        for start in range(rows.start, rows.stop, CSV_CHUNK):
            chunk = slice(start, min(start + CSV_CHUNK, rows.stop))
            local = slice(chunk.start - rows.start, chunk.stop - rows.start)
            cells = [None] * (6 * (chunk.stop - chunk.start))
            cells[0::6], cells[1::6] = repeated[local], tails[local]
            for k, name in ((2, "inner"), (3, "outer"), (4, "gap")):
                cells[k::6] = _strings(report.columns[name][chunk], repr, ",")
            codes = report.columns["inner_branch"][chunk] * len(bounds.BRANCHES) \
                + report.columns["outer_branch"][chunk]
            cells[5::6] = pairs[codes].tolist()
            yield "".join(cells)


def rows_to_csv(report, meta=None):
    """Render a report's rows as CSV text: optional '# key: value' metadata
    lines, one header row, then one line per row in sweep order."""
    return "".join(_csv_pieces(report, meta))


def grid_description(grid):
    return {
        "m_values": list(grid.m_values),
        "p_range": [min(grid.p_values), max(grid.p_values)],
        "p_points": len(grid.p_values),
        "c2_range": [min(grid.c2_values), max(grid.c2_values)],
        "c2_points": len(grid.c2_values),
        "rho_values": None if grid.rho_values is None else list(grid.rho_values),
        "rho_points_per_m": {str(M): len(grid.rho_axis(M)) for M in grid.m_values},
        "outer_variant": grid.outer_variant,
        "size": grid.size(),
    }


def report_summary(report):
    """JSON-ready summary: maxGap, argmax, certified, grid description."""
    return {
        "theorem": report.theorem,
        "claimedGap": report.claimed_gap,
        "maxGap": None if report.max_gap == -inf else report.max_gap,
        "minGap": None if report.min_gap == inf else report.min_gap,
        "argmax": (None if report.argmax is None
                   else dict(zip(CSV_COLUMNS, astuple(report.argmax)))),
        "certified": report.certified,
        "rows": len(report),
        "smallRegimeRows": report.small_regime_rows,
        "grid": grid_description(report.grid),
    }


def report_to_json(report, indent=None):
    return json.dumps(report_summary(report), indent=indent, allow_nan=True)
