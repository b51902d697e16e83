"""Closed-form capacity inner and outer bounds, in bits per channel use.

Every function here is a pure function of the channel parameters.  All
logarithms are base 2.  Multi-branch expressions share one tie rule: the
lower branch owns its upper endpoint (c2 <= t1) and the upper branch owns its
lower endpoint (c2 >= t2); the middle branch is the open strip in between.

Outer bounds come in variants, selected by a string token:

* ``theorem-statement`` - the expression exactly as stated.
* ``appendix-loosened`` (two receivers) - the middle branch loosened from
  -1/4*log2(c2+1) to -1/4*log2(c2); this is the form whose gap to the inner
  bound is exactly 1 bpcu on the middle strip.
* ``appendix-form`` (general M) - 1/2*log2(1+P+c2) - (M-1)/(2M)*log2(c2) + 3/2
  with the gain clamped at its minimizer sqrt((M-1)(P+1)), plus the dedicated
  small-gain branch; its gap to the inner bound is exactly 2 bpcu on the
  middle strip and at most 9/4 everywhere.
* ``raw-unoptimized`` - the pre-clamping expression, kept because it is the
  one that stops being monotone in the gain (its optimized version is the
  flat curve past the minimizer).

Gap certification always uses the appendix forms; the theorem-statement
variants are retained to surface where the two disagree.
"""

from dataclasses import dataclass
from math import inf, log2, sqrt

import numpy as np

from .errors import DomainError, InvalidSplit, WrongModel
from .model import ChannelParams

# Variant tokens (fixed API strings, also accepted by the CLI).
THEOREM = "theorem-statement"
APPENDIX_LOOSENED = "appendix-loosened"
APPENDIX_FORM = "appendix-form"
RAW = "raw-unoptimized"

# Branch labels.
BR_NA = "n/a"
BR_MIDDLE = "middle"
BR_LOW_2 = "c2<=1"
BR_HIGH_2 = "c2>=P+1"
BR_LOW_M = "c2<=M-1"
BR_HIGH_M = "c2>=(M-1)(P+1)"
BR_TIME_SHARING = "time-sharing"


@dataclass(frozen=True, init=False)
class BoundResult:
    """A rate value plus the piecewise branch and variant that produced it."""

    value: float                      # bpcu
    branch: str
    variant: str
    params: ChannelParams | None = None

    def __init__(self, value, branch, variant, params=None):
        # Fills the fields in one dict update, as ChannelParams does; the
        # generated __init__ makes one object.__setattr__ call per field.
        self.__dict__.update(value=value, branch=branch, variant=variant, params=params)


@dataclass(frozen=True)
class PowerSplit:
    """Power split between the pre-coded layer (alpha_bar) and the common layer."""

    alpha_bar: float

    def __post_init__(self):
        if not 0.0 <= self.alpha_bar <= 1.0:
            raise InvalidSplit(f"alpha_bar must be in [0, 1], got {self.alpha_bar!r}")

    @property
    def alpha(self):
        return 1.0 - self.alpha_bar


# Branch labels by code; planes return codes into this tuple.
BRANCHES = (BR_LOW_2, BR_MIDDLE, BR_HIGH_2, BR_LOW_M, BR_HIGH_M,
            BR_TIME_SHARING, "raw", "c2<4", "c2>=4")


class _Table(dict):
    """A dict whose missing key raises ValueError naming the valid keys."""

    def __init__(self, kind, entries):
        super().__init__(entries)
        self.kind = kind

    def __missing__(self, key):
        raise ValueError(f"unknown {self.kind} {key!r}, expected one of {tuple(self)}")


@dataclass(frozen=True, slots=True)
class _Spec:
    """A public bound: the model (M, rho) it applies to (None: any) and, if a
    plane evaluates it, its breakpoints (t1, t2) at (M, P) and its pieces."""

    M: int | None
    rho: float | None
    breaks: object   # None where no plane evaluates it
    pieces: dict     # a _Table of each variant's pieces
    at_2: dict       # the same at M = 2


def _variants(bound, M, rho):
    # A public bound's pieces by variant (at_2 at M = 2), or WrongModel where its
    # model does not hold (M, rho): the one applicability rule of scalar and plane.
    spec = _SPECS[bound]
    if spec.M is not None and M != spec.M:
        raise WrongModel(f"bound requires M={spec.M}, got M={M}")
    if spec.rho is not None and rho != spec.rho:
        raise WrongModel(f"bound requires rho={spec.rho}, got rho={rho}")
    return spec.at_2 if M == 2 else spec.pieces


# ---------------------------------------------------------------------------
# Pieces: fn(M, P, c2, lg) is one branch's expression.  A public bound picks
# the piece of its point with a plain-Python rule and calls it with
# lg = math.log2; a plane calls it with lg = _log2_plane on the elements of its
# branch (``_plane``).  Both run the same operations, so give the same bits.
# ---------------------------------------------------------------------------

def _awgn(M, P, c2, lg):
    # The state-free rate 1/2*log2(1+P); also the trivial outer bound.
    return 0.5 * lg(1.0 + P)


def _time_sharing(M, P, c2, lg):
    # Full power pre-coded for one receiver at a time: 1/(2M)*log2(1+P).
    return 1.0 / (2.0 * M) * lg(1.0 + P)


def _small_gain(M, P, c2, lg):
    # States treated as noise: 1/2*log2(1+P/(1+c2)).
    return 0.5 * lg(1.0 + P / (1.0 + c2))


def _inner_middle(M, P, c2, lg):
    return 0.5 * lg(P + c2 + 1.0) - (M - 1) / (2.0 * M) * lg(c2) - 0.5


def _outer_small_gain(M, P, c2, lg):
    return _small_gain(M, P, c2, lg) + 2.25


def _outer_theorem_middle(M, P, c2, lg):
    return _time_sharing(M, P, c2, lg) + (M - 1) / (2.0 * M) * lg(c2) + 1.5


def _outer_theorem_high(M, P, c2, lg):
    return _time_sharing(M, P, c2, lg) + 2.0


def _outer_appendix_middle(M, P, c2, lg):
    return 0.5 * lg(1.0 + P + c2) - (M - 1) / (2.0 * M) * lg(c2) + 1.5


def _outer_appendix_high(M, P, c2, lg):
    # The middle piece with the gain clamped at its minimizer sqrt((M-1)(P+1)).
    return _outer_appendix_middle(M, P, (M - 1.0) * (P + 1.0), lg)


def _outer2_raw(M, P, c2, lg):
    # Pre-optimization outer expression: minimal at c2 = P+1.  Needs c2 > 0.
    return 0.5 * lg(P + c2 + 1.0) - 0.25 * lg(c2) + 0.5


def _outer2_stated_middle(M, P, c2, lg):
    # The Th3 statement keeps -1/4*log2(c2+1) where the raw form has log2(c2).
    return 0.5 * lg(P + c2 + 1.0) - 0.25 * lg(c2 + 1.0) + 0.5


def _outer2_high(M, P, c2, lg):
    return _time_sharing(2, P, c2, lg) + 1.0


def _es_outer2_high(M, P, c2, lg):
    return _time_sharing(2, P, c2, lg) + 0.5


def _cross(P, c2):
    # 1+P+c2+2c*sqrt(P) at rho = 0.  np.sqrt(c2) is the gain c exactly where
    # c*c is normal; where it is not, 2c*sqrt(P) is below half an ulp of 1+P.
    return 1.0 + P + c2 + 2.0 * np.sqrt(c2) * np.sqrt(P)


def _baseline_outer2_low(M, P, c2, lg):
    return 0.25 * lg((1.0 + P) / (c2 / 4.0 + 1.0)) \
        + 0.25 * lg(_cross(P, c2) / (c2 / 4.0 + 1.0))


def _baseline_outer2_high(M, P, c2, lg):
    return 0.25 * lg(1.0 + P) - 0.25 * lg(c2) + 0.25 * lg(_cross(P, c2))


def _coded(*pieces):
    # A bound's (label, fn, code) pieces, its branch codes computed once here.
    return tuple((label, fn, BRANCHES.index(label)) for label, fn in pieces)


# A bound's pieces on c2 <= t1, t1 < c2 < t2 and c2 >= t2.  Inner bounds
# switch at t1 = M-1 and t2 = P+1, outer bounds at t1 = M-1 and
# t2 = (M-1)(P+1); both are 1 and P+1 at M = 2.  The inner middle piece meets
# the time-sharing rate at c2 = P+1 and falls below it beyond, so time sharing
# takes over there: the rate stays achievable, monotone in c, and exactly 2
# bpcu under the appendix-form outer bound on the middle branch.
_INNER_2 = _coded((BR_LOW_2, _small_gain), (BR_MIDDLE, _inner_middle),
                  (BR_HIGH_2, _time_sharing))
_INNER_M = _coded((BR_LOW_M, _small_gain), (BR_MIDDLE, _inner_middle),
                  (BR_TIME_SHARING, _time_sharing))
_OUTER_2_STATED = _coded((BR_LOW_2, _awgn), (BR_MIDDLE, _outer2_stated_middle),
                         (BR_HIGH_2, _outer2_high))
_OUTER_2_LOOSENED = _coded((BR_LOW_2, _awgn), (BR_MIDDLE, _outer2_raw),
                           (BR_HIGH_2, _outer2_high))
_ES_OUTER_2 = _coded((BR_LOW_2, _awgn), (BR_MIDDLE, _outer2_raw),
                     (BR_HIGH_2, _es_outer2_high))
_OUTER_M_THEOREM = _coded((BR_LOW_M, _outer_small_gain), (BR_MIDDLE, _outer_theorem_middle),
                          (BR_HIGH_M, _outer_theorem_high))
_OUTER_M_APPENDIX = _coded((BR_LOW_M, _outer_small_gain), (BR_MIDDLE, _outer_appendix_middle),
                           (BR_HIGH_M, _outer_appendix_high))
_RAW_2 = _coded(*(("raw", _outer2_raw),) * 3)
# Two pieces, on c2 < 4 and c2 >= 4 (t1 = -inf leaves the first slot unused).
_BASELINE_OUTER_2 = _coded(*(("c2<4", _baseline_outer2_low),) * 2,
                           ("c2>=4", _baseline_outer2_high))


def _inner_breaks(M, P):
    return M - 1.0, P + 1.0


def _outer_breaks(M, P):
    return M - 1.0, (M - 1.0) * (P + 1.0)


# One spec per public bound.  Its scalar function checks the model here and
# takes the same pieces (an inner bound's one variant by its tuple's name),
# with the same breakpoints written inline; the plane tests compare the two.
# At M = 2 a bound takes the pieces of _AT_2 for the variants it lists there.
_OUTER_M = {THEOREM: _OUTER_M_THEOREM, APPENDIX_FORM: _OUTER_M_APPENDIX}
_AT_2 = {"ccdp_es_outer": {THEOREM: _ES_OUTER_2}}
_SPECS = {name: _Spec(M, rho, breaks, _Table("variant", pieces),
                      _Table("variant", {**pieces, **_AT_2.get(name, {})}))
          for name, M, rho, breaks, pieces in (
    ("ccdp2_inner", 2, 0.0, _inner_breaks, {THEOREM: _INNER_2}),
    ("ccdp2_outer", 2, 0.0, _outer_breaks, {
        THEOREM: _OUTER_2_STATED, APPENDIX_LOOSENED: _OUTER_2_LOOSENED, RAW: _RAW_2}),
    ("ccdp_m_inner", None, 0.0, _inner_breaks, {THEOREM: _INNER_M}),
    ("ccdp_m_outer", None, 0.0, _outer_breaks, _OUTER_M),
    ("ccdp_es_inner", None, None, _inner_breaks, {THEOREM: _INNER_M}),
    ("ccdp_es_outer", None, None, _outer_breaks, _OUTER_M),
    ("baseline_outer_2", 2, 0.0, lambda M, P: (-inf, 4.0), {THEOREM: _BASELINE_OUTER_2}),
    ("baseline_inner_2", 2, 0.0, None, {}),
    ("baseline_outer_m", None, 0.0, None, {}),
    ("ccdp_m_inner_raw", None, 0.0, None, {}),
)}


def awgn_capacity(P):
    """State-free benchmark 1/2*log2(1+P): what full pre-cancellation attains."""
    ChannelParams(2, P, 0.0)  # its check of P
    return BoundResult(_awgn(None, P, None, log2), BR_NA, BR_NA)


# ---------------------------------------------------------------------------
# Prior baseline bounds (two independent states, and the M-state sum bound).
# ---------------------------------------------------------------------------

def baseline_outer_2(params):
    """Earlier two-receiver outer bound, two branches meeting at c2 = 4.

    Kept as a baseline: it tends to 1/4*log2(1+P) for large gains, so it is
    weaker than the optimized bounds below except at small P.
    """
    pieces = _variants("baseline_outer_2", params.M, params.rho)[THEOREM]
    P, c2 = params.P, params.c2
    label, fn, _ = pieces[1 if c2 < 4.0 else 2]
    return BoundResult(fn(2, P, c2, log2), label, THEOREM, params)


def baseline_inner_2(params):
    """Earlier two-receiver inner bound; branch points c2 = 2 and c2 = 2(P+1)."""
    _variants("baseline_inner_2", params.M, params.rho)
    P, c2 = params.P, params.c2
    if c2 <= 2.0:
        return BoundResult(0.5 * log2(1.0 + P / (c2 / 2.0 + 1.0)),
                           "c2<=2", THEOREM, params)
    if c2 < 2.0 * (P + 1.0):
        value = 0.5 * log2((P + c2 / 2.0 + 1.0) / c2) + 0.25 * log2(c2 / 2.0)
        return BoundResult(value, BR_MIDDLE, THEOREM, params)
    return BoundResult(0.25 * log2(P + 1.0), "c2>=2(P+1)", THEOREM, params)


def baseline_outer_m(params):
    """Earlier M-receiver outer bound with its clamped correction term.

    Single expression; the positive-part term activates at c2 = M(P+1).
    Requires c > 0 (the expression contains log2(c2)).
    """
    _variants("baseline_outer_m", params.M, params.rho)
    M, P, c, c2 = params.M, params.P, params.c, params.c2
    if c2 <= 0.0:
        raise DomainError("baseline M-receiver outer bound needs c > 0")
    # The positive part is taken before log2, whose argument underflows to 0
    # at a tiny gain.
    clamped = c2 > M * (P + 1.0)
    value = 0.5 * log2(P + c2 + 2.0 * c * sqrt(P)) \
        - (M - 1) / (2.0 * M) * log2(c2) \
        - 1.0 / (2.0 * M) * log2(M) \
        - (1.0 / (2.0 * M) * log2(c2 / (M * (P + 1.0))) if clamped else 0.0)
    return BoundResult(value, "clamped" if clamped else "unclamped", THEOREM, params)


# ---------------------------------------------------------------------------
# Two receivers, independent states.
# ---------------------------------------------------------------------------

def ccdp2_outer(params, variant=THEOREM):
    """Two-receiver outer bound; branch points c2 = 1 and c2 = P+1.

    ``theorem-statement`` keeps -1/4*log2(c2+1) in the middle branch,
    ``appendix-loosened`` uses -1/4*log2(c2), and ``raw-unoptimized`` is the
    middle expression alone, without clamping to the trivial/high branches.
    """
    pieces = _variants("ccdp2_outer", params.M, params.rho)[variant]
    P, c2 = params.P, params.c2
    if c2 <= 0.0 and variant == RAW:
        raise DomainError("raw outer bound needs c > 0")
    label, fn, _ = pieces[0 if c2 <= 1.0 else 1 if c2 < P + 1.0 else 2]
    return BoundResult(fn(2, P, c2, log2), label, variant, params)


def ccdp2_inner(params):
    """Optimized two-receiver inner bound (superposition + time-shared pre-coding).

    Equals the maximum over the power split of ``ccdp_m_inner_raw`` at M=2.
    """
    _variants("ccdp2_inner", params.M, params.rho)
    P, c2 = params.P, params.c2
    label, fn, _ = _INNER_2[0 if c2 <= 1.0 else 1 if c2 < P + 1.0 else 2]
    return BoundResult(fn(2, P, c2, log2), label, THEOREM, params)


# ---------------------------------------------------------------------------
# M receivers, independent states.
# ---------------------------------------------------------------------------

def alpha_star(params):
    """Optimal fraction of power on the pre-coded layer.

    Clamp of (c2+1-M)/(P(M-1)) into [0, 1]: zero while the state is weaker
    than the cross-receiver interference floor, one past c2 = (M-1)(P+1).
    c2 is the effective gain c2*(1 - max(rho, 0)), which is c2 for rho <= 0.
    """
    ceff2 = params.c2 * params.rho_bar_plus
    ab = (ceff2 + 1.0 - params.M) / (params.P * (params.M - 1))
    return PowerSplit(min(1.0, max(0.0, ab)))


def ccdp_m_inner_raw(params, alpha_bar):
    """Un-optimized achievable rate for a given power split.

    1/2*log2(1 + aP/(c2+abP+1)) + 1/(2M)*log2(1+abP), where the pre-coded
    layer carries alpha_bar of the power and is live 1/M of the time.
    """
    _variants("ccdp_m_inner_raw", params.M, params.rho)
    PowerSplit(alpha_bar)  # its check of alpha_bar
    value = _inner_raw_value(params.M, params.P, params.c2, alpha_bar)
    return BoundResult(value, BR_NA, RAW, params)


def _san_rate(P, c2, alpha_bar):
    # The common layer's rate with the states as noise: 1/2*log2(1+aP/(c2+abP+1)).
    return 0.5 * log2(1.0 + (1.0 - alpha_bar) * P / (c2 + alpha_bar * P + 1.0))


def _inner_raw_value(M, P, c2, alpha_bar):
    # The common layer plus the pre-coded layer, live 1/M of the time.
    return _san_rate(P, c2, alpha_bar) + _time_sharing(M, alpha_bar * P, c2, log2)


def ccdp_m_inner(params):
    """Optimized M-receiver inner bound; see ``_INNER_M`` for its branches."""
    _variants("ccdp_m_inner", params.M, params.rho)
    M, P, c2 = params.M, params.P, params.c2
    label, fn, _ = _INNER_M[0 if c2 <= M - 1.0 else 1 if c2 < P + 1.0 else 2]
    return BoundResult(fn(M, P, c2, log2), label, THEOREM, params)


def ccdp_m_outer(params, variant=THEOREM):
    """M-receiver outer bound; branch points c2 = M-1 and c2 = (M-1)(P+1).

    The ``theorem-statement`` middle branch grows with c2 (it is reported but
    not certified against); ``appendix-form`` is non-increasing in the gain
    and is the variant the gap certificates use.  Both share the small-gain
    branch 1/2*log2(1+P/(1+c2)) + 9/4.
    """
    pieces = _variants("ccdp_m_outer", params.M, params.rho)[variant]
    M, P, c2 = params.M, params.P, params.c2
    t1 = M - 1.0
    label, fn, _ = pieces[0 if c2 <= t1 else 1 if c2 < t1 * (P + 1.0) else 2]
    return BoundResult(fn(M, P, c2, log2), label, variant, params)


# ---------------------------------------------------------------------------
# M receivers, equivalent (correlated) states.
# ---------------------------------------------------------------------------

def es_effective_gain(params):
    """Residual state amplitude once the common component is pre-coded away.

    c*sqrt(1-rho) for rho >= 0; negative correlation gives no reduction, so
    the gain is returned unchanged.
    """
    return params.c * sqrt(params.rho_bar_plus)


def ccdp_es_inner(params):
    """Inner bound with correlated states: the independent-state scheme at the
    effective gain (the common layer pre-codes the shared state component).
    """
    M, P = params.M, params.P
    ceff2 = params.c2 * params.rho_bar_plus
    label, fn, _ = _INNER_M[0 if ceff2 <= M - 1.0 else 1 if ceff2 < P + 1.0 else 2]
    return BoundResult(fn(M, P, ceff2, log2), label, THEOREM, params)


def ccdp_es_outer(params, variant=THEOREM):
    """Outer bound with correlated states; branch conditions use c2*(1-max(rho,0)).

    ``theorem-statement`` evaluates the stated expressions (the dedicated
    two-receiver form for M = 2, whose high branch constant is 1/2, and the
    general-M form otherwise).  ``appendix-form`` is the independent-state
    appendix outer at the effective gain, used for certification.
    """
    M, P = params.M, params.P
    spec = _SPECS["ccdp_es_outer"]
    pieces = (spec.at_2 if M == 2 else spec.pieces)[variant]
    ceff2 = params.c2 * params.rho_bar_plus
    t1 = M - 1.0
    label, fn, _ = pieces[0 if ceff2 <= t1 else 1 if ceff2 < t1 * (P + 1.0) else 2]
    return BoundResult(fn(M, P, ceff2, log2), label, variant, params)


# ---------------------------------------------------------------------------
# Planes: the pieces above over a column of powers and a row of gains.
# ---------------------------------------------------------------------------

def _log2_plane(x):
    # math.log2 per element: np.log2 differs from it in the last ulp on
    # 1 in 300 to 1 in 20,000 inputs, depending on their range.
    return np.fromiter(map(log2, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _plane(bound, M, P, c, rho, variant=THEOREM):
    """The public bound named ``bound`` at one (M, rho): (values, branch
    codes) over a column of powers P times a row of gains c, from its spec,
    at the effective gain (c*c)(1-max(rho, 0)), which is the scalar c2 itself
    where the model fixes rho = 0.  Each piece sees only the elements of its
    own branch, so no expression is evaluated off its branch."""
    pieces = _variants(bound, M, rho)[variant]
    c2 = (c * c) * (1.0 - max(rho, 0.0))
    if variant == RAW and np.any(c2 <= 0.0):
        raise DomainError("raw outer bound needs c > 0")
    t1, t2, P, c2 = np.broadcast_arrays(*_SPECS[bound].breaks(M, P), P, c2)
    low = c2 <= t1
    high = ~low & (c2 >= t2)
    values, codes = np.empty(c2.shape), np.empty(c2.shape, np.int8)
    for mask, (_, fn, code) in zip((low, ~(low | high), high), pieces):
        if mask.any():
            values[mask] = fn(M, P[mask], c2[mask], _log2_plane)
            codes[mask] = code
    return values, codes


# ---------------------------------------------------------------------------
# Side-information machinery behind the M-receiver outer bound.
# ---------------------------------------------------------------------------

def delta_conditional_variances(M, rho):
    """Conditional variances of successive state differences.

    With D_i = S_i - S_{i-1}, the covariance of (D_2, ..., D_M) is (1-rho)
    times the tridiagonal matrix with 2 on the diagonal and -1 beside it.
    Entry k (k = 1..M-1) is Var(D_{k+1} | D_2..D_k) = (1-rho)*(k+1)/k.
    """
    M = ChannelParams(M, 1.0, 0.0, rho).M  # its checks of M and rho
    k = np.arange(1, M)
    return (1.0 - rho) * (k + 1.0) / k
