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

from dataclasses import dataclass, make_dataclass
from math import inf, log2, nan, sqrt

import numpy as np

from .errors import CcdpError, DomainError, InvalidSplit, WrongModel
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
        d = self.__dict__  # direct stores, as in ChannelParams
        d["value"] = value
        d["branch"] = branch
        d["variant"] = variant
        d["params"] = params


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
    """A dict whose missing key raises CcdpError naming the valid keys."""

    def __init__(self, kind, entries):
        super().__init__(entries)
        self.kind = kind

    def __missing__(self, key):
        raise CcdpError(f"unknown {self.kind} {key!r}, expected one of {tuple(self)}")


def _applies(bound, M, rho):
    # Whether a public bound's model holds at (M, rho): its spec's M and rho, None
    # for any.  The one applicability rule of scalar, slab and audit.
    spec = _SPECS[bound]
    return spec.M in (None, M) and spec.rho in (None, rho)


def _variants(bound, M, rho):
    # A public bound's pieces by variant (at_2 at M = 2), or WrongModel where its
    # model does not hold (M, rho).
    spec = _SPECS[bound]
    if not _applies(bound, M, rho):
        raise WrongModel(f"bound requires M={spec.M}, got M={M}" if spec.M not in (None, M)
                         else f"bound requires rho={spec.rho}, got rho={rho}")
    return spec.at_2 if M == 2 else spec.pieces


# ---------------------------------------------------------------------------
# Pieces: fn(M, P, c2, lg) is one branch's expression.  A public bound picks
# the piece of its point with a plain-Python rule and calls it with
# lg = math.log2; a plane calls it with lg = _log2_plane on its branch's powers
# and gains (``_plane``).  Both run the same operations, so give the same bits.
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


# A bound's pieces on c2 <= t1, t1 < c2 < t2 and c2 >= t2.  Inner bounds
# switch at t1 = M-1 and t2 = P+1, outer bounds at t1 = M-1 and
# t2 = (M-1)(P+1); both are 1 and P+1 at M = 2.  The inner middle piece meets
# the time-sharing rate at c2 = P+1 and falls below it beyond, so time sharing
# takes over there: the rate stays achievable, monotone in c, and exactly 2
# bpcu under the appendix-form outer bound on the middle branch.
_INNER_2 = ((BR_LOW_2, _small_gain), (BR_MIDDLE, _inner_middle),
            (BR_HIGH_2, _time_sharing))
_INNER_M = ((BR_LOW_M, _small_gain), (BR_MIDDLE, _inner_middle),
            (BR_TIME_SHARING, _time_sharing))
_OUTER_2_STATED = ((BR_LOW_2, _awgn), (BR_MIDDLE, _outer2_stated_middle),
                   (BR_HIGH_2, _outer2_high))
_OUTER_2_LOOSENED = ((BR_LOW_2, _awgn), (BR_MIDDLE, _outer2_raw),
                     (BR_HIGH_2, _outer2_high))
_ES_OUTER_2 = ((BR_LOW_2, _awgn), (BR_MIDDLE, _outer2_raw),
               (BR_HIGH_2, _es_outer2_high))
_OUTER_M_THEOREM = ((BR_LOW_M, _outer_small_gain), (BR_MIDDLE, _outer_theorem_middle),
                    (BR_HIGH_M, _outer_theorem_high))
_OUTER_M_APPENDIX = ((BR_LOW_M, _outer_small_gain), (BR_MIDDLE, _outer_appendix_middle),
                     (BR_HIGH_M, _outer_appendix_high))
_RAW_2 = (("raw", _outer2_raw),) * 3
# Two pieces, on c2 < 4 and c2 >= 4 (t1 = -inf leaves the first slot unused).
_BASELINE_OUTER_2 = (("c2<4", _baseline_outer2_low), ("c2<4", _baseline_outer2_low),
                     ("c2>=4", _baseline_outer2_high))
# The pieces that never read c2, which a plane runs once per power.
_FLAT = {_awgn, _time_sharing, _outer_theorem_high, _outer_appendix_high, _outer2_high,
         _es_outer2_high}
# The outer small-gain piece is the inner one plus 9/4, so a pair shares its log2s.
_SHIFTED = {_outer_small_gain: (_small_gain, 2.25)}


def _inner_breaks(M, P):
    return M - 1.0, P + 1.0


def _outer_breaks(M, P):
    return M - 1.0, (M - 1.0) * (P + 1.0)


# One spec per public bound: the model (M, rho) it applies to (None: any), its
# breakpoints (t1, t2) at (M, P) if a plane evaluates it, and a _Table of its
# pieces by variant, at M = 2 too (at_2: those of _AT_2 for the variants listed
# there).  Its scalar function checks the model here and takes the same pieces
# (an inner bound's one variant by its tuple's name), with the same breakpoints
# written inline; the plane tests compare the two.
_Spec = make_dataclass("_Spec", ("M", "rho", "breaks", "pieces", "at_2"),
                       frozen=True, slots=True)
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
_ES_OUTER = _SPECS["ccdp_es_outer"]  # read by its scalar function on every call


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
    label, fn = pieces[1 if c2 < 4.0 else 2]
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
    label, fn = pieces[0 if c2 <= 1.0 else 1 if c2 < P + 1.0 else 2]
    return BoundResult(fn(2, P, c2, log2), label, variant, params)


def ccdp2_inner(params):
    """Optimized two-receiver inner bound (superposition + time-shared pre-coding).

    Equals the maximum over the power split of ``ccdp_m_inner_raw`` at M=2.
    """
    _variants("ccdp2_inner", params.M, params.rho)
    P, c2 = params.P, params.c2
    label, fn = _INNER_2[0 if c2 <= 1.0 else 1 if c2 < P + 1.0 else 2]
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
    return ccdp_es_inner(params)  # at rho = 0 its effective gain is c2 itself


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
    label, fn = pieces[0 if c2 <= t1 else 1 if c2 < t1 * (P + 1.0) else 2]
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
    label, fn = _INNER_M[0 if ceff2 <= M - 1.0 else 1 if ceff2 < P + 1.0 else 2]
    return BoundResult(fn(M, P, ceff2, log2), label, THEOREM, params)


def ccdp_es_outer(params, variant=THEOREM):
    """Outer bound with correlated states; branch conditions use c2*(1-max(rho,0)).

    ``theorem-statement`` evaluates the stated expressions (the dedicated
    two-receiver form for M = 2, whose high branch constant is 1/2, and the
    general-M form otherwise).  ``appendix-form`` is the independent-state
    appendix outer at the effective gain, used for certification.
    """
    M, P = params.M, params.P
    pieces = (_ES_OUTER.at_2 if M == 2 else _ES_OUTER.pieces)[variant]
    ceff2 = params.c2 * params.rho_bar_plus
    t1 = M - 1.0
    label, fn = pieces[0 if ceff2 <= t1 else 1 if ceff2 < t1 * (P + 1.0) else 2]
    return BoundResult(fn(M, P, ceff2, log2), label, variant, params)


# ---------------------------------------------------------------------------
# Planes: the pieces above over a column of powers and a row of gains.
# ---------------------------------------------------------------------------

def _log2_plane(x):
    # math.log2 per element, over the buffer of the contiguous x.ravel(): np.log2
    # differs from it in the last ulp on 1 in 300 to 1 in 20,000 inputs.
    return np.fromiter(map(log2, memoryview(x.ravel())), float, x.size).reshape(x.shape)


def _plane(M, P, c, rhos, *bounds):
    """Each (public bound name, variant) of ``bounds`` at M and each rho of the
    non-empty list ``rhos``: (values, branch codes) of shape (powers P, gains c,
    rhos), from its spec, at the effective gains (c*c)(1-max(rho, 0)), the scalar
    c2 where the model fixes rho = 0.  Each distinct max(rho, 0) is evaluated once,
    the log2 of each gain once, and a piece of _FLAT once on the powers; any other
    piece sees only its branch's elements, once for all bounds whose branch
    agrees (a piece of _SHIFTED as the one it adds to).  The model check runs for
    every rho; the pieces depend on M alone."""
    scales, index = np.unique(1.0 - np.maximum(rhos, 0.0), return_inverse=True)
    P, c2 = np.asarray(P, float).reshape(-1, 1, 1), (c * c)[:, None] * scales
    # log2 of each gain once (NaN for a gain <= 0, whose log2 no piece reads)
    plane_P, c2, lg_c2 = np.broadcast_arrays(P, c2, _log2_plane(np.where(c2 > 0.0, c2, nan)))
    done, slabs = {}, []  # a piece's values on one branch
    for bound, variant in bounds:
        for rho in rhos:  # the model check at every rho; the pieces depend on M alone
            pieces = _variants(bound, M, rho)[variant]
        if variant == RAW and np.any(c2 <= 0.0):
            raise DomainError("raw outer bound needs c > 0")
        t1, t2 = _SPECS[bound].breaks(M, P)
        low = c2 <= t1
        high = ~low & (c2 >= t2)
        values, codes = np.empty(c2.shape), np.empty(c2.shape, np.int8)
        for slot, (mask, (label, fn)) in enumerate(zip((low, ~(low | high), high), pieces)):
            if fn in _FLAT and mask.any():
                np.copyto(values, fn(M, P, None, _log2_plane), where=mask)
            elif mask.any():
                # the low branch is the same wherever t1 is; the others are the bound's
                base, shift = _SHIFTED.get(fn, (fn, None))
                key = (base, t1) if slot == 0 else (base, slot, bound)
                if key not in done:
                    gains, logs = c2[mask], lg_c2[mask]
                    done[key] = base(M, plane_P[mask], gains,
                                     lambda x: logs if x is gains else _log2_plane(x))
                values[mask] = done[key] if shift is None else done[key] + shift
            codes[mask] = BRANCHES.index(label)
        slabs.append((values[..., index], codes[..., index]))
    return slabs


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
