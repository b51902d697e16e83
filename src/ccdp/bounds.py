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

from .errors import (
    DomainError,
    InfeasibleRho,
    InvalidM,
    InvalidPower,
    InvalidSplit,
    WrongModel,
)
from .model import ChannelParams, rho_range

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


@dataclass(frozen=True)
class BoundResult:
    """A rate value plus the piecewise branch and variant that produced it."""

    value: float                      # bpcu
    branch: str
    variant: str
    params: ChannelParams | None = None


@dataclass(frozen=True)
class PowerSplit:
    """Power split between the pre-coded layer (alpha_bar) and the common layer."""

    alpha_bar: float

    @property
    def alpha(self):
        return 1.0 - self.alpha_bar


def _require_model(M, rho, model_M=None, model_rho=None):
    # The one applicability rule of a bound, for its scalar and plane forms.
    if model_M is not None and M != model_M:
        raise WrongModel(f"bound requires M={model_M}, got M={M}")
    if model_rho is not None and rho != model_rho:
        raise WrongModel(f"bound requires rho={model_rho}, got rho={rho}")


def _log2_pos(x):
    if x <= 0.0:
        raise DomainError(f"log2 of non-positive value {x!r}")
    return log2(x)


def awgn_capacity(P):
    """State-free benchmark 1/2*log2(1+P): what full pre-cancellation attains."""
    if not P > 0:
        raise InvalidPower(f"P must be > 0, got {P!r}")
    return BoundResult(0.5 * log2(1.0 + P), BR_NA, BR_NA)


# ---------------------------------------------------------------------------
# Prior baseline bounds (two independent states, and the M-state sum bound).
# ---------------------------------------------------------------------------

def baseline_outer_2(params):
    """Earlier two-receiver outer bound, two branches meeting at c2 = 4.

    Kept as a baseline: it tends to 1/4*log2(1+P) for large gains, so it is
    weaker than the optimized bounds below except at small P.
    """
    _require_model(params.M, params.rho, 2, 0.0)
    P, c, c2 = params.P, params.c, params.c2
    s = 1.0 + P + c2 + 2.0 * c * sqrt(P)
    if c2 < 4.0:
        value = 0.25 * log2((1.0 + P) / (c2 / 4.0 + 1.0)) \
            + 0.25 * log2(s / (c2 / 4.0 + 1.0))
        return BoundResult(value, "c2<4", THEOREM, params)
    value = 0.25 * log2(1.0 + P) - 0.25 * _log2_pos(c2) + 0.25 * log2(s)
    return BoundResult(value, "c2>=4", THEOREM, params)


def baseline_inner_2(params):
    """Earlier two-receiver inner bound; branch points c2 = 2 and c2 = 2(P+1)."""
    _require_model(params.M, params.rho, 2, 0.0)
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
    _require_model(params.M, params.rho, model_rho=0.0)
    M, P, c, c2 = params.M, params.P, params.c, params.c2
    if c2 <= 0.0:
        raise DomainError("baseline M-receiver outer bound needs c > 0")
    value = 0.5 * log2(P + c2 + 2.0 * c * sqrt(P)) \
        - (M - 1) / (2.0 * M) * log2(c2) \
        - 1.0 / (2.0 * M) * log2(M) \
        - max(0.0, 1.0 / (2.0 * M) * log2(c2 / (M * (P + 1.0))))
    branch = "clamped" if c2 > M * (P + 1.0) else "unclamped"
    return BoundResult(value, branch, THEOREM, params)


# ---------------------------------------------------------------------------
# Two receivers, independent states.
# ---------------------------------------------------------------------------

def _outer2_raw(P, c2):
    # Pre-optimization outer expression; decreasing up to c2 = P+1, then
    # increasing like 1/4*log2(c2).
    if c2 <= 0.0:
        raise DomainError("raw outer bound needs c > 0")
    return 0.5 * log2(P + c2 + 1.0) - 0.25 * log2(c2) + 0.5


def _outer2_value(P, c2, stated_middle, high):
    # stated_middle keeps -1/4*log2(c2+1) (the Th3 statement) instead of the
    # loosened -1/4*log2(c2); high is the constant of the c2 >= P+1 branch.
    if c2 <= 1.0:
        return 0.5 * log2(P + 1.0), BR_LOW_2
    if c2 < P + 1.0:
        if stated_middle:
            return 0.5 * log2(P + c2 + 1.0) - 0.25 * log2(c2 + 1.0) + 0.5, BR_MIDDLE
        return _outer2_raw(P, c2), BR_MIDDLE
    return 0.25 * log2(P + 1.0) + high, BR_HIGH_2


def ccdp2_outer(params, variant=THEOREM):
    """Two-receiver outer bound; branch points c2 = 1 and c2 = P+1.

    ``theorem-statement`` keeps -1/4*log2(c2+1) in the middle branch,
    ``appendix-loosened`` uses -1/4*log2(c2), and ``raw-unoptimized`` is the
    middle expression alone, without clamping to the trivial/high branches.
    """
    _require_model(params.M, params.rho, 2, 0.0)
    if variant == RAW:
        return BoundResult(_outer2_raw(params.P, params.c2), "raw", RAW, params)
    if variant not in (THEOREM, APPENDIX_LOOSENED):
        raise ValueError(f"unknown variant {variant!r}")
    value, branch = _outer2_value(params.P, params.c2, variant == THEOREM, 1.0)
    return BoundResult(value, branch, variant, params)


def ccdp2_inner(params):
    """Optimized two-receiver inner bound (superposition + time-shared pre-coding).

    Equals the maximum over the power split of ``ccdp_m_inner_raw`` at M=2.
    """
    _require_model(params.M, params.rho, 2, 0.0)
    value, branch = _inner_m_value(2, params.P, params.c2)
    branch = {BR_LOW_M: BR_LOW_2, BR_TIME_SHARING: BR_HIGH_2}.get(branch, branch)
    return BoundResult(value, branch, THEOREM, params)


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
    _require_model(params.M, params.rho, model_rho=0.0)
    if not 0.0 <= alpha_bar <= 1.0:
        raise InvalidSplit(f"alpha_bar must be in [0, 1], got {alpha_bar!r}")
    value = _inner_raw_value(params.M, params.P, params.c2, alpha_bar)
    return BoundResult(value, BR_NA, RAW, params)


def _inner_raw_value(M, P, c2, alpha_bar):
    ab_p = alpha_bar * P
    return 0.5 * log2(1.0 + (1.0 - alpha_bar) * P / (c2 + ab_p + 1.0)) \
        + 1.0 / (2.0 * M) * log2(1.0 + ab_p)


def _inner_m_value(M, P, c2):
    # The middle expression meets the always-available time-sharing rate
    # 1/(2M)*log2(1+P) exactly at c2 = P+1 and falls below it beyond, so the
    # time-sharing branch takes over there (not at (M-1)(P+1)).  This keeps
    # the reported rate achievable, monotone in c, and exactly 2 bpcu under
    # the appendix-form outer bound while the middle branch is active.
    if c2 <= M - 1.0:
        return 0.5 * log2(1.0 + P / (1.0 + c2)), BR_LOW_M
    if c2 < P + 1.0:
        value = 0.5 * log2(P + c2 + 1.0) - (M - 1) / (2.0 * M) * log2(c2) - 0.5
        return value, BR_MIDDLE
    return 1.0 / (2.0 * M) * log2(1.0 + P), BR_TIME_SHARING


def ccdp_m_inner(params):
    """Optimized M-receiver inner bound; see ``_inner_m_value`` for branches."""
    _require_model(params.M, params.rho, model_rho=0.0)
    value, branch = _inner_m_value(params.M, params.P, params.c2)
    return BoundResult(value, branch, THEOREM, params)


def _outer_m_value(M, P, c2, variant):
    t1 = M - 1.0
    t2 = (M - 1.0) * (P + 1.0)
    if c2 <= t1:
        # Shared small-gain branch: 1/2*log2(1+P/(1+c2)) + 9/4.
        return 0.5 * log2(1.0 + P / (1.0 + c2)) + 2.25, BR_LOW_M
    if variant == THEOREM:
        if c2 < t2:
            value = 1.0 / (2.0 * M) * log2(1.0 + P) \
                + (M - 1) / (2.0 * M) * log2(c2) + 1.5
            return value, BR_MIDDLE
        return 1.0 / (2.0 * M) * log2(1.0 + P) + 2.0, BR_HIGH_M
    # appendix form: gain clamped at its minimizer sqrt((M-1)(P+1)).
    ceff2 = min(c2, t2)
    value = 0.5 * log2(1.0 + P + ceff2) - (M - 1) / (2.0 * M) * log2(ceff2) + 1.5
    return value, (BR_MIDDLE if c2 < t2 else BR_HIGH_M)


def ccdp_m_outer(params, variant=THEOREM):
    """M-receiver outer bound; branch points c2 = M-1 and c2 = (M-1)(P+1).

    The ``theorem-statement`` middle branch grows with c2 (it is reported but
    not certified against); ``appendix-form`` is non-increasing in the gain
    and is the variant the gap certificates use.
    """
    _require_model(params.M, params.rho, model_rho=0.0)
    if variant not in (THEOREM, APPENDIX_FORM):
        raise ValueError(f"unknown variant {variant!r}")
    value, branch = _outer_m_value(params.M, params.P, params.c2, variant)
    return BoundResult(value, branch, variant, params)


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
    ceff2 = params.c2 * params.rho_bar_plus
    value, branch = _inner_m_value(params.M, params.P, ceff2)
    return BoundResult(value, branch, THEOREM, params)


def ccdp_es_outer(params, variant=THEOREM):
    """Outer bound with correlated states; branch conditions use c2*(1-max(rho,0)).

    ``theorem-statement`` evaluates the stated expressions (the dedicated
    two-receiver form for M = 2, whose high branch constant is 1/2, and the
    general-M form otherwise).  ``appendix-form`` is the independent-state
    appendix outer at the effective gain, used for certification.
    """
    M, P = params.M, params.P
    ceff2 = params.c2 * params.rho_bar_plus
    if variant == APPENDIX_FORM:
        value, branch = _outer_m_value(M, P, ceff2, APPENDIX_FORM)
    elif variant != THEOREM:
        raise ValueError(f"unknown variant {variant!r}")
    elif M == 2:
        value, branch = _outer2_value(P, ceff2, False, 0.5)
    else:
        value, branch = _outer_m_value(M, P, ceff2, THEOREM)
    return BoundResult(value, branch, variant, params)


# ---------------------------------------------------------------------------
# Plane twins: the kernels above over a column of powers and a row of gains.
# They repeat the scalar expressions operation for operation, so each entry
# equals the scalar value exactly; the scalar functions are their reference.
# ---------------------------------------------------------------------------

# Branch labels by code; the twins return codes into this tuple.
BRANCHES = (BR_LOW_2, BR_MIDDLE, BR_HIGH_2, BR_LOW_M, BR_HIGH_M,
            BR_TIME_SHARING, "raw", "c2<4", "c2>=4")

# _require_model arguments of the public bounds that apply to one model only.
_MODELS = {"ccdp2_inner": (2, 0.0), "ccdp2_outer": (2, 0.0),
           "baseline_outer_2": (2, 0.0), "ccdp_m_inner": (None, 0.0),
           "ccdp_m_outer": (None, 0.0)}


def _log2_plane(x):
    # math.log2 per element: np.log2 differs from it in the last ulp on
    # 1 in 300 to 1 in 20,000 inputs, depending on their range.
    return np.fromiter(map(log2, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _pieces(t1, t2, pieces, c2, P, *more):
    """Values and branch codes of three (label, fn) pieces on c2 <= t1,
    t1 < c2 < t2 and c2 >= t2.  fn(c2, P, *more) sees only the elements of
    its own piece, so no expression is evaluated off its branch."""
    t1, t2, c2, P, *more = np.broadcast_arrays(t1, t2, c2, P, *more)
    low = c2 <= t1
    high = ~low & (c2 >= t2)
    values, codes = np.empty(c2.shape), np.empty(c2.shape, np.int8)
    for mask, (label, fn) in zip((low, ~(low | high), high), pieces):
        if mask.any():
            values[mask] = fn(c2[mask], P[mask], *(a[mask] for a in more))
            codes[mask] = BRANCHES.index(label)
    return values, codes


def _outer2_raw_plane(c2, P):
    return 0.5 * _log2_plane(P + c2 + 1.0) - 0.25 * _log2_plane(c2) + 0.5


def _outer2_plane(P, c2, stated_middle, high):
    def stated(c2, P):
        return 0.5 * _log2_plane(P + c2 + 1.0) - 0.25 * _log2_plane(c2 + 1.0) + 0.5
    return _pieces(1.0, P + 1.0, (
        (BR_LOW_2, lambda c2, P: 0.5 * _log2_plane(P + 1.0)),
        (BR_MIDDLE, stated if stated_middle else _outer2_raw_plane),
        (BR_HIGH_2, lambda c2, P: 0.25 * _log2_plane(P + 1.0) + high)), c2, P)


def _inner_m_plane(M, P, c2, labels):
    k = (M - 1) / (2.0 * M)
    return _pieces(M - 1.0, P + 1.0, zip(labels, (
        lambda c2, P: 0.5 * _log2_plane(1.0 + P / (1.0 + c2)),
        lambda c2, P: 0.5 * _log2_plane(P + c2 + 1.0) - k * _log2_plane(c2) - 0.5,
        lambda c2, P: 1.0 / (2.0 * M) * _log2_plane(1.0 + P))), c2, P)


def _outer_m_plane(M, P, c2, variant):
    k = (M - 1) / (2.0 * M)
    if variant == THEOREM:
        def middle(c2, P):
            return 1.0 / (2.0 * M) * _log2_plane(1.0 + P) + k * _log2_plane(c2) + 1.5

        def high(c2, P):
            return 1.0 / (2.0 * M) * _log2_plane(1.0 + P) + 2.0
    else:
        def middle(c2, P):  # appendix form: the gain clamped at its minimizer
            c2 = np.minimum(c2, (M - 1.0) * (P + 1.0))
            return 0.5 * _log2_plane(1.0 + P + c2) - k * _log2_plane(c2) + 1.5
        high = middle
    return _pieces(M - 1.0, (M - 1.0) * (P + 1.0), (
        (BR_LOW_M, lambda c2, P: 0.5 * _log2_plane(1.0 + P / (1.0 + c2)) + 2.25),
        (BR_MIDDLE, middle), (BR_HIGH_M, high)), c2, P)


def _baseline_outer_2_plane(P, c):
    c2 = c * c
    s = 1.0 + P + c2 + 2.0 * c * np.sqrt(P)

    def low(c2, P, s):
        return 0.25 * _log2_plane((1.0 + P) / (c2 / 4.0 + 1.0)) \
            + 0.25 * _log2_plane(s / (c2 / 4.0 + 1.0))

    def high(c2, P, s):
        return 0.25 * _log2_plane(1.0 + P) - 0.25 * _log2_plane(c2) \
            + 0.25 * _log2_plane(s)
    # c2 < 4 is c2 <= the float below 4, so the middle piece is empty.
    return _pieces(np.nextafter(4.0, 0.0), 4.0,
                   (("c2<4", low), (None, None), ("c2>=4", high)), c2, P, s)


def _plane(bound, M, P, c, rho, variant=None):
    """Twin of the public bound named ``bound`` at one (M, rho): (values,
    branch codes) over a column of powers P times a row of gains c, under
    the same WrongModel rule and the same effective gain (c*c)(1-max(rho, 0))."""
    _require_model(M, rho, *_MODELS.get(bound, ()))
    c2 = (c * c) * (1.0 - max(rho, 0.0))
    if bound == "baseline_outer_2":
        return _baseline_outer_2_plane(P, c)
    if bound == "ccdp2_inner":
        return _inner_m_plane(2, P, c2, (BR_LOW_2, BR_MIDDLE, BR_HIGH_2))
    if bound.endswith("_inner"):
        return _inner_m_plane(M, P, c2, (BR_LOW_M, BR_MIDDLE, BR_TIME_SHARING))
    if variant == RAW:
        if np.any(c2 <= 0.0):
            raise DomainError("raw outer bound needs c > 0")
        return _pieces(-inf, inf, [("raw", _outer2_raw_plane)] * 3, c2, P)
    if bound == "ccdp2_outer":
        return _outer2_plane(P, c2, variant == THEOREM, 1.0)
    if bound == "ccdp_es_outer" and variant == THEOREM and M == 2:
        return _outer2_plane(P, c2, False, 0.5)
    return _outer_m_plane(M, P, c2, variant)


# ---------------------------------------------------------------------------
# Side-information machinery behind the M-receiver outer bound.
# ---------------------------------------------------------------------------

def delta_conditional_variances(M, rho):
    """Conditional variances of successive state differences.

    With D_i = S_i - S_{i-1}, the covariance of (D_2, ..., D_M) is (1-rho)
    times the tridiagonal matrix with 2 on the diagonal and -1 beside it.
    Entry k (k = 1..M-1) is Var(D_{k+1} | D_2..D_k) = (1-rho)*(k+1)/k.
    """
    if not isinstance(M, (int, np.integer)) or M < 2:
        raise InvalidM(f"M must be an integer >= 2, got {M!r}")
    lo, hi = rho_range(M)
    if not (lo - 1e-12 <= rho <= hi + 1e-12):
        raise InfeasibleRho(f"rho={rho!r} outside [{lo}, {hi}] for M={M}")
    k = np.arange(1, M)
    return (1.0 - rho) * (k + 1.0) / k
