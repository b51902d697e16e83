"""Monte Carlo cross-checks of the closed-form rates.

Every variable in the coding scheme (codeword layers, states, noises, channel
outputs, dirty-paper auxiliaries) is a fixed linear combination of an i.i.d.
standard-normal basis.  Estimation therefore reduces to one pass of blocked
second-moment accumulation over the basis; any subset's covariance is a
congruence transform of that matrix, and mutual information follows from the
Gaussian log-determinant functional.  Standard errors come from the delta
method on the same functional: for an MI with gradient G (nats) at covariance
S estimated from n zero-mean samples, Var ~= (2/n) * tr(G S G S).

Blocks use the counter-based streams of :mod:`ccdp.model`, so estimates are
reproducible for a fixed seed and can be accumulated by parallel workers
without changing the result (partial sums are merged in block order).
"""

from dataclasses import dataclass
from math import inf, isfinite, log, log2, nan, sqrt

import numpy as np

from .bounds import _inner_raw_value, _san_rate
from .errors import CcdpError, DegenerateCovariance, DomainError, InvalidSplit
from .model import (
    NEGATIVE_PAIRWISE,
    SAMPLE_BLOCK,
    ChannelParams,
    block_generator,
    decompose_states,
    normal_blocks,
    state_covariance,
)

LN2 = log(2.0)

TARGETS = ("san", "gp", "scheme", "decomposition")


@dataclass(frozen=True)
class SimulationConfig:
    """One estimation run: channel, sample count, stream seed, power split."""

    params: ChannelParams
    samples: int = 1_000_000
    seed: int = 0
    alpha_bar: float = 0.0   # fraction of power on the pre-coded layer
    target: str = "san"

    def __post_init__(self):
        if self.samples < 1000:
            raise CcdpError(f"samples must be >= 1000, got {self.samples}")
        if not 0.0 <= self.alpha_bar <= 1.0:
            raise InvalidSplit(f"alpha_bar must be in [0, 1], got {self.alpha_bar!r}")
        if self.target not in TARGETS:
            raise CcdpError(f"target must be one of {TARGETS}, got {self.target!r}")


@dataclass(frozen=True)
class MIEstimate:
    """A mutual-information estimate with its matching analytic value."""

    value: float        # bpcu
    stderr: float       # bpcu, delta-method
    samples: int
    closed_form: float  # bpcu

    @property
    def z_score(self):
        return (self.value - self.closed_form) / self.stderr


# ---------------------------------------------------------------------------
# Gaussian MI functional and its delta-method standard error.
# ---------------------------------------------------------------------------

def _logdet(cov, idx):
    if len(idx) == 0:
        return 0.0
    sign, ld = np.linalg.slogdet(cov[np.ix_(idx, idx)])
    if sign <= 0:
        raise DegenerateCovariance(
            f"covariance block {idx} is numerically singular")
    return ld


def _embed_inverse(cov, idx, out, weight):
    sub = cov[np.ix_(idx, idx)]
    try:
        inv = np.linalg.inv(sub)
    except np.linalg.LinAlgError as exc:
        raise DegenerateCovariance(str(exc)) from exc
    out[np.ix_(idx, idx)] += weight * inv


def gaussian_mi(cov, a, b, cond=()):
    """I(A; B | C) in bits for jointly Gaussian variables with covariance cov.

    a, b, cond are disjoint index lists into cov.  Feeding the analytic
    covariance reproduces the closed form exactly (up to linear algebra
    round-off); feeding an empirical one gives the plug-in estimate.
    """
    a, b, cond = list(a), list(b), list(cond)
    ld = _logdet(cov, a + cond) + _logdet(cov, b + cond) \
        - _logdet(cov, cond) - _logdet(cov, a + b + cond)
    return 0.5 * ld / LN2


def mi_gradient(cov, a, b, cond=()):
    """Gradient (nats) of I(A;B|C) with respect to the covariance matrix."""
    a, b, cond = list(a), list(b), list(cond)
    G = np.zeros_like(cov)
    _embed_inverse(cov, a + cond, G, 0.5)
    _embed_inverse(cov, b + cond, G, 0.5)
    if cond:
        _embed_inverse(cov, cond, G, -0.5)
    _embed_inverse(cov, a + b + cond, G, -0.5)
    return G


def delta_stderr(cov, grad, n):
    """Standard error (bits) of a covariance functional with gradient ``grad``."""
    gs = grad @ cov
    var_nats = 2.0 / n * float(np.trace(gs @ gs))
    return sqrt(max(var_nats, 0.0)) / LN2


def gp_rate_closed_form(layer_power, c2, lam):
    """Analytic pre-coded rate for auxiliary U = X + lam*c*S.

    Equals 1/2*log2(1+layer_power) at the optimum lam = Q/(Q+1) and
    1/2*log2(1+Q/(1+c2)) at lam = 0 (no pre-coding), Q = layer_power.
    """
    q = layer_power
    if c2 == 0.0 and isfinite(lam):
        # The rate does not depend on lam here, but lam*lam*c2 is inf*0 = NaN
        # from lam = 1.3e154 up; lam = 0 gives the bits of any smaller lam.
        lam = 0.0
    num = q * (q + c2 + 1.0)
    try:
        den = (q + lam * lam * c2) * (q + c2 + 1.0) - (q + lam * c2) ** 2
    except OverflowError:  # the square is beyond the float range
        den = nan
    if not (den > 0.0 and 0.0 < num / den < inf):  # NaN (lam = nan or inf) fails too
        raise DomainError("pre-coded rate undefined or beyond the float range "
                          "for these parameters")
    return 0.5 * log2(num / den)


def _second_moment(n, width, seed, threads=1):
    """(1/n) * sum of outer products of n standard-normal rows of this width.

    Block b comes from the stream (seed, b).  With threads > 1 the blocks are
    drawn in parallel and their partial sums merged in block order, so the
    result does not depend on the thread count.
    """
    total = np.zeros((width, width))
    if threads <= 1:
        for _, block in normal_blocks(n, width, seed):
            total += block.T @ block
        return total / n
    from concurrent.futures import ThreadPoolExecutor

    def partial(b):
        rows = min(SAMPLE_BLOCK, n - b * SAMPLE_BLOCK)
        block = block_generator(seed, b).standard_normal((rows, width))
        return block.T @ block

    with ThreadPoolExecutor(max_workers=threads) as pool:
        for part in pool.map(partial, range(-(-n // SAMPLE_BLOCK))):
            total += part
    return total / n


# ---------------------------------------------------------------------------
# The scheme's variables as rows over a standard-normal basis.
# ---------------------------------------------------------------------------

class SchemeSystem:
    """Linear model of one simulation: basis [X_san, X_pas, latents, Z_1..Z_M].

    Rows exist for the codeword layers, the states S_m (via the state
    decomposition), the common state component S_c where one exists, the
    outputs Y_m, the per-receiver auxiliaries U_m = X_pas + lam*c*S_m and,
    for positively correlated states, the common-layer auxiliary
    U_san = X_san + lam_c*(c*sqrt(rho))*S_c.
    """

    def __init__(self, params, alpha_bar, lam=None):
        self.params = params
        self.alpha_bar = float(alpha_bar)
        M, P, c, rho = params.M, params.P, params.c, params.rho
        decomp = decompose_states(params)
        W, _ = decomp.mixing_matrix()
        K = W.shape[1]
        self.dim = 2 + K + M

        def row():
            return np.zeros(self.dim)

        a_power = (1.0 - self.alpha_bar) * P
        ab_power = self.alpha_bar * P
        rows = {}
        x_san = row(); x_san[0] = sqrt(a_power)
        x_pas = row(); x_pas[1] = sqrt(ab_power)
        rows["X_san"], rows["X_pas"] = x_san, x_pas
        for m in range(M):
            s = row(); s[2:2 + K] = W[m]
            rows[f"S_{m + 1}"] = s
            z = row(); z[2 + K + m] = 1.0
            rows[f"Z_{m + 1}"] = z
            rows[f"Y_{m + 1}"] = x_san + x_pas + c * s + z
        if lam is None:
            lam = ab_power / (ab_power + 1.0)  # MMSE-optimal inflation factor
        self.lam = lam
        for m in range(M):
            rows[f"U_{m + 1}"] = x_pas + lam * c * rows[f"S_{m + 1}"]
        if decomp.kind != NEGATIVE_PAIRWISE and rho > 0:
            s_c = row(); s_c[2] = 1.0  # common latent is first in both kinds
            rows["S_c"] = s_c
            noise = ab_power + (1.0 - rho) * params.c2 + 1.0
            self.lam_common = a_power / (a_power + noise) if a_power > 0 else 0.0
            rows["U_san"] = x_san + self.lam_common * (c * sqrt(rho)) * s_c
        self.rows = rows
        self._moment_cache = {}

    def transform(self, names):
        return np.stack([self.rows[n] for n in names])

    def analytic_cov(self, names):
        A = self.transform(names)
        return A @ A.T

    def basis_second_moment(self, n, seed, threads=1):
        """Empirical (1/n) * sum of basis outer products, cached per (n, seed)."""
        key = (n, seed)
        if key not in self._moment_cache:
            self._moment_cache[key] = _second_moment(n, self.dim, seed, threads)
        return self._moment_cache[key]

    def empirical_cov(self, names, n, seed, threads=1):
        A = self.transform(names)
        return A @ self.basis_second_moment(n, seed, threads) @ A.T


def _estimate_terms(system, names, terms, n, seed, threads=1):
    """Estimate a weighted sum of conditional MIs over one covariance.

    terms is a list of (weight, a, b, cond) with entries naming rows of the
    system; value and the combined delta-method stderr are returned.
    """
    cov = system.empirical_cov(names, n, seed, threads)
    # A variance below the smallest normal float, as a subnormal P gives, has
    # no finite inverse: the functional and its gradient would be NaN.
    if not np.all(np.diag(cov) >= np.finfo(float).tiny):
        raise DegenerateCovariance(
            f"a variance of {names} is below the smallest normal float")
    idx = {name: i for i, name in enumerate(names)}

    def ix(group):
        return [idx[g] for g in group]

    value, grad = 0.0, np.zeros_like(cov)
    for w, a, b, cond in terms:
        value += w * gaussian_mi(cov, ix(a), ix(b), ix(cond))
        grad += w * mi_gradient(cov, ix(a), ix(b), ix(cond))
    se = delta_stderr(cov, grad, n)
    # Near-singular blocks can leave a NaN, or a variance round-off made <= 0.
    if not (isfinite(value) and 0.0 < se < inf):
        raise DegenerateCovariance(f"covariance of {names} gives no finite "
                                   f"estimate with a positive stderr")
    return value, se


def _degenerate_zero(n, closed=0.0):
    # A layer with zero power carries exactly zero rate; keep stderr positive
    # so the z-score stays defined.
    return MIEstimate(0.0, 1.0 / n, n, closed)


def estimate_san_rate(config, threads=1):
    """Estimate the common layer's rate I(X_san; Y_1) with states as noise.

    Closed form: 1/2*log2(1 + aP/(c2 + abP + 1)).
    """
    p, ab = config.params, config.alpha_bar
    a_power = (1.0 - ab) * p.P
    closed = _san_rate(p.P, p.c2, ab)
    if a_power == 0.0:
        return _degenerate_zero(config.samples, closed)
    system = SchemeSystem(p, ab)
    value, se = _estimate_terms(
        system, ["X_san", "Y_1"],
        [(1.0, ["X_san"], ["Y_1"], [])],
        config.samples, config.seed, threads)
    return MIEstimate(value, se, config.samples, closed)


def estimate_gp_rate(config, lam=None, receiver=1, threads=1):
    """Estimate the pre-coded layer's rate I(Y; U | X_san) - I(U; S).

    U = X_pas + lam*c*S_receiver with lam defaulting to the MMSE value
    abP/(abP+1), at which the closed form is 1/2*log2(1+abP) for any gain.
    An explicit lam overrides it (closed form adjusts accordingly).
    """
    p, ab = config.params, config.alpha_bar
    ab_power = ab * p.P
    if ab_power == 0.0:
        raise InvalidSplit("pre-coded layer has zero power (alpha_bar = 0)")
    if lam is not None and not isfinite(lam * p.c):  # the auxiliary's state weight
        raise DomainError(f"lam and lam*c must be finite, got lam={lam!r}")
    system = SchemeSystem(p, ab, lam=lam)
    closed = gp_rate_closed_form(ab_power, p.c2, system.lam)
    y, u, s = f"Y_{receiver}", f"U_{receiver}", f"S_{receiver}"
    cond = ["X_san"] if ab < 1.0 else []  # zero-power layer cannot be conditioned on
    names = [y, u, s] + cond
    value, se = _estimate_terms(
        system, names,
        [(1.0, [y], [u], cond), (-1.0, [u], [s], [])],
        config.samples, config.seed, threads)
    return MIEstimate(value, se, config.samples, closed)


@dataclass(frozen=True)
class SchemeRateReport:
    """Per-receiver layer estimates and the combined achievable rate."""

    per_receiver: tuple     # (san_estimate, gp_estimate or None) per receiver
    combined_rate: float    # min over receivers of san + gp/M
    combined_stderr: float  # stderr of the minimizing receiver's sum
    closed_form: float      # matching analytic combined rate
    samples: int

    @property
    def z_score(self):
        return (self.combined_rate - self.closed_form) / self.combined_stderr


def verify_scheme_rate(config, threads=1):
    """Estimate the full scheme rate and compare with the closed form.

    The common layer is estimated as plain MI for independent or negatively
    correlated states, and as a pre-coded rate against the common state
    component when rho > 0.  Each receiver's pre-coded layer contributes
    1/M of its rate (time sharing is exact bookkeeping, applied analytically).
    """
    p, ab, n, seed = config.params, config.alpha_bar, config.samples, config.seed
    M = p.M
    a_power = (1.0 - ab) * p.P
    ab_power = ab * p.P
    precode_common = p.rho > 0 and a_power > 0
    system = SchemeSystem(p, ab)

    # The common layer sees the states as noise at the effective gain: with
    # rho > 0 it pre-codes the common component away, leaving (1-rho)*c2.
    ceff2 = p.c2 * p.rho_bar_plus
    san_closed = _san_rate(p.P, ceff2, ab)
    gp_closed = 0.5 * log2(1.0 + ab_power)

    per_receiver = []
    combined = []
    for m in range(1, M + 1):
        y, u, s = f"Y_{m}", f"U_{m}", f"S_{m}"
        terms_san = []
        if a_power > 0:
            if precode_common:
                terms_san = [(1.0, [y], ["U_san"], []), (-1.0, ["U_san"], ["S_c"], [])]
            else:
                terms_san = [(1.0, ["X_san"], [y], [])]
        terms_gp = []
        if ab_power > 0:
            cond = ["X_san"] if a_power > 0 else []
            terms_gp = [(1.0, [y], [u], cond), (-1.0, [u], [s], [])]

        names = sorted({nm for t in terms_san + terms_gp for grp in t[1:] for nm in grp})
        # P > 0, so at least one layer has power and names is never empty.
        scaled = terms_san + [(w / M, a, b, c) for (w, a, b, c) in terms_gp]
        total, total_se = _estimate_terms(system, names, scaled, n, seed, threads)
        san_value, san_se = (_estimate_terms(system, names, terms_san, n, seed, threads)
                             if terms_san else (0.0, 1.0 / n))
        gp_value, gp_se = (_estimate_terms(system, names, terms_gp, n, seed, threads)
                           if terms_gp else (0.0, 1.0 / n))

        san_est = MIEstimate(san_value, san_se, n, san_closed) if terms_san \
            else _degenerate_zero(n)
        gp_est = MIEstimate(gp_value, gp_se, n, gp_closed) if terms_gp else None
        per_receiver.append((san_est, gp_est))
        combined.append((total, total_se))

    best = min(range(M), key=lambda i: combined[i][0])
    return SchemeRateReport(
        per_receiver=tuple(per_receiver),
        combined_rate=combined[best][0],
        combined_stderr=combined[best][1],
        closed_form=_inner_raw_value(M, p.P, ceff2, ab),
        samples=n,
    )


def gp_rate_lambda_profile(config, lambdas, receiver=1, threads=1):
    """Empirical pre-coded rate as a function of the inflation factor.

    One set of samples serves every lambda: the auxiliary is a linear
    function of (X_pas, S), so each profile point is a congruence transform
    of the same empirical covariance.
    """
    p, ab = config.params, config.alpha_bar
    if ab * p.P == 0.0:
        raise InvalidSplit("pre-coded layer has zero power (alpha_bar = 0)")
    system = SchemeSystem(p, ab)
    y, s = f"Y_{receiver}", f"S_{receiver}"
    base_names = [y, "X_pas", s, "X_san"]
    base = system.empirical_cov(base_names, config.samples, config.seed, threads)
    cond_on_san = (1.0 - ab) * p.P > 0
    values = []
    for lam in lambdas:
        # quantity order: Y, U(lam), S, X_san
        A = np.array([
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, lam * p.c, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ])
        cov = A @ base @ A.T
        cond = [3] if cond_on_san else []
        values.append(gaussian_mi(cov, [0], [1], cond) - gaussian_mi(cov, [1], [2]))
    return np.asarray(values)


def verify_decomposition_stats(decomp, n, seed):
    """Max absolute deviation of the empirical state covariance from its target."""
    if n < 10_000:
        raise CcdpError(f"need n >= 10000, got {n}")
    W, _ = decomp.mixing_matrix()
    emp = W @ _second_moment(n, W.shape[1], seed) @ W.T
    target = state_covariance(decomp.M, decomp.rho).entries
    return float(np.max(np.abs(emp - target)))


def state_split_reduction(params, theta, n, seed):
    """Check the split-and-cancel argument that shrinks the state gain.

    States split as S = S_kept + S_known with S_kept ~ N(0, theta*Sigma) and
    S_known ~ N(0, (1-theta)*Sigma) independent; cancelling c*S_known from
    every output leaves a channel statistically equivalent to one with gain
    c*sqrt(theta).  Returns the max absolute difference between the two
    empirical (X, Y_1..Y_M) second-moment matrices, plus the analytic target.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta!r}")
    M, P, c = params.M, params.P, params.c
    W, _ = decompose_states(params).mixing_matrix()
    K = W.shape[1]

    # Original channel with split states: basis [x, kept latents, known
    # latents, z].  The receiver subtracts the known part from its output.
    dim_a = 1 + 2 * K + M
    A = np.zeros((1 + M, dim_a))
    A[0, 0] = sqrt(P)
    for m in range(M):
        y = np.zeros(dim_a)
        y[0] = sqrt(P)
        y[1:1 + K] = c * sqrt(theta) * W[m]
        y[1 + K:1 + 2 * K] = c * sqrt(1.0 - theta) * W[m]
        y[1 + 2 * K + m] = 1.0
        known = np.zeros(dim_a)
        known[1 + K:1 + 2 * K] = c * sqrt(1.0 - theta) * W[m]
        A[m + 1] = y - known
    cancelled = A @ _second_moment(n, dim_a, seed) @ A.T

    # Channel with gain c*sqrt(theta) sampled directly, independent stream.
    dim_b = 1 + K + M
    B = np.zeros((1 + M, dim_b))
    B[0, 0] = sqrt(P)
    for m in range(M):
        B[m + 1, 0] = sqrt(P)
        B[m + 1, 1:1 + K] = c * sqrt(theta) * W[m]
        B[m + 1, 1 + K + m] = 1.0
    reduced = B @ _second_moment(n, dim_b, seed + 1) @ B.T

    target = np.full((1 + M, 1 + M), P)
    target[1:, 1:] += theta * params.c2 * (W @ W.T)
    target[1:, 1:][np.diag_indices(M)] += 1.0
    return {
        "max_abs_difference": float(np.max(np.abs(cancelled - reduced))),
        "max_abs_error_vs_analytic": float(
            max(np.max(np.abs(cancelled - target)), np.max(np.abs(reduced - target)))),
        "analytic": target,
    }
