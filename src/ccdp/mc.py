"""Monte Carlo cross-checks of the closed-form rates.

Every variable in the coding scheme (codeword layers, states, noises, channel
outputs, dirty-paper auxiliaries) is a fixed linear combination of an i.i.d.
standard-normal basis.  Estimation therefore reduces to one pass of blocked
second-moment accumulation over the basis, S = L L^T, and the rows A @ L of
the variables are a square-root factor of their empirical covariance.  Mutual
information is a signed sum of log-dets of covariance blocks, each read from a
QR of the block's rows: no Gram matrix or inverse is formed, as a Gram matrix
squares the condition number (Golub & Van Loan, sec. 5.3).  The delta-method
variance of such a sum from n zero-mean samples, (2/n) * tr(G Sigma G Sigma)
for its gradient G (nats), is (2/n) * sum_{k,j} w_k w_j ||Q_k^T Q_j||_F^2 over
the blocks' orthonormal factors Q_k and weights w_k.

Blocks use the spawned SFC64 streams of :mod:`ccdp.model`, drawn in
cache-sized pieces, so estimates are reproducible for a fixed seed and can be
accumulated by parallel workers without changing the result (each piece's
product is added in piece order).
"""

from dataclasses import dataclass
from math import inf, isfinite, log, log2, nan, sqrt
from threading import Lock

import numpy as np

from .bounds import PowerSplit, _inner_raw_value, _san_rate
from .errors import CcdpError, DegenerateCovariance, DomainError, InvalidSplit
from .model import (
    SAMPLE_BLOCK,
    ChannelParams,
    check_samples,
    decompose_states,
    normal_blocks,
    state_covariance,
)

LN2 = log(2.0)
_EPS = float(np.finfo(float).eps)

@dataclass(frozen=True)
class SimulationConfig:
    """One estimation run: channel, sample count, stream seed, power split."""

    params: ChannelParams
    samples: int = 1_000_000
    seed: int = 0
    alpha_bar: float = 0.0   # fraction of power on the pre-coded layer

    def __post_init__(self):
        check_samples(self.samples, self.seed, 1000, "samples")
        PowerSplit(self.alpha_bar)  # its check of alpha_bar


@dataclass(frozen=True)
class MIEstimate:
    """A mutual-information estimate with its matching analytic value."""

    value: float        # bpcu
    stderr: float       # bpcu, delta-method, at least its round-off floor
    samples: int
    closed_form: float  # bpcu

    @property
    def z_score(self):
        return (self.value - self.closed_form) / self.stderr


# ---------------------------------------------------------------------------
# Gaussian MI functional and its delta-method standard error, in factor form.
# ---------------------------------------------------------------------------

def _cholesky(cov):
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise DegenerateCovariance(f"covariance is not positive definite: {exc}") from exc


def _factor(rows, block):
    """(log det in nats, orthonormal Q) of the covariance of the block's rows B.

    B^T = Q R gives B B^T = R^T R.  Rank rule: |R_ii|, the length of row i
    outside the span of the rows before it, must exceed width * eps times the
    row's own length (the round-off of a Householder QR, Higham, ch. 19).
    """
    sub = np.stack([rows[k] for k in block])
    q, r = np.linalg.qr(sub.T)
    diag = np.abs(np.diagonal(r))
    if not np.all(diag > sub.shape[1] * _EPS * np.linalg.norm(sub, axis=1)):
        raise DegenerateCovariance(f"covariance block {list(block)} is numerically singular")
    return 2.0 * float(np.sum(np.log(diag))), q


def mi_gradient(a, b, cond=()):
    """Signed log-det blocks {indices: weight} of I(A; B | C) in nats.

    I = sum_k w_k * log det Sigma_kk, so its gradient in the covariance is
    sum_k w_k * inv(Sigma_kk) on block k.  One set of indices is one block.
    """
    a, b, cond = list(a), list(b), list(cond)
    blocks = {}
    for group, w in ((a + cond, 0.5), (b + cond, 0.5), (cond, -0.5), (a + b + cond, -0.5)):
        if group:
            key = tuple(sorted(group))
            blocks[key] = blocks.get(key, 0.0) + w
    return blocks


def delta_stderr(factors, weights, n):
    """Delta-method standard error (bits) of sum_k w_k * log det Sigma_kk (nats).

    factors are the blocks' orthonormal Q_k.  The variance (2/n) * sum_{k,j}
    w_k w_j ||Q_k^T Q_j||_F^2 is (2/n) * ||sum_k w_k Q_k Q_k^T||_F^2: one product
    of the stacked Q_k, and a sum of squares, so a tiny variance stays accurate.
    """
    q = np.hstack(factors)
    g = (q * np.repeat(weights, [f.shape[1] for f in factors])) @ q.T
    return sqrt(2.0 / n * float(np.sum(g * g))) / LN2


def gaussian_mi(cov, a, b, cond=()):
    """I(A; B | C) in bits for jointly Gaussian variables with covariance cov.

    a, b, cond are disjoint index lists into cov.  The blocks are factored from
    the Cholesky factor of the rows they use (DegenerateCovariance if not
    positive definite); an analytic covariance gives the closed form.
    """
    own = sorted({*a, *b, *cond})
    rows = dict(zip(own, _cholesky(cov[np.ix_(own, own)])))
    return sum(w * _factor(rows, k)[0] for k, w in mi_gradient(a, b, cond).items()) / LN2


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
        # (q + lam^2*c2)*(q + c2 + 1) - (q + lam*c2)^2, expanded: no cancellation
        den = q * (1.0 + c2 * (1.0 - lam) ** 2) + lam * lam * c2
    except OverflowError:  # the square is beyond the float range
        den = nan
    if not (den > 0.0 and 0.0 < num / den < inf):  # NaN (lam = nan or inf) fails too
        raise DomainError("pre-coded rate undefined or beyond the float range "
                          "for these parameters")
    return 0.5 * log2(num / den)


# The moments drawn last, by (n, width, seed), least recently used first: at
# most _MOMENT_SLOTS, about 6 MB at the widest basis (a scheme's 154 columns at
# M = 16).  The lock makes each lookup and store one step for concurrent callers.
_MOMENTS = {}
_MOMENT_SLOTS = 32
_MOMENT_LOCK = Lock()


def _second_moment(n, width, seed, threads=1):
    """(1/n) * sum of outer products of n standard-normal rows of this width,
    read-only and shared by every call with the same (n, width, seed).

    Block b comes from the stream (seed, b) in pieces of at most DRAW_ROWS rows.
    Each piece's product is added in piece order, also when threads > 1 draw
    the blocks in parallel, so the result does not depend on the thread count.
    """
    key = n, width, seed
    with _MOMENT_LOCK:
        moment = _MOMENTS.pop(key, None)
    if moment is None:
        moment = _draw_moment(n, width, seed, threads)
        moment.flags.writeable = False
    with _MOMENT_LOCK:
        _MOMENTS[key] = moment
        if len(_MOMENTS) > _MOMENT_SLOTS:
            del _MOMENTS[next(iter(_MOMENTS))]
    return moment


def _draw_moment(n, width, seed, threads):
    total = np.zeros((width, width))
    if threads <= 1:
        for _, rows in normal_blocks(n, width, seed):
            total += rows.T @ rows
        return total / n
    from concurrent.futures import ThreadPoolExecutor

    def pieces(b):  # the products of block b's pieces
        end = min(n, (b + 1) * SAMPLE_BLOCK)
        return [rows.T @ rows for _, rows in normal_blocks(end, width, seed, first=b)]

    with ThreadPoolExecutor(max_workers=threads) as pool:
        for products in pool.map(pieces, range(-(-n // SAMPLE_BLOCK))):
            for product in products:
                total += product
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
    U_san = X_san + lam_c*(c*sqrt(rho))*S_c.  The rows keep only the basis
    columns some row weights; ``dim`` counts them.
    """

    def __init__(self, params, alpha_bar, lam=None):
        self.params = params
        self.alpha_bar = float(alpha_bar)
        M, P, c, rho = params.M, params.P, params.c, params.rho
        W, _ = decompose_states(params).mixing_matrix()
        K = W.shape[1]

        def row():
            return np.zeros(2 + K + M)

        # the common and the pre-coded layer's powers
        self.a_power = a_power = (1.0 - self.alpha_bar) * P
        self.ab_power = ab_power = self.alpha_bar * P
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
        if rho > 0:  # the decomposition has a common latent
            s_c = row(); s_c[2] = 1.0  # common latent is first in both kinds
            rows["S_c"] = s_c
            noise = ab_power + (1.0 - rho) * params.c2 + 1.0
            self.lam_common = a_power / (a_power + noise) if a_power > 0 else 0.0
            rows["U_san"] = x_san + self.lam_common * (c * sqrt(rho)) * s_c
        # Only the live basis columns are drawn: a column no row weights (a
        # layer without power, a latent of weight 0) adds 0 to every sample.
        live = np.any(np.stack(list(rows.values())) != 0.0, axis=0)
        self.rows = {name: r[live] for name, r in rows.items()}
        self.dim = int(np.count_nonzero(live))

    def receiver(self, m):
        """Names of receiver m's output, auxiliary and state rows."""
        if f"Y_{m}" not in self.rows:
            raise CcdpError(f"receiver must be in 1..{self.params.M}, got {m!r}")
        return f"Y_{m}", f"U_{m}", f"S_{m}"

    def layer_terms(self, m):
        """Receiver m's (weight, a, b, cond) MI terms: (common layer, pre-coded layer).

        The common layer is I(X_san; Y_m) with the states as noise, or, when
        rho > 0, its rate pre-coded against S_c: I(Y_m; U_san) - I(U_san; S_c).
        The pre-coded layer is I(Y_m; U_m | X_san) - I(U_m; S_m).  A layer with
        no power has no terms, and the other layer is not conditioned on it.
        """
        y, u, s = self.receiver(m)
        cond = ["X_san"] if self.a_power > 0 else []
        common = [] if self.a_power == 0 else (
            [(1.0, [y], ["U_san"], []), (-1.0, ["U_san"], ["S_c"], [])] if self.params.rho > 0
            else [(1.0, ["X_san"], [y], [])])
        precoded = [(1.0, [y], [u], cond), (-1.0, [u], [s], [])] if self.ab_power > 0 else []
        return common, precoded

    def transform(self, names):
        return np.stack([self.rows[n] for n in names])

    def analytic_cov(self, names):
        A = self.transform(names)
        return A @ A.T

    def basis_second_moment(self, n, seed, threads=1):
        """Empirical (1/n) * sum of basis outer products."""
        return _second_moment(n, self.dim, seed, threads)

    def factor_rows(self, n, seed, threads=1):
        """{name: row of transform @ L}, S = L L^T the basis second moment, so
        any variables' empirical covariance is their rows' Gram matrix."""
        L = _cholesky(self.basis_second_moment(n, seed, threads))
        return dict(zip(self.rows, self.transform(self.rows) @ L))

    def estimate(self, sums, config, threads=1):
        """(value, stderr) in bits of each sum of MI terms, on the config's
        samples; nothing is drawn when every sum is empty."""
        rows = self.factor_rows(config.samples, config.seed, threads) if any(sums) else {}
        return _estimate_sums(rows, sums, config.samples)


def _estimate_sums(rows, sums, n):
    """Weighted sums of conditional MIs (bits) of variables with factor rows.

    Each sum lists (weight, a, b, cond) terms and comes back as (value,
    stderr); each distinct block is factored once.  The stderr is the
    delta-method stderr, but never below the round-off floor
    eps * sum_k |w_k * log det_k| / ln 2 of the signed sum of log-dets: a value
    far below the log-dets it cancels is known to that floor only.  An empty sum
    is a layer with zero power: rate 0, with stderr 1/n so its z-score is defined.
    """
    factors, results = {}, []
    for terms in sums:
        weights = {}
        for w, a, b, cond in terms:
            for block, v in mi_gradient(a, b, cond).items():
                weights[block] = weights.get(block, 0.0) + w * v
        for block in weights:
            factors[block] = factors.get(block) or _factor(rows, block)
        value = sum(w * factors[k][0] for k, w in weights.items()) / LN2
        floor = _EPS * sum(abs(w * factors[k][0]) for k, w in weights.items()) / LN2
        se = max(delta_stderr([factors[k][1] for k in weights], list(weights.values()),
                              n), floor) if terms else 1.0 / n
        results.append((value, se))
    return results


def estimate_san_rate(config, threads=1):
    """Estimate the common layer's rate I(X_san; Y_1) with states as noise.

    Closed form: 1/2*log2(1 + aP/(c2 + abP + 1)).
    """
    p, ab = config.params, config.alpha_bar
    system = SchemeSystem(p, ab)
    terms = [(1.0, ["X_san"], ["Y_1"], [])] if system.a_power > 0 else []
    [(value, se)] = system.estimate([terms], config, threads)
    return MIEstimate(value, se, config.samples, _san_rate(p.P, p.c2, ab))


def _check_precoded(config, lambdas):
    # The pre-coded layer has power, and each state weight w = lam*c of its
    # auxiliary has a finite square (Python floats: inf where numpy would warn).
    if config.alpha_bar * config.params.P == 0.0:
        raise InvalidSplit("pre-coded layer has zero power (alpha_bar = 0)")
    for lam in lambdas:
        w = float(lam) * config.params.c
        if not isfinite(w * w):
            raise DomainError(f"lam and lam*c must be finite, and so must "
                              f"(lam*c)**2, got lam={lam!r}")


def estimate_gp_rate(config, lam=None, receiver=1, threads=1):
    """Estimate the pre-coded layer's rate I(Y; U | X_san) - I(U; S).

    U = X_pas + lam*c*S_receiver with lam defaulting to the MMSE value
    abP/(abP+1), at which the closed form is 1/2*log2(1+abP) for any gain.
    An explicit lam overrides it (closed form adjusts accordingly).
    """
    _check_precoded(config, () if lam is None else (lam,))
    system = SchemeSystem(config.params, config.alpha_bar, lam=lam)
    closed = gp_rate_closed_form(system.ab_power, config.params.c2, system.lam)
    [(value, se)] = system.estimate([system.layer_terms(receiver)[1]], config, threads)
    return MIEstimate(value, se, config.samples, closed)


@dataclass(frozen=True)
class SchemeRateReport:
    """Per-receiver layer estimates and the combined achievable rate."""

    per_receiver: tuple     # (san_estimate, gp_estimate or None) per receiver
    combined_rate: float    # mean over receivers of san + gp/M
    combined_stderr: float  # joint delta-method stderr of that mean
    closed_form: float      # matching analytic combined rate
    samples: int
    min_rate: float         # min over receivers of san + gp/M

    @property
    def z_score(self):
        return (self.combined_rate - self.closed_form) / self.combined_stderr


def verify_scheme_rate(config, threads=1):
    """Estimate the full scheme rate and compare with the closed form.

    The common layer is estimated as plain MI for independent or negatively
    correlated states, and as a pre-coded rate against the common state
    component when rho > 0.  Each receiver's pre-coded layer contributes
    1/M of its rate (time sharing is exact bookkeeping, applied analytically).
    The receivers are statistically equivalent, so the combined rate is the
    mean of their rates: one sum of every receiver's terms, each weighted 1/M,
    whose delta-method stderr accounts for the receivers' shared samples.  The
    minimum over receivers, a biased-low estimate, is kept as ``min_rate``.
    """
    p, ab, n = config.params, config.alpha_bar, config.samples
    M = p.M
    system = SchemeSystem(p, ab)

    # The common layer sees the states as noise at the effective gain: with
    # rho > 0 it pre-codes the common component away, leaving (1-rho)*c2.
    ceff2 = p.c2 * p.rho_bar_plus
    san_closed = _san_rate(p.P, ceff2, ab)
    gp_closed = 0.5 * log2(1.0 + system.ab_power)

    sums = []  # per receiver: its rate san + gp/M, san and gp
    for m in range(1, M + 1):
        terms_san, terms_gp = system.layer_terms(m)
        sums += [terms_san + [(w / M, a, b, c) for (w, a, b, c) in terms_gp],
                 terms_san, terms_gp]

    mean = [(w / M, a, b, c) for terms in sums[0::3] for (w, a, b, c) in terms]
    combined, *results = system.estimate([mean] + sums, config, threads)
    per_receiver = [(MIEstimate(*san, n, san_closed),
                     MIEstimate(*gp, n, gp_closed) if system.ab_power > 0 else None)
                    for san, gp in zip(results[1::3], results[2::3])]
    return SchemeRateReport(
        per_receiver=tuple(per_receiver),
        combined_rate=combined[0],
        combined_stderr=combined[1],
        closed_form=_inner_raw_value(M, p.P, ceff2, ab),
        samples=n,
        min_rate=min(total for total, _ in results[0::3]),
    )


def gp_rate_lambda_profile(config, lambdas, receiver=1, threads=1):
    """Empirical pre-coded rate as a function of the inflation factor.

    Each lambda is estimated as ``estimate_gp_rate`` estimates it, on the
    same samples: the systems share one basis moment, so one draw serves all.
    """
    _check_precoded(config, lambdas)
    values = []
    for lam in lambdas:
        system = SchemeSystem(config.params, config.alpha_bar, lam=lam)
        [(value, _)] = system.estimate([system.layer_terms(receiver)[1]], config, threads)
        values.append(value)
    return np.asarray(values)


def verify_decomposition_stats(decomp, n, seed, threads=1):
    """Max absolute deviation of the empirical state covariance from its target."""
    check_samples(n, seed, 10_000)
    W, _ = decomp.mixing_matrix()
    W = W[:, np.any(W != 0.0, axis=0)]  # a latent of weight 0 is not drawn
    emp = W @ _second_moment(n, W.shape[1], seed, threads) @ W.T
    target = state_covariance(decomp.M, decomp.rho).entries
    return float(np.max(np.abs(emp - target)))
