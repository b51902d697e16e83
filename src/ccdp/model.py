"""Channel parameters, equivalent-state covariance and state decompositions.

The channel has one input of power P observed by M receivers; receiver m sees
the input plus unit-variance Gaussian noise plus c times its own unit-variance
Gaussian state.  The M states share a single pairwise correlation rho, so the
state covariance is the equicorrelation matrix (1-rho)*I + rho*ones.

Sampling is blocked: block b of a run with seed s is drawn from its own SFC64
stream, seeded by child b of numpy's ``SeedSequence(s)`` spawn tree, with a
fixed block length of ``SAMPLE_BLOCK`` rows.  The children's streams are
independent, so results are bit-reproducible and blocks can be generated in
any order (or in parallel) without changing the output.  Each block is drawn
in pieces of at most ``DRAW_ROWS`` rows, its stream continuing from piece to
piece, so a piece stays cache-sized and the rows drawn are those of the whole
block.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CcdpError, InfeasibleRho, InvalidGain, InvalidM, InvalidPower

# Tolerance for positive-semidefiniteness checks; the boundary rho = -1/(M-1)
# is accepted (singular covariance, residual latent weight exactly 0).
FEASIBILITY_TOL = 1e-12

SAMPLE_BLOCK = 1 << 16  # rows per stream block
DRAW_ROWS = SAMPLE_BLOCK >> 3  # rows per drawn piece of a block

# Ceilings of ChannelParams on M, P and c: up to them M - 1.0 is exact and every
# intermediate term of every bound, such as M*(P+1) and 1+P+c2+2c*sqrt(P), is finite.
_MAX_M, _MAX_P, _MAX_C = 2 ** 53, 1e280, 1e140

# Most latents of a state decomposition: M(M-1)/2 + M at M = 16, so any M <= 16
# is admitted for any rho.  A scheme's widest piece of draws (154 columns) is
# then DRAW_ROWS x 154 doubles, about 9.6 MiB.
_MAX_LATENTS = 136

_U64 = (1 << 64) - 1

# Decomposition kinds (fixed API tokens).
TWO_USER_COMMON = "two-user-common"
POSITIVE_COMMON = "positive-common"
NEGATIVE_PAIRWISE = "negative-pairwise"


def rho_range(M):
    """Feasible correlation interval [-1/(M-1), 1] for M equivalent states."""
    return -1.0 / (M - 1), 1.0


def _rho_verdict(M, rho):
    # (smallest eigenvalue, feasible) of the M-state covariance: the one rule.
    min_eig = min(1.0 - rho, 1.0 + (M - 1) * rho)
    return min_eig, min_eig >= -FEASIBILITY_TOL


@dataclass(frozen=True, init=False)
class ChannelParams:
    """One channel instance.

    Noise and state variances are fixed to 1, so the gain c is the only
    state-strength knob.  Construction validates every field; instances are
    immutable and safe to share across workers.  Two derived values, not
    fields, are computed once here: ``c2 = c*c`` and the residual
    state-variance fraction ``rho_bar_plus = 1 - max(rho, 0)`` left once the
    common component is removed (positive correlation shrinks the effective
    state, negative correlation gives no reduction).
    """

    M: int        # number of receivers, 2..2**53
    P: float      # transmit power, linear scale, in (0, 1e280]
    c: float      # state gain (amplitude), in [0, 1e140]
    rho: float = 0.0  # pairwise state correlation

    def __init__(self, M, P, c, rho=0.0):
        # The generated __init__ would set each field through object.__setattr__;
        # direct __dict__ stores set the fields and the derived values.  An exact
        # int M in range needs no other check; any other M is judged, and shown
        # in the message, as given, and only an accepted one is made an int.
        if type(M) is not int or not 2 <= M <= _MAX_M:
            if not isinstance(M, (int, np.integer)) or isinstance(M, bool) \
                    or not 2 <= M <= _MAX_M:
                raise InvalidM(f"M must be an integer in [2, 2**53], got {M!r}")
            M = int(M)
        if not 0.0 < P <= _MAX_P:
            raise InvalidPower(f"P must be in (0, {_MAX_P}], got {P!r}")
        if not 0.0 <= c <= _MAX_C:
            raise InvalidGain(f"c must be in [0, {_MAX_C}], got {c!r}")
        # _rho_verdict inline, once per point: both eigenvalues >= -tol (NaN fails)
        if not 1.0 + (M - 1) * rho >= -FEASIBILITY_TOL <= 1.0 - rho:
            raise InfeasibleRho(f"rho={rho!r} outside [{-1.0 / (M - 1)}, 1.0] for M={M}")
        d = self.__dict__
        d["M"] = M
        d["P"] = P
        d["c"] = c
        d["rho"] = rho
        d["c2"] = c * c
        d["rho_bar_plus"] = 1.0 - (rho if rho > 0.0 else 0.0)  # 1 - max(rho, 0)

    def __getstate__(self):
        # A pickle holds the four fields alone, so pickles made before the
        # derived values were stored load too; loading validates them again.
        return {"M": self.M, "P": self.P, "c": self.c, "rho": self.rho}

    def __setstate__(self, state):
        self.__init__(**state)


@dataclass(frozen=True)
class StateCovariance:
    """Equicorrelation state covariance with its feasibility verdict.

    ``entries`` is exactly (1-rho)*I + rho*ones.  The spectrum is known in
    closed form: 1-rho with multiplicity M-1 and 1+(M-1)*rho once, so the
    minimum eigenvalue is min(1-rho, 1+(M-1)*rho).
    """

    M: int
    rho: float
    entries: np.ndarray
    min_eigenvalue: float
    feasible: bool   # min eigenvalue >= -FEASIBILITY_TOL
    singular: bool   # min eigenvalue == 0 within FEASIBILITY_TOL

    def eigenvalues(self):
        """All M eigenvalues, closed form, ascending."""
        lams = np.full(self.M, 1.0 - self.rho)
        lams[-1] = 1.0 + (self.M - 1) * self.rho
        return np.sort(lams)

    def leading_minor(self, m):
        """Determinant of the top-left m x m block: (1-rho)^(m-1) * (1+(m-1)rho)."""
        if not 1 <= m <= self.M:
            raise ValueError(f"minor order must be in 1..{self.M}, got {m}")
        return (1.0 - self.rho) ** (m - 1) * (1.0 + (m - 1) * self.rho)


def state_covariance(M, rho):
    """Build the M x M equicorrelation covariance and report feasibility.

    Unlike ChannelParams this never raises on infeasible rho: the verdict is
    reported so the feasibility boundary itself can be studied.

    Parameters
    ----------
    M : int
        Number of states, checked as ChannelParams checks it.
    rho : float
        Pairwise correlation, any real value.

    Returns
    -------
    StateCovariance
    """
    M = ChannelParams(M, 1.0, 0.0).M  # its check of M; rho is only judged here
    entries = np.full((M, M), float(rho))
    np.fill_diagonal(entries, 1.0)
    entries.setflags(write=False)
    min_eig, feasible = _rho_verdict(M, rho)
    return StateCovariance(M=M, rho=float(rho), entries=entries,
                           min_eigenvalue=min_eig, feasible=feasible,
                           singular=abs(min_eig) <= FEASIBILITY_TOL)


@dataclass(frozen=True)
class StateDecomposition:
    """Representation of the M states as weights on independent N(0,1) latents.

    kind selects the construction:

    * ``two-user-common`` (M == 2): shared latent with weight a = sqrt(|rho|)
      (sign-flipped on the second state for rho < 0) plus one private latent
      of weight sqrt(1-|rho|) per state.
    * ``positive-common`` (rho >= 0): one common latent of weight sqrt(rho)
      plus per-state private latents of weight sqrt(1-rho).
    * ``negative-pairwise`` (rho < 0): one latent per unordered state pair,
      entering the two states with opposite signs and weight sqrt(|rho|),
      plus a residual private latent of weight sqrt(1-(M-1)|rho|).  The
      residual weight being real is exactly the feasibility condition
      rho >= -1/(M-1).

    The implied Gram matrix W @ W.T reproduces the state covariance exactly.
    """

    kind: str
    M: int
    rho: float
    coefficients: dict  # latent-component label -> weight magnitude

    def mixing_matrix(self):
        """Weights W (M x K) and latent labels so that S = W @ L, L ~ N(0, I_K)."""
        M, rho = self.M, self.rho
        if self.kind == TWO_USER_COMMON:
            a = self.coefficients["common"]
            b = self.coefficients["private"]
            sgn = 1.0 if rho >= 0 else -1.0
            W = np.array([[a, b, 0.0], [sgn * a, 0.0, b]])
            labels = ["common", "private-1", "private-2"]
        elif self.kind == POSITIVE_COMMON:
            W = np.zeros((M, 1 + M))
            W[:, 0] = self.coefficients["common"]
            W[np.arange(M), 1 + np.arange(M)] = self.coefficients["private"]
            labels = ["common"] + [f"private-{m + 1}" for m in range(M)]
        elif self.kind == NEGATIVE_PAIRWISE:
            pairs = [(i, j) for i in range(M) for j in range(i + 1, M)]
            W = np.zeros((M, len(pairs) + M))
            w = self.coefficients["pairwise"]
            for k, (i, j) in enumerate(pairs):
                W[i, k] = w
                W[j, k] = -w
            W[np.arange(M), len(pairs) + np.arange(M)] = self.coefficients["residual"]
            labels = [f"pair-{i + 1}{j + 1}" for i, j in pairs]
            labels += [f"residual-{m + 1}" for m in range(M)]
        else:
            raise ValueError(f"unknown decomposition kind {self.kind!r}")
        return W, labels

    def gram(self):
        """Covariance implied by the weights, W @ W.T."""
        W, _ = self.mixing_matrix()
        return W @ W.T


def decompose_states(params):
    """Decompose the state vector of ``params`` into independent latents.

    M == 2 uses the shared-latent form; larger M uses the common-latent form
    for rho >= 0 and the pairwise form for rho < 0.  Each weight is the root of
    its variance clamped at 0, so a rho within FEASIBILITY_TOL beyond the
    boundary gets the boundary's weights.  Past _MAX_LATENTS latents: InvalidM.
    """
    M, rho, r = params.M, params.rho, abs(params.rho)
    latents = 3 if M == 2 else 1 + M if rho >= 0 else M * (M - 1) // 2 + M
    if latents > _MAX_LATENTS:
        raise InvalidM(f"a state decomposition at M={M}, rho={rho!r} has {latents} "
                       f"latents, more than the limit {_MAX_LATENTS}")
    kind, variances = (
        (TWO_USER_COMMON, {"common": r, "private": 1.0 - r}) if M == 2 else
        (POSITIVE_COMMON, {"common": rho, "private": 1.0 - rho}) if rho >= 0 else
        (NEGATIVE_PAIRWISE, {"pairwise": r, "residual": 1.0 - (M - 1) * r}))
    return StateDecomposition(kind=kind, M=M, rho=rho, coefficients={
        k: np.sqrt(max(v, 0.0)) for k, v in variances.items()})


def check_samples(n, seed, least=1, name="n"):
    """Raise CcdpError unless the sample count n (called ``name``) and the seed
    are integers, Python or numpy ones but not bools, and n >= least.  A float
    would fail later, in range() or in ``seed & _U64``."""
    for label, value in ((name, n), ("seed", seed)):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise CcdpError(f"{label} must be an integer, got {value!r}")
    if n < least:
        raise CcdpError(f"{name} must be >= {least}, got {n}")


def block_generator(seed, block):
    """SFC64 generator for block ``block`` of the stream ``seed``: child
    ``block`` of ``SeedSequence(seed & _U64)``'s spawn tree.

    The block is the spawn key, not a second entropy word: SeedSequence splits
    each entropy integer into 32-bit words and zero-pads the pool, so entropy
    [seed, block] would give (5, 3) and (3 * 2**32 + 5, 0) one stream.
    """
    sequence = np.random.SeedSequence(seed & _U64, spawn_key=(block,))
    return np.random.Generator(np.random.SFC64(sequence))


def normal_blocks(n, width, seed, first=0):
    """Yield (row_offset, rows) of standard-normal draws from block ``first``
    up to row n, in pieces of at most DRAW_ROWS rows.

    Block b is drawn from the independent stream (seed, b), continued from
    piece to piece, so the rows are fixed by (n, width, seed) alone.
    """
    for b in range(first, -(-n // SAMPLE_BLOCK)):
        stream, end = block_generator(seed, b), min(n, (b + 1) * SAMPLE_BLOCK)
        for row in range(b * SAMPLE_BLOCK, end, DRAW_ROWS):
            yield row, stream.standard_normal((min(DRAW_ROWS, end - row), width))


def sample_states(decomp, n, seed):
    """Draw n i.i.d. state rows (n x M) from the decomposition.

    Deterministic for a fixed seed; the empirical covariance converges to the
    equicorrelation matrix as n grows.
    """
    check_samples(n, seed)
    W, _ = decomp.mixing_matrix()
    out = np.empty((n, decomp.M))
    for row, rows in normal_blocks(n, W.shape[1], seed):
        out[row:row + rows.shape[0]] = rows @ W.T
    return out
