"""Core model: parameter validation, covariance structure, decompositions,
seeded sampling."""

import pickle
import re
from dataclasses import FrozenInstanceError, asdict, astuple, fields, replace
from enum import IntEnum
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import ccdp
from ccdp import (
    ChannelParams,
    InfeasibleRho,
    InvalidGain,
    InvalidM,
    InvalidPower,
    InvalidSplit,
    PowerSplit,
    SimulationConfig,
    SweepGrid,
    awgn_capacity,
    ccdp_m_inner_raw,
    decompose_states,
    delta_conditional_variances,
    sample_states,
    state_covariance,
)
from ccdp.model import (
    _MAX_LATENTS,
    DRAW_ROWS,
    FEASIBILITY_TOL,
    NEGATIVE_PAIRWISE,
    POSITIVE_COMMON,
    SAMPLE_BLOCK,
    block_generator,
    normal_blocks,
)


# ---------------------------------------------------------------------------
# ChannelParams validation.
# ---------------------------------------------------------------------------

def test_valid_interior_point():
    p = ChannelParams(2, 10.0, 2.0, 0.0)
    assert p.c2 == 4.0
    assert p.rho_bar_plus == 1.0


def test_infeasible_rho_rejected():
    # eigenvalue 1+(M-1)rho = -0.2 < 0, confirmed by the eigen oracle below
    with pytest.raises(InfeasibleRho):
        ChannelParams(3, 10.0, 2.0, -0.6)
    assert np.linalg.eigvalsh(state_covariance(3, -0.6).entries).min() < 0


def test_boundary_rho_accepted_singular():
    p = ChannelParams(4, 5.0, 1.0, -1.0 / 3.0)
    cov = state_covariance(p.M, p.rho)
    assert cov.feasible and cov.singular


@pytest.mark.parametrize("args,exc", [
    ((1, 10.0, 2.0, 0.0), InvalidM),
    ((2, 0.0, 2.0, 0.0), InvalidPower),
    ((2, -1.0, 2.0, 0.0), InvalidPower),
    ((2, 10.0, -0.5, 0.0), InvalidGain),
    ((2, 10.0, 2.0, 1.5), InfeasibleRho),
    ((5, 10.0, 2.0, -0.3), InfeasibleRho),
    ((2 ** 53 + 1, 10.0, 2.0, 0.0), InvalidM),
    ((10 ** 400, 10.0, 2.0, 0.0), InvalidM),
    ((2, np.nextafter(1e280, np.inf), 2.0, 0.0), InvalidPower),
    ((2, 10.0, np.nextafter(1e140, np.inf), 0.0), InvalidGain),
])
def test_rejections(args, exc):
    with pytest.raises(exc):
        ChannelParams(*args)
    if exc is InvalidPower:  # the state-free bound checks P as ChannelParams does
        with pytest.raises(InvalidPower):
            awgn_capacity(args[1])


def test_ceilings_accepted():
    # the largest M, P and c: every bound stays finite up to them
    p = ChannelParams(2 ** 53, 1e280, 1e140, 1.0)
    assert (p.M, p.P, p.c, p.c2) == (2 ** 53, 1e280, 1e140, 1e140 * 1e140)
    assert awgn_capacity(1e280).value == pytest.approx(0.5 * np.log2(1e280))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field,exc", [
    ("P", InvalidPower), ("c", InvalidGain), ("rho", InfeasibleRho),
])
def test_non_finite_fields_rejected(field, exc, value):
    args = {"M": 2, "P": 10.0, "c": 2.0, "rho": 0.0, field: value}
    with pytest.raises(exc):
        ChannelParams(**args)
    if field == "P":
        with pytest.raises(InvalidPower):
            awgn_capacity(value)


def test_rho_bar_plus():
    assert ChannelParams(2, 1.0, 1.0, 0.75).rho_bar_plus == 0.25
    assert ChannelParams(2, 1.0, 1.0, -0.5).rho_bar_plus == 1.0
    assert ChannelParams(2, 1.0, 1.0, -0.0).rho_bar_plus.hex() == (1.0).hex()


@pytest.mark.parametrize("args,exc,message", [
    ((1, 10.0, 2.0), InvalidM, "M must be an integer in [2, 2**53], got 1"),
    ((True, 10.0, 2.0), InvalidM, "M must be an integer in [2, 2**53], got True"),
    ((2.0, 10.0, 2.0), InvalidM, "M must be an integer in [2, 2**53], got 2.0"),
    ((2, 0.0, 2.0), InvalidPower, "P must be in (0, 1e+280], got 0.0"),
    ((2, 10.0, -0.5), InvalidGain, "c must be in [0, 1e+140], got -0.5"),
    ((3, 10.0, 2.0, 5.0), InfeasibleRho, "rho=5.0 outside [-0.5, 1.0] for M=3"),
    ((np.int64(4), 10.0, 2.0, -0.5), InfeasibleRho,
     "rho=-0.5 outside [-0.3333333333333333, 1.0] for M=4"),
    # an M that is not exactly an int is judged, and shown, as given: before int(M)
    ((np.int64(1), 10.0, 2.0), InvalidM,
     "M must be an integer in [2, 2**53], got np.int64(1)"),
    ((np.uint64(2 ** 60), 10.0, 2.0), InvalidM,
     "M must be an integer in [2, 2**53], got np.uint64(1152921504606846976)"),
    ((np.True_, 10.0, 2.0), InvalidM, "M must be an integer in [2, 2**53], got np.True_"),
])
def test_rejection_messages(args, exc, message):
    with pytest.raises(exc) as info:
        ChannelParams(*args)
    assert str(info.value) == message


class Receivers(IntEnum):
    THREE = 3


class Count(int):
    pass


@pytest.mark.parametrize("M, value", [
    (Receivers.THREE, 3), (Count(5), 5), (np.uint8(200), 200), (np.int64(2 ** 53), 2 ** 53),
])
def test_int_subclasses_and_numpy_integers_are_stored_as_int(M, value):
    p = ChannelParams(M, 10.0, 2.0, 0.25)
    assert type(p.M) is int and p.M == value
    assert p == ChannelParams(value, 10.0, 2.0, 0.25)
    assert repr(p) == f"ChannelParams(M={value}, P=10.0, c=2.0, rho=0.25)"


# ---------------------------------------------------------------------------
# One owner per input rule: ChannelParams checks M, P, c and rho, PowerSplit
# checks alpha_bar, and every other entry point checks through them.
# ---------------------------------------------------------------------------

P3 = ChannelParams(3, 10.0, 2.0)
M_MESSAGE = "M must be an integer in [2, 2**53], got {}"
RHO_MESSAGE = "rho=5.0 outside [-0.5, 1.0] for M=3"
SPLIT_MESSAGE = "alpha_bar must be in [0, 1], got 1.5"
OWNED_CHECKS = [
    (lambda M: ChannelParams(M, 10.0, 2.0), InvalidM, M_MESSAGE),
    (lambda M: state_covariance(M, 0.0), InvalidM, M_MESSAGE),
    (lambda M: delta_conditional_variances(M, 0.0), InvalidM, M_MESSAGE),
    (lambda P: ChannelParams(2, P, 2.0), InvalidPower, "P must be in (0, 1e+280], got {}"),
    (awgn_capacity, InvalidPower, "P must be in (0, 1e+280], got {}"),
    (lambda rho: ChannelParams(3, 10.0, 2.0, rho), InfeasibleRho, RHO_MESSAGE),
    (lambda rho: delta_conditional_variances(3, rho), InfeasibleRho, RHO_MESSAGE),
    (lambda rho: decompose_states(ChannelParams(3, 1.0, 1.0, rho)), InfeasibleRho,
     RHO_MESSAGE),
    (PowerSplit, InvalidSplit, SPLIT_MESSAGE),
    (lambda ab: ccdp_m_inner_raw(P3, ab), InvalidSplit, SPLIT_MESSAGE),
    (lambda ab: SimulationConfig(P3, alpha_bar=ab), InvalidSplit, SPLIT_MESSAGE),
]
BAD_VALUES = {InvalidM: (1, True, 2.0, 2 ** 53 + 1), InvalidPower: (0.0, 1e281, float("nan")),
              InfeasibleRho: (5.0,), InvalidSplit: (1.5,)}


@pytest.mark.parametrize("call,exc,message", OWNED_CHECKS)
def test_every_entry_point_checks_through_the_owning_type(call, exc, message):
    for value in BAD_VALUES[exc]:
        with pytest.raises(exc) as info:
            call(value)
        assert str(info.value) == message.format(repr(value))


def test_the_bounds_of_the_domain_are_written_in_model_only():
    # the ceilings and the feasibility tolerance: other modules check through
    # ChannelParams and model's helpers, never against the constants
    for path in Path(ccdp.__file__).parent.glob("*.py"):
        if path.name != "model.py":
            text = path.read_text(encoding="utf-8")
            for name in ("_MAX_M", "_MAX_P", "_MAX_C", "FEASIBILITY_TOL"):
                assert not re.search(rf"\b{name}\b", text), (path.name, name)


# rho within FEASIBILITY_TOL of an eigenvalue bound: accepted everywhere, and
# the decomposition gets the boundary's weights without a warning.
INSIDE_BAND = [(2, 1.0 + 0.5e-12), (2, -1.0 - 0.5e-12), (3, 1.0 + 0.5e-12),
               (3, -0.5 - 0.4e-12), (2 ** 40, 1.0 + 0.5e-12), (2 ** 40, -1.0 / (2 ** 40 - 1))]
# Past it: the smallest eigenvalue is below -FEASIBILITY_TOL (at M = 2**40,
# rho = -1e-12 gives -0.0995), so every entry point refuses it.
OUTSIDE_BAND = [(2, 1.0 + 2e-12), (2, -1.0 - 2e-12), (3, 1.0 + 2e-12),
                (3, -0.5000000000009), (2 ** 40, -1e-12), (2 ** 40, 1.0 + 2e-12)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("M,rho", INSIDE_BAND)
def test_rho_inside_the_tolerance_band_is_accepted_everywhere(M, rho):
    p = ChannelParams(M, 1.0, 1.0, rho)
    assert SweepGrid((M,), (10.0,), (4.0,), (rho,)).rho_axis(M) == (rho,)
    if M <= 3:
        cov = state_covariance(M, rho)
        assert cov.feasible and cov.min_eigenvalue >= -FEASIBILITY_TOL
        assert np.max(np.abs(decompose_states(p).gram() - cov.entries)) < 1e-11
        assert np.all(np.isfinite(delta_conditional_variances(M, rho)))


@pytest.mark.parametrize("M,rho", OUTSIDE_BAND)
def test_rho_past_the_tolerance_band_is_infeasible_everywhere(M, rho):
    with pytest.raises(InfeasibleRho, match=rf"^rho={re.escape(repr(rho))} outside"):
        ChannelParams(M, 1.0, 1.0, rho)
    with pytest.raises(InfeasibleRho):
        delta_conditional_variances(M, rho)
    assert SweepGrid((M,), (10.0,), (4.0,), (rho,)).rho_axis(M) == ()
    if M <= 3:
        assert not state_covariance(M, rho).feasible


@pytest.mark.parametrize("M", [2, 3, 5, 8])
def test_one_feasibility_verdict_near_both_ends(M):
    # ChannelParams, StateCovariance.feasible and the sweep's rho axis agree
    # on every rho within a few tolerances of -1/(M-1) and of 1
    rhos = [end + k * 1e-13 for end in (-1.0 / (M - 1), 1.0) for k in range(-30, 31)]
    kept = set(SweepGrid((M,), (10.0,), (4.0,), tuple(rhos)).rho_axis(M))
    for rho in rhos:
        try:
            ChannelParams(M, 1.0, 1.0, rho)
            accepted = True
        except InfeasibleRho:
            accepted = False
        assert accepted == state_covariance(M, rho).feasible == (rho in kept), rho


# ---------------------------------------------------------------------------
# ChannelParams as a record: a frozen dataclass of the fields M, P, c, rho;
# c2 and rho_bar_plus are attributes computed at construction, not fields.
# ---------------------------------------------------------------------------

def test_params_attributes_are_frozen():
    p = ChannelParams(3, 10.0, 2.0, 0.25)
    for name in ("M", "P", "c", "rho", "c2", "rho_bar_plus"):
        with pytest.raises(FrozenInstanceError):
            setattr(p, name, 1.0)
        with pytest.raises(FrozenInstanceError):
            delattr(p, name)
    assert (p.c2, p.rho_bar_plus) == (4.0, 0.75)


def test_replace_validates_and_recomputes_the_derived_values():
    p = ChannelParams(3, 10.0, 2.0, 0.25)
    with pytest.raises(InfeasibleRho,
                       match=r"^rho=5\.0 outside \[-0\.5, 1\.0\] for M=3$"):
        replace(p, rho=5.0)
    q = replace(p, c=3.0)
    assert q == ChannelParams(3, 10.0, 3.0, 0.25) and q.c2 == 9.0
    assert replace(p, rho=-0.5).rho_bar_plus == 1.0


def test_record_protocols_see_the_four_fields_only():
    p = ChannelParams(np.int64(3), 10.0, 2.0, 0.25)
    assert type(p.M) is int
    assert [f.name for f in fields(p)] == ["M", "P", "c", "rho"]
    assert repr(p) == "ChannelParams(M=3, P=10.0, c=2.0, rho=0.25)"
    assert asdict(p) == {"M": 3, "P": 10.0, "c": 2.0, "rho": 0.25}
    assert astuple(p) == (3, 10.0, 2.0, 0.25)
    assert p == ChannelParams(3, 10.0, 2.0, 0.25) != ChannelParams(3, 10.0, 2.0, 0.5)
    assert hash(p) == hash((3, 10.0, 2.0, 0.25))
    assert ChannelParams(2, 1.0, 1.0) == ChannelParams(2, 1.0, 1.0, 0.0)
    q = pickle.loads(pickle.dumps(p))
    assert q == p and repr(q) == repr(p) and hash(q) == hash(p)
    assert (q.c2, q.rho_bar_plus) == (p.c2, p.rho_bar_plus)


# pickle.dumps(ChannelParams(3, 10.0, 2.0, 0.25), protocol=4) while c2 and
# rho_bar_plus were properties: the state holds the four fields only
FIELDS_ONLY_PICKLE = (
    b"\x80\x04\x95W\x00\x00\x00\x00\x00\x00\x00\x8c\nccdp.model\x94\x8c\rChannelParams"
    b"\x94\x93\x94)\x81\x94}\x94(\x8c\x01M\x94K\x03\x8c\x01P\x94G@$\x00\x00\x00\x00\x00"
    b"\x00\x8c\x01c\x94G@\x00\x00\x00\x00\x00\x00\x00\x8c\x03rho\x94G?\xd0\x00\x00\x00"
    b"\x00\x00\x00ub.")


def test_pickles_hold_the_fields_and_load_with_the_derived_values():
    p = ChannelParams(3, 10.0, 2.0, 0.25)
    assert pickle.dumps(p, protocol=4) == FIELDS_ONLY_PICKLE
    q = pickle.loads(FIELDS_ONLY_PICKLE)
    assert q == p and (q.c2, q.rho_bar_plus) == (4.0, 0.75)
    bad = FIELDS_ONLY_PICKLE.replace(b"G?\xd0", b"G@\x14")  # rho = 0.25 -> 5.0
    with pytest.raises(InfeasibleRho, match=r"^rho=5\.0 outside"):
        pickle.loads(bad)


@pytest.mark.parametrize("rho", [-0.0, -0.5, 0.3, 1.0])
def test_derived_values_are_their_expressions_bit_for_bit(rho):
    for c in (0.0, 3e-162, 0.1, 2.0, 1e140):
        p = ChannelParams(3, 10.0, c, rho)
        assert p.c2.hex() == (c * c).hex()
        assert p.rho_bar_plus.hex() == (1.0 - max(rho, 0.0)).hex()


# ---------------------------------------------------------------------------
# StateCovariance: entries, spectrum, minors, feasibility.
# ---------------------------------------------------------------------------

def test_identity_case():
    cov = state_covariance(2, 0.0)
    assert np.array_equal(cov.entries, np.eye(2))
    assert cov.min_eigenvalue == 1.0
    assert cov.feasible and not cov.singular


def test_singular_boundary_m3():
    cov = state_covariance(3, -0.5)
    assert cov.feasible and cov.singular
    assert abs(cov.min_eigenvalue) <= 1e-12


def test_leading_minors_against_determinant_oracle():
    cov = state_covariance(5, 0.3)
    for m in range(1, 6):
        brute = np.linalg.det(cov.entries[:m, :m])
        closed = cov.leading_minor(m)
        # same closed form as (0.7)^m * (1 + 0.3*m/0.7)
        alt = 0.7 ** m * (1 + 0.3 * m / 0.7)
        assert abs(closed - brute) < 1e-12
        assert abs(closed - alt) < 1e-12


@settings(max_examples=60, deadline=None)
@given(M=st.integers(2, 12), rho=st.floats(-1.0, 1.0))
def test_spectrum_matches_solver(M, rho):
    cov = state_covariance(M, rho)
    solver = np.linalg.eigvalsh(cov.entries)
    assert np.allclose(np.sort(cov.eigenvalues()), solver, atol=1e-10)
    assert abs(cov.min_eigenvalue - solver.min()) < 1e-10


def test_feasibility_verdicts_agree_on_grid():
    # principal-minor verdict vs eigenvalue verdict, M in 2..16,
    # rho in [-1.2, 1.2] step 0.01, shared tolerance
    tol = 1e-9
    for M in range(2, 17):
        for rho in np.arange(-1.2, 1.2 + 1e-9, 0.01):
            cov = state_covariance(M, float(rho))
            minors_ok = all(cov.leading_minor(m) >= -tol for m in range(1, M + 1))
            eig_ok = np.linalg.eigvalsh(cov.entries).min() >= -tol
            assert minors_ok == eig_ok
            if abs(cov.min_eigenvalue) > tol:  # away from the boundary the
                assert cov.feasible == eig_ok  # reported verdict agrees too


# ---------------------------------------------------------------------------
# Decompositions: kinds, coefficients, exact Gram reconstruction.
# ---------------------------------------------------------------------------

def test_positive_common_weights():
    d = decompose_states(ChannelParams(3, 10.0, 1.0, 0.25))
    assert d.kind == POSITIVE_COMMON
    assert d.coefficients["common"] == pytest.approx(0.5, abs=1e-15)
    assert d.coefficients["private"] == pytest.approx(np.sqrt(0.75), abs=1e-15)


@pytest.mark.parametrize("rho", [-1.0, -0.6, -1e-300, -0.0, 0.0, 0.5, 1.0])
def test_two_states_take_the_general_form_of_their_sign(rho):
    # one latent of weight sqrt(|rho|), sign-flipped on the second state for
    # rho < 0, and one private latent of weight sqrt(1-|rho|) per state
    d = decompose_states(ChannelParams(2, 10.0, 1.0, rho))
    a, b, sgn = np.sqrt(abs(rho)), np.sqrt(1.0 - abs(rho)), 1.0 if rho >= 0 else -1.0
    assert np.array_equal(d.mixing_matrix(), [[a, b, 0.0], [sgn * a, 0.0, b]])
    assert d.kind == (POSITIVE_COMMON if rho >= 0 else NEGATIVE_PAIRWISE)
    assert not np.signbit(list(d.coefficients.values())).any()  # magnitudes, no -0.0


def test_negative_pairwise_boundary_residual_zero():
    d = decompose_states(ChannelParams(3, 10.0, 1.0, -0.5))
    assert d.kind == NEGATIVE_PAIRWISE
    assert d.coefficients["pairwise"] == pytest.approx(np.sqrt(0.5), abs=1e-15)
    assert d.coefficients["residual"] == 0.0


@pytest.mark.parametrize("M,rho", [
    (2, 0.5), (2, -0.8), (2, 1.0), (3, 0.25), (3, -0.5), (4, -1.0 / 3.0),
    (5, 0.3), (6, -0.12), (8, 0.9),
])
def test_gram_reconstruction_numeric(M, rho):
    d = decompose_states(ChannelParams(M, 1.0, 1.0, rho))
    target = state_covariance(M, rho).entries
    assert np.max(np.abs(d.gram() - target)) < 1e-14


@pytest.mark.parametrize("M,kind", [
    (2, POSITIVE_COMMON), (3, POSITIVE_COMMON), (5, POSITIVE_COMMON),
    (2, NEGATIVE_PAIRWISE), (3, NEGATIVE_PAIRWISE), (5, NEGATIVE_PAIRWISE),
])
def test_gram_reconstruction_symbolic(M, kind):
    # exact, not merely numeric: the Gram must simplify to the covariance
    r = sp.symbols("r", positive=True)
    if kind == POSITIVE_COMMON:
        W = sp.zeros(M, 1 + M)
        for m in range(M):
            W[m, 0] = sp.sqrt(r)
            W[m, 1 + m] = sp.sqrt(1 - r)
        rho = r
    else:
        pairs = [(i, j) for i in range(M) for j in range(i + 1, M)]
        W = sp.zeros(M, len(pairs) + M)
        for k, (i, j) in enumerate(pairs):
            W[i, k] = sp.sqrt(r)
            W[j, k] = -sp.sqrt(r)
        for m in range(M):
            W[m, len(pairs) + m] = sp.sqrt(1 - (M - 1) * r)
        rho = -r
    target = sp.Matrix(M, M, lambda i, j: 1 if i == j else rho)
    assert sp.simplify(W * W.T - target) == sp.zeros(M, M)


@pytest.mark.parametrize("rho", [-1e-7, 0.5])
def test_decomposition_refuses_more_latents_than_the_limit(rho):
    # refused before any weight or pair list is built
    with pytest.raises(InvalidM, match=rf"has \d+ latents, more than the limit "
                                       rf"{_MAX_LATENTS}$"):
        decompose_states(ChannelParams(10 ** 6, 1.0, 1.0, rho))


def test_every_m_up_to_16_decomposes_for_any_rho():
    assert decompose_states(ChannelParams(16, 1.0, 1.0, -1.0 / 15)).gram().shape == (16, 16)
    assert decompose_states(ChannelParams(135, 1.0, 1.0, 0.5)).mixing_matrix().shape \
        == (135, 136)
    with pytest.raises(InvalidM, match="M=17, rho=-0.01 has 153 latents, more than"):
        decompose_states(ChannelParams(17, 1.0, 1.0, -0.01))
    with pytest.raises(InvalidM, match="has 137 latents"):
        decompose_states(ChannelParams(136, 1.0, 1.0, 0.5))


# ---------------------------------------------------------------------------
# Sampling: determinism, shape, empirical covariance.
# ---------------------------------------------------------------------------

def test_single_row_finite():
    d = decompose_states(ChannelParams(3, 1.0, 1.0, 0.25))
    rows = sample_states(d, 1, seed=7)
    assert rows.shape == (1, 3) and np.all(np.isfinite(rows))


def test_sampling_bit_reproducible():
    d = decompose_states(ChannelParams(4, 1.0, 1.0, -0.2))
    a = sample_states(d, 200_000, seed=42)
    b = sample_states(d, 200_000, seed=42)
    assert np.array_equal(a, b)
    c = sample_states(d, 200_000, seed=43)
    assert not np.array_equal(a, c)


def test_blocks_are_independent_streams():
    # block content depends only on (seed, block index)
    blocks_a = [blk.copy() for _, blk in normal_blocks(100_000, 3, seed=5)]
    blocks_b = [blk.copy() for _, blk in normal_blocks(100_000, 3, seed=5)]
    for x, y in zip(blocks_a, blocks_b):
        assert np.array_equal(x, y)


# (seed, block) keys that one entropy list [seed, block] would confuse or
# nearly confuse: the high word of a seed against a block, swapped words, and a
# block's high word against no word.
NEAR_KEYS = [((5, 3), ((3 << 32) | 5, 0)), ((0, 1), (1, 0)), ((7, 0), (7, 1 << 32))]


@pytest.mark.parametrize("key, other", NEAR_KEYS)
def test_stream_keys_do_not_collide(key, other):
    assert not np.array_equal(block_generator(*key).standard_normal(8),
                              block_generator(*other).standard_normal(8))


def test_entropy_words_would_collide_where_spawn_keys_do_not():
    # why the block is a spawn key: as entropy, 32-bit words zero-padded
    (seed, block), (other_seed, other_block) = NEAR_KEYS[0]
    state = [np.random.SeedSequence(entropy).generate_state(4)
             for entropy in ([seed, block], [other_seed, other_block],
                             np.array([seed, block], dtype=np.uint64),
                             np.array([other_seed, other_block], dtype=np.uint64))]
    assert np.array_equal(state[0], state[1]) and np.array_equal(state[2], state[3])


@pytest.mark.parametrize("seed, block", [(0, 0), (9, 4), (2**64 - 1, 17)])
def test_a_block_stream_is_a_spawned_child(seed, block):
    child = np.random.SeedSequence(seed).spawn(block + 1)[block]
    assert np.array_equal(block_generator(seed, block).standard_normal(8),
                          np.random.Generator(np.random.SFC64(child)).standard_normal(8))


@pytest.mark.parametrize("seed, low", [(-1, 2**64 - 1), (-5, 2**64 - 5), (2**64 + 3, 3)])
def test_a_seed_is_taken_modulo_2_to_the_64(seed, low):
    assert np.array_equal(block_generator(seed, 2).standard_normal(8),
                          block_generator(low, 2).standard_normal(8))


@pytest.mark.parametrize("seed_step, block_step", [(0, 1), (1, 0)], ids=["block", "seed"])
def test_adjacent_streams_are_uncorrelated(seed_step, block_step):
    # a block's first SAMPLE_BLOCK normals against the next block's, or the
    # next seed's same block: each correlation has sd 1/sqrt(SAMPLE_BLOCK)
    for k in range(8):
        x = block_generator(k, k).standard_normal(SAMPLE_BLOCK)
        y = block_generator(k + seed_step, k + block_step).standard_normal(SAMPLE_BLOCK)
        assert abs(np.corrcoef(x, y)[0, 1]) < 5.0 / np.sqrt(SAMPLE_BLOCK)


def test_pieces_are_the_rows_of_whole_blocks():
    # each block's stream continues from piece to piece: the pieces are the
    # rows of whole blocks drawn at once, and so are the states drawn from them
    n, seed = 2 * SAMPLE_BLOCK + 5_003, 23
    d = decompose_states(ChannelParams(4, 1.0, 1.0, -0.2))
    W = d.mixing_matrix()
    blocks = [block_generator(seed, b).standard_normal((rows, W.shape[1]))
              for b, rows in enumerate((SAMPLE_BLOCK, SAMPLE_BLOCK, n - 2 * SAMPLE_BLOCK))]
    pieces = list(normal_blocks(n, W.shape[1], seed))
    assert [row for row, _ in pieces] == list(range(0, n, DRAW_ROWS))
    assert pieces[-1][1].shape == (n % DRAW_ROWS, W.shape[1])
    assert np.array_equal(np.vstack([rows for _, rows in pieces]), np.vstack(blocks))
    assert np.array_equal(sample_states(d, n, seed), np.vstack([b @ W.T for b in blocks]))


@pytest.mark.parametrize("M,rho", [(2, 0.5), (4, -1.0 / 3.0)])
def test_empirical_covariance_converges(M, rho):
    d = decompose_states(ChannelParams(M, 1.0, 1.0, rho))
    s = sample_states(d, 10**6, seed=11)
    emp = s.T @ s / len(s)
    assert np.max(np.abs(emp - state_covariance(M, rho).entries)) < 0.01


@pytest.mark.parametrize("n,seed", [(0, 1), (2.0, 1), (10, 1.5)])
def test_sample_states_rejects_empty_or_non_integer(n, seed):
    d = decompose_states(ChannelParams(2, 1.0, 1.0, 0.0))
    with pytest.raises(ccdp.CcdpError):
        sample_states(d, n, seed=seed)
