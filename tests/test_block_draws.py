"""Block draws against the scalar stream they replace.

Every batched path must return what its per-draw form in `oracles.py`
returns and leave the stream in the same state. Small dimensions make
all-zero rows, and so repairs and redrawn blocks, frequent. Each case runs
twice: with the default `BLOCK_MIN`, where short blocks fall back to
next_raw, and with it at 0, so even a one-draw block steps numpy lanes.
"""

import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsro import baselines, rng as rng_module
from fsro.baselines import BpsoParams, bpso_step, sigmoid_transfer
from fsro.data import generate_m_of_n
from fsro.engine import _uniform_group, random_masks, uniform_crossover
from fsro.rng import RngStream
from oracles import (
    scalar_bpso_step,
    scalar_m_of_n_bits,
    scalar_random_mask,
    scalar_uniform_crossover,
)

DIMS = [1, 2, 3, 7, 13, 500]
BLOCK_MINS = st.sampled_from([rng_module.BLOCK_MIN, 0])


def streams(seed, offset):
    """Two streams at the same mid-stream state."""
    a, b = RngStream(seed), RngStream(seed)
    for _ in range(offset):
        a.next_raw()
        b.next_raw()
    return a, b


@contextmanager
def block_min(value):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng_module, "BLOCK_MIN", value)
        yield


# --- raws and rewinds -------------------------------------------------------

# n = 0, 1, and B - 1, B, B + 1 for lane spans B = 2, 4, 8, 16 and 256, and
# either side of the default BLOCK_MIN
SIZES = [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 256, 257,
         2047, 2048, 2049, 60_001]


@pytest.mark.parametrize("minimum", [rng_module.BLOCK_MIN, 0])
@pytest.mark.parametrize("n", SIZES)
def test_raws_equal_next_raw_calls(n, minimum, monkeypatch):
    monkeypatch.setattr(rng_module, "BLOCK_MIN", minimum)
    for seed, offset in ((0, 0), (5, 3), (2**40 + 7, 1001)):
        block, scalar = streams(seed, offset)
        got = block.raws(n)
        assert got.dtype == np.uint64
        assert got.tolist() == [scalar.next_raw() for _ in range(n)]
        assert block.getstate() == scalar.getstate()
        # the state stays in Python ints, so next_raw never meets numpy scalars
        assert all(type(s) is int for s in block.getstate())
        assert block.next_raw() == scalar.next_raw()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), offset=st.integers(0, 300),
       n=st.integers(0, 5000), minimum=BLOCK_MINS)
def test_raws_match_scalar_stream_anywhere(seed, offset, n, minimum):
    with block_min(minimum):
        block, scalar = streams(seed, offset)
        assert block.raws(n).tolist() == [scalar.next_raw() for _ in range(n)]
        assert block.getstate() == scalar.getstate()


def test_rewind_below_block_min_builds_no_jump_tables(monkeypatch):
    """A speculative block rewinds by drawing its kept rows again, so a run
    whose blocks all stay under BLOCK_MIN never builds the jump tables."""
    monkeypatch.setattr(rng_module, "_POWERS", [])
    block, scalar = streams(3, 0)
    got = random_masks(40, 2, block)
    want = [scalar_random_mask(2, scalar) for _ in range(40)]
    assert got.tolist() == [m.tolist() for m in want]
    # the oracle drew past the 80 bits, so some row was repaired
    unrepaired, _ = streams(3, 80)
    assert unrepaired.getstate() != scalar.getstate()
    assert block.getstate() == scalar.getstate()
    assert rng_module._POWERS == []


def test_uniforms_and_bits_of_raws():
    block, scalar = streams(9, 0)
    raws = block.raws(200)
    assert rng_module.uniforms(raws[:100]).tolist() == [scalar.uniform() for _ in range(100)]
    assert (raws[100:] & 1).tolist() == [scalar.bit() for _ in range(100)]


# --- optimizer call sites ---------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), offset=st.integers(0, 50),
       dim=st.sampled_from(DIMS), count=st.integers(1, 40), minimum=BLOCK_MINS)
def test_random_masks_match_per_bit_masks(seed, offset, dim, count, minimum):
    with block_min(minimum):
        block, scalar = streams(seed, offset)
        got = random_masks(count, dim, block)
        want = [scalar_random_mask(dim, scalar) for _ in range(count)]
        assert got.tolist() == [m.tolist() for m in want]
        assert got.dtype == np.uint8 and got.shape == (count, dim)
        assert block.getstate() == scalar.getstate()


def parent_masks(seed, count, dim):
    """Parents with few set bits, so children often come out all-zero."""
    gen = np.random.default_rng(seed)
    return [(gen.random(dim) < 0.2).astype(np.uint8) for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), offset=st.integers(0, 50),
       dim=st.sampled_from(DIMS), count=st.integers(1, 25), minimum=BLOCK_MINS)
def test_uniform_group_matches_per_agent_crossovers(seed, offset, dim, count, minimum):
    parents = parent_masks(seed, count, dim)
    partner = np.random.default_rng(seed + 1).integers(0, count, size=count).tolist()
    with block_min(minimum):
        block, scalar = streams(seed, offset)
        children, masks, changed = _uniform_group(np.array(parents), partner, block)
        # per row in group order: crossover with the partner's parent
        # solution, then the repair of an all-zero child
        for i, mate in enumerate(partner):
            child, mask, moved = scalar_uniform_crossover(parents[i], parents[mate], scalar)
            if not child.any():
                child[scalar.index(dim)] = 1
            assert children[i].tolist() == child.tolist()
            assert masks[i].tolist() == mask.tolist()
            assert changed[i].tolist() == moved.tolist()
        assert block.getstate() == scalar.getstate()


@pytest.mark.parametrize("minimum", [rng_module.BLOCK_MIN, 0])
@pytest.mark.parametrize("dim", DIMS)
def test_uniform_crossover_matches_per_bit_loop(dim, minimum, monkeypatch):
    monkeypatch.setattr(rng_module, "BLOCK_MIN", minimum)
    a, b = parent_masks(dim, 2, dim)
    block, scalar = streams(dim, 11)
    for _ in range(5):
        got = uniform_crossover(a, b, block)
        want = scalar_uniform_crossover(a, b, scalar)
        assert [x.tolist() for x in got] == [x.tolist() for x in want]
    assert block.getstate() == scalar.getstate()


def swarm(seed, count, dim, clamp):
    gen = np.random.default_rng(seed)
    positions = [(gen.random(dim) < 0.3).astype(np.uint8) for _ in range(count)]
    velocities = [gen.uniform(-clamp, clamp, dim) for _ in range(count)]
    pbest = [(gen.random(dim) < 0.3).astype(np.uint8) for _ in range(count)]
    pbest_fit = gen.random(count).tolist()
    gbest = pbest[int(np.argmin(pbest_fit))].copy()
    return positions, velocities, pbest, pbest_fit, gbest, min(pbest_fit)


def ones_fraction(masks):
    return [float(m.sum()) / m.size for m in masks]


def run_both_sweeps(seed, offset, dim, count, params):
    """(batched, scalar) results of one sweep from the same swarm and state:
    the six swarm values as Python lists and floats, then the stream state.
    bpso_step returns its swarm as arrays; scalar_bpso_step updates its lists
    in place and returns the global best."""
    results = []
    for batched in (True, False):
        lists = swarm(seed, count, dim, baselines.VELOCITY_CLAMP)
        stream, _ = streams(seed, offset)
        if batched:
            after = bpso_step(*map(np.array, lists[:4]), *lists[4:],
                              params, ones_fraction, stream)
        else:
            after = (*lists[:4], *scalar_bpso_step(*lists, params, ones_fraction, stream))
        results.append((*(np.asarray(value).tolist() for value in after), stream.getstate()))
    return results


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), offset=st.integers(0, 50),
       dim=st.sampled_from(DIMS[:-1]), count=st.integers(1, 40),
       w=st.floats(0.0, 1.5), c=st.floats(0.0, 3.0), clamp=st.floats(0.5, 8.0),
       minimum=BLOCK_MINS)
def test_bpso_step_matches_scalar_sweep(seed, offset, dim, count, w, c, clamp, minimum):
    params = BpsoParams(inertia_weight=w, cognitive_factor=c, social_factor=3.0 - c,
                        population_size=count)
    with block_min(minimum), mock.patch.object(baselines, "VELOCITY_CLAMP", clamp):
        batched, scalar = run_both_sweeps(seed, offset, dim, count, params)
    assert batched == scalar


@pytest.mark.parametrize("seed", [0, 1])
def test_bpso_step_matches_scalar_sweep_at_500_features(seed):
    params = BpsoParams(population_size=40)
    batched, scalar = run_both_sweeps(seed, 7, 500, 40, params)
    assert batched == scalar


def test_bpso_sigmoid_screen_agrees_with_math_exp_everywhere(monkeypatch):
    """With the band at infinity every sampling bit goes through math.exp."""
    params = BpsoParams(population_size=30)
    default = [run_both_sweeps(seed, 3, dim, 30, params)[0] for seed, dim in
               ((0, 13), (1, 500), (2, 2))]
    monkeypatch.setattr(baselines, "SIGMOID_BAND", math.inf)
    forced = [run_both_sweeps(seed, 3, dim, 30, params)[0] for seed, dim in
              ((0, 13), (1, 500), (2, 2))]
    assert forced == default


def test_sample_bits_decides_near_ties_with_math_exp():
    # thresholds exactly at, and one ulp either side of, math.exp's sigmoid
    v = np.linspace(-6.0, 6.0, 4001)
    p = np.array([sigmoid_transfer(x) for x in v])
    for u in (p, np.nextafter(p, 0.0), np.nextafter(p, 1.0)):
        want = [1 if ui < sigmoid_transfer(vi) else 0 for ui, vi in zip(u, v)]
        assert baselines._sample_bits(v, u).tolist() == want


def test_sample_bits_overflow_fails_as_math_exp_does():
    with pytest.raises(OverflowError):
        baselines._sample_bits(np.array([0.0, -800.0]), np.array([0.5, 0.0]))


# --- data -------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(2, 1, 2, 40), (6, 3, 7, 1000), (3, 2, 70, 120)])
def test_m_of_n_table_is_the_per_bit_table(shape):
    n_relevant, m, n_noise, n_instances = shape
    ds = generate_m_of_n(n_relevant, m, n_noise, n_instances, RngStream(17))
    scalar = RngStream(17)
    bits = scalar_m_of_n_bits(n_instances, n_relevant + n_noise, scalar)
    assert np.array_equal(ds.features, bits)
    assert ds.labels.tolist() == [int(row[:n_relevant].sum() >= m) for row in bits]
