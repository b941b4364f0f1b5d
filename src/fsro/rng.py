"""Deterministic random stream shared by every stochastic component.

The generator is xoshiro256** (Blackman & Vigna, public domain) seeded through
SplitMix64, implemented directly on 64-bit integer arithmetic so that a given
seed produces the same draw sequence on every platform and Python build.
State-of-the-art statistical quality is not the point here; replayability is.

A stream is single-consumer: one run owns one stream and consumes it in a
fixed, documented order. Parallelism happens across runs with distinct seeds.

Block draws. `raws(n)` returns exactly the next n `next_raw()` outputs, as a
uint64 array, and leaves the state where n scalar calls would. It is exact
for three reasons:

- The state update (xors, a shift and a rotation of the four words) is
  linear over GF(2), so advancing the state by m steps is one fixed 256x256
  bit matrix, T^m (Haramoto et al., 2008, give jump-ahead this way for any
  F2-linear generator). Row i of T^m is the state that unit state e_i
  reaches after m steps; stepping the 256 unit states once gives T, and
  squaring gives T^(2^k). Each power is computed on first use and cached,
  so no table is committed.
- `raws(n)` places L lanes at states s, s+B, ..., s+(L-1)B, with B a power
  of two near sqrt(n), and steps all lanes together B times in numpy. Read
  lane by lane, their outputs are the stream in order.
- numpy's uint64 multiply and shifts wrap mod 2^64, as the scalar code's
  `& MASK64` does, so the output scrambler matches bit for bit.

A uniform from a raw is `(raw >> 11) * 2**-53`, as `uniform()`, and a bit is
`raw & 1`, since `bit()` is `index(2)`, whose rejection limit is 2^64 and so
never rejects. Callers that batch a draw order with conditional draws in it
draw a block speculatively, and on a conditional draw they rewind: `setstate`
to the block's start, then draw the kept part again, which leaves the stream
just before the conditional draw.
"""

from __future__ import annotations

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF

_DOUBLE_SCALE = 1.0 / (1 << 53)

# Blocks shorter than this come from a Python loop of next_raw. Once the
# jump matrices exist a block breaks even near 300 draws (2-vCPU x86_64
# VM), but the first block in a process builds them, about 10 ms and a
# GEMM buffer; at this size a run on a few features never pays that.
BLOCK_MIN = 2048

# _POWERS[k] holds T^(2^k) as 256 packed rows: the state each unit state
# e_i reaches after 2^k steps. A cache of constants, the same for every
# stream in the process.
_POWERS: list[np.ndarray] = []


def _splitmix64(x: int) -> tuple[int, int]:
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return x, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & MASK64


def _step_lanes(state: np.ndarray, steps: int, s1_history: np.ndarray | None = None) -> None:
    """Advance every lane of a (4, L) uint64 state in place, recording each
    step's s1 (the scrambler's input) in s1_history[k] when one is given."""
    s0, s1, s2, s3 = state
    t = np.empty_like(s1)
    for k in range(steps):
        if s1_history is not None:
            s1_history[k] = s1
        np.left_shift(s1, 17, out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.left_shift(s3, 45, out=t)
        s3 >>= 19
        s3 |= t


def _scramble(x: np.ndarray) -> np.ndarray:
    """The ** output function, rotl(s1 * 5, 7) * 9, elementwise mod 2^64,
    in place on an array of s1 values."""
    x *= np.uint64(5)
    t = x >> np.uint64(57)
    x <<= np.uint64(7)
    x |= t
    x *= np.uint64(9)
    return x


def _apply(k: int, states: np.ndarray) -> np.ndarray:
    """T^(2^k) applied to each row of a (K, 4) uint64 array of states.

    The image of a state is the xor of the matrix rows at its set bits,
    computed as a 0/1 float32 product taken mod 2; the sums stay at or
    under 256, so every one is exact.
    """
    while len(_POWERS) <= k:
        if _POWERS:
            _POWERS.append(_apply(len(_POWERS) - 1, _POWERS[-1]))
        else:
            unit = np.packbits(np.eye(256, dtype=np.uint8), axis=1, bitorder="little")
            lanes = np.ascontiguousarray(unit.view(np.uint64).T)
            _step_lanes(lanes, 1)
            _POWERS.append(np.ascontiguousarray(lanes.T))
    matrix = np.unpackbits(_POWERS[k].view(np.uint8), axis=1,
                           bitorder="little").astype(np.float32)
    images = np.empty_like(states)
    for i in range(0, len(states), 64):  # 64 rows at a time bounds the temporaries
        bits = np.unpackbits(states[i:i + 64].view(np.uint8), axis=1, bitorder="little")
        image = (bits.astype(np.float32) @ matrix).astype(np.uint8) & 1
        images[i:i + 64] = np.packbits(image, axis=1, bitorder="little").view(np.uint64)
    return images


class RngStream:
    """xoshiro256** stream with uniform/index/shuffle draws."""

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int):
        if not 0 <= seed <= MASK64:
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
        sm, self._s0 = _splitmix64(seed)
        sm, self._s1 = _splitmix64(sm)
        sm, self._s2 = _splitmix64(sm)
        sm, self._s3 = _splitmix64(sm)

    def next_raw(self) -> int:
        """Next raw 64-bit output."""
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        result = (_rotl((s1 * 5) & MASK64, 7) * 9) & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def getstate(self) -> tuple[int, int, int, int]:
        return self._s0, self._s1, self._s2, self._s3

    def setstate(self, state: tuple[int, int, int, int]) -> None:
        # plain ints keep next_raw on Python's unbounded integer arithmetic
        self._s0, self._s1, self._s2, self._s3 = (int(s) for s in state)

    def raws(self, n: int) -> np.ndarray:
        """The next n raw outputs as a uint64 array; the stream ends where n
        next_raw calls leave it."""
        if n < BLOCK_MIN:
            return np.array([self.next_raw() for _ in range(n)], dtype=np.uint64)
        span = 1 << (n.bit_length() // 2)
        # the stream ends r steps into lane q, so lanes 0..q are stepped
        q, r = divmod(n, span)
        starts = np.array([self.getstate()], dtype=np.uint64)
        k = span.bit_length() - 1
        while len(starts) <= q:
            starts = np.concatenate([starts, _apply(k, starts)])
            k += 1
        state = np.ascontiguousarray(starts[:q + 1].T)
        history = np.empty((q + 1, span), dtype=np.uint64)
        _step_lanes(state, r, history.T)
        end = state[:, q].copy()
        _step_lanes(state, span - r, history.T[r:])
        self.setstate(end)
        return _scramble(history.ravel()[:n])

    def uniform(self) -> float:
        """Uniform double in [0, 1), from the top 53 bits of one raw draw."""
        return (self.next_raw() >> 11) * _DOUBLE_SCALE

    def index(self, n: int) -> int:
        """Uniform integer in [0, n). Unbiased via rejection sampling."""
        if n < 1:
            raise ValueError(f"cannot draw an index from an empty range (n={n})")
        # largest multiple of n that fits in 64 bits; draws at or above it
        # would bias the modulo and are rejected
        limit = ((1 << 64) // n) * n
        while True:
            r = self.next_raw()
            if r < limit:
                return r % n

    def bit(self) -> int:
        """Uniform bit, 0 or 1."""
        return self.index(2)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, consuming len(items)-1 index draws."""
        for i in range(len(items) - 1, 0, -1):
            j = self.index(i + 1)
            items[i], items[j] = items[j], items[i]


def uniforms(raws: np.ndarray) -> np.ndarray:
    """The uniform() of each raw draw, as float64: exact, since the top 53
    bits convert without rounding and the scale is a power of two."""
    u = (raws >> np.uint64(11)).astype(np.float64)
    u *= _DOUBLE_SCALE
    return u
