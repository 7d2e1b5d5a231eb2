"""Client random streams seeded in bulk, bit for bit as numpy seeds them.

``np.random.default_rng(key)`` for a sequence of nonnegative ints builds
a ``SeedSequence(key)`` (pool size 4), draws four 64-bit words from it
with ``generate_state`` and seeds ``PCG64`` with them. This module does
the same arithmetic with uint32 numpy operations over the rows of a
matrix of entropy words, one row per key, so that thousands of client
streams cost a few array passes instead of thousands of constructions.
The constants are those of numpy's ``bit_generator.pyx`` and ``pcg64.h``;
``fedsim selftest`` checks the result against ``default_rng``.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

M32 = 0xFFFFFFFF
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875   # SeedSequence: mixing the entropy
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED   # SeedSequence: generate_state
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
POOL = 4
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645   # PCG64's 128-bit LCG multiplier


def int_words(n: int) -> list[int]:
    """A nonnegative int as numpy coerces it into entropy: 32-bit words,
    least significant first, and ``[0]`` for 0."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & M32]
    while n := n >> 32:
        words.append(n & M32)
    return words


def _pool(words: np.ndarray) -> list[np.ndarray]:
    """SeedSequence's mixed pool of 4 words for each row of ``words`` (P, L)."""
    h = INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = h * MULT_A & M32
        value *= h
        return value ^ value >> 16

    def mix(x, y):
        r = x * MIX_MULT_L - y * MIX_MULT_R
        return r ^ r >> 16

    zero = np.zeros(len(words), np.uint32)
    pool = [hashmix(words[:, i] if i < words.shape[1] else zero) for i in range(POOL)]
    for src in range(POOL):
        for dst in range(POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(POOL, words.shape[1]):
        for dst in range(POOL):
            pool[dst] = mix(pool[dst], hashmix(words[:, src]))
    return pool


def _limbs(n: int) -> list[int]:
    """A 128-bit int as four 32-bit limbs, least significant first."""
    return [n >> 32 * i & M32 for i in range(4)]


def _mul_add(a: list[np.ndarray], m: list[int], b: list[np.ndarray]) -> list[np.ndarray]:
    """a·m + b mod 2^128, each as four 32-bit limbs, least significant
    first (uint64 arrays holding values below 2^32; ``m`` scalars)."""
    cols = [b[k].copy() for k in range(4)]
    for i in range(4):
        for j in range(4 - i):
            p = a[i] * m[j]
            cols[i + j] += p & M32
            if i + j < 3:
                cols[i + j + 1] += p >> 32
    carry = 0
    for k in range(4):
        cols[k] += carry
        carry = cols[k] >> 32
        cols[k] &= M32
    return cols


def _join(limbs: list[np.ndarray]) -> list[int]:
    """Four 32-bit limbs, least significant first, as Python ints."""
    lo = (limbs[0] | limbs[1] << 32).tolist()
    hi = (limbs[2] | limbs[3] << 32).tolist()
    return [h << 64 | l for h, l in zip(hi, lo)]


def pcg64_states(words: np.ndarray) -> list[dict]:
    """The ``bit_generator.state`` that ``np.random.default_rng`` gives
    the entropy of each row of ``words`` (P, L), uint32, in one pass."""
    pool = _pool(words)
    # generate_state(4, uint64): eight words from the cycled pool
    h, out = INIT_B, []
    for i in range(8):
        v = pool[i % POOL] ^ h
        h = h * MULT_B & M32
        v *= h
        out.append((v ^ v >> 16).astype(np.uint64))
    # words 0-3 are the initial state, 4-7 the sequence, each as two
    # little-endian uint64s, the high one first: limbs (2, 3, 0, 1)
    init = [out[2], out[3], out[0], out[1]]
    seq = [out[6], out[7], out[4], out[5]]
    inc = [(seq[0] << 1 | 1) & M32] + [(seq[k] << 1 | seq[k - 1] >> 31) & M32
                                         for k in range(1, 4)]
    # PCG64's seeding takes two LCG steps from 0 and adds the initial
    # state in between: state = (inc + init)·M + inc mod 2^128
    state = _mul_add(_mul_add(init, [1, 0, 0, 0], inc), _limbs(PCG_MULT), inc)
    return [{"bit_generator": "PCG64", "state": {"state": s, "inc": c},
             "has_uint32": 0, "uinteger": 0} for s, c in zip(_join(state), _join(inc))]


def client_states(seed: int, rounds, ids) -> list[list[dict]]:
    """For each round ``t`` of ``rounds`` and the matching list of client
    ids (each below 2^32) in ``ids``, the states of
    ``np.random.default_rng([seed, 2, t, cid])``, one per id. Rounds whose
    entropy has the same number of words are hashed in one pass."""
    head = int_words(seed) + [2]
    passes: dict[int, list[int]] = {}
    for r, t in enumerate(rounds):
        passes.setdefault(len(int_words(t)), []).append(r)
    out = [None] * len(ids)
    for width, at in passes.items():
        counts = [len(ids[r]) for r in at]
        rows = np.empty((sum(counts), len(head) + width + 1), dtype=np.uint32)
        rows[:, :len(head)] = head
        rows[:, len(head):-1] = np.repeat(
            np.array([int_words(rounds[r]) for r in at], dtype=np.uint32), counts, axis=0)
        rows[:, -1] = [cid for r in at for cid in ids[r]]
        states = iter(pcg64_states(rows))
        for r, count in zip(at, counts):
            out[r] = list(islice(states, count))
    return out
