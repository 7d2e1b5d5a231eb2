"""Client random streams seeded in bulk, bit for bit as numpy seeds them.

``np.random.default_rng(key)`` for a sequence of nonnegative ints builds
a ``SeedSequence(key)`` (pool size 4), draws four 64-bit words from it
with ``generate_state`` and seeds ``PCG64`` with them. This module does
the SeedSequence hash with uint32 numpy operations over the rows of a
matrix of entropy words, one row per key, and PCG64's 128-bit seeding
step in Python integers, which are exact, so that thousands of client
streams cost a few array passes and a few integer operations per stream
instead of thousands of constructions.
The constants are those of numpy's ``bit_generator.pyx`` and ``pcg64.h``;
``fedsim selftest`` checks the result against ``default_rng``.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

M32 = 0xFFFFFFFF
M128 = (1 << 128) - 1
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


def pcg64_states(words: np.ndarray) -> list[dict]:
    """The ``bit_generator.state`` that ``np.random.default_rng`` gives
    the entropy of each row of ``words`` (P, L), uint32, in one pass."""
    pool = _pool(words)
    # generate_state(4, uint64): eight words from the cycled pool, paired
    # little-endian into the uint64s init_hi, init_lo, seq_hi, seq_lo
    h, out = INIT_B, []
    for i in range(8):
        v = pool[i % POOL] ^ h
        h = h * MULT_B & M32
        v *= h
        out.append((v ^ v >> 16).astype(np.uint64))
    u64 = [(out[i] | out[i + 1] << 32).tolist() for i in range(0, 8, 2)]
    states = []
    for init_hi, init_lo, seq_hi, seq_lo in zip(*u64):
        # PCG64's seeding takes two LCG steps from 0 and adds the initial
        # state in between: state = (inc + init)·M + inc mod 2^128
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & M128
        state = ((inc + (init_hi << 64 | init_lo)) * PCG_MULT + inc) & M128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


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
