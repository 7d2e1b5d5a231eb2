"""Bulk-seeded client streams against numpy's own default_rng."""

import numpy as np
import pytest

from fedsim.streams import client_states, int_words, pcg64_states

SEEDS = [0, 1, 11, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 5, 2 ** 64 + 3, 10 ** 30]
ROUNDS = [0, 1, 59, 2 ** 32 + 1, 2 ** 70]
CLIENTS = [0, 1, 5, 999, 2 ** 31, 2 ** 32 - 1]


def test_int_words_follow_numpys_coercion():
    assert int_words(0) == [0]
    assert int_words(2 ** 32 - 1) == [2 ** 32 - 1]
    assert int_words(2 ** 32) == [0, 1]
    assert int_words(2 ** 64 + 3) == [3, 0, 1]
    with pytest.raises(ValueError):
        int_words(-1)


@pytest.mark.parametrize("seed", SEEDS)
def test_client_states_equal_default_rng(seed):
    # rounds of one, two and three words are hashed in separate passes
    states = client_states(seed, ROUNDS, [CLIENTS] * len(ROUNDS))
    assert [len(s) for s in states] == [len(CLIENTS)] * len(ROUNDS)
    for t, row in zip(ROUNDS, states):
        for cid, state in zip(CLIENTS, row):
            ref = np.random.default_rng([seed, 2, t, cid])
            assert state == ref.bit_generator.state, (seed, t, cid)
            rng = np.random.Generator(np.random.PCG64(0))
            rng.bit_generator.state = state
            assert rng.permutation(7).tolist() == ref.permutation(7).tolist()


def test_pcg64_states_of_a_word_matrix_equal_default_rng():
    # fewer entropy words than the pool of 4 are padded, more are mixed in
    rng = np.random.default_rng(3)
    for width in (1, 3, 4, 5, 9):
        words = rng.integers(0, 2 ** 32, size=(6, width), dtype=np.uint32)
        for row, state in zip(words, pcg64_states(words)):
            assert state == np.random.default_rng(row).bit_generator.state


def test_rounds_need_not_share_their_client_count():
    states = client_states(11, [4, 5, 6], [[3], [], [0, 1, 2]])
    assert [len(s) for s in states] == [1, 0, 3]
    assert states[2][1] == np.random.default_rng([11, 2, 6, 1]).bit_generator.state


def test_a_client_id_beyond_32_bits_is_refused():
    with pytest.raises(OverflowError):
        client_states(0, [0], [[2 ** 32]])


def test_reseating_drops_a_buffered_32_bit_draw():
    # integers(2**31) draws 32 bits and buffers the other half of its
    # 64-bit draw; the next stream must not start from that half
    state = client_states(7, [3], [[2]])[0][0]
    rng = np.random.Generator(np.random.PCG64(0))
    rng.integers(2 ** 31)
    assert rng.bit_generator.state["has_uint32"] == 1
    rng.bit_generator.state = state
    fresh = np.random.default_rng([7, 2, 3, 2])
    assert rng.integers(2 ** 31, size=5).tolist() == fresh.integers(2 ** 31, size=5).tolist()
    assert rng.permutation(9).tolist() == fresh.permutation(9).tolist()
