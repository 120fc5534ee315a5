"""``Draws`` must replay numpy's ``Generator.integers`` and ``random`` value
for value: the solvers' search loops draw through it, so any difference would
silently shift every trajectory. A numpy release that changes its bounded
integer draw fails ``test_replay_matches_numpy_bounded_draw``."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvrp.draws import BLOCK, Draws

# 1 draws nothing; 2**31 + 7 and 3 * 2**30 reject about half and a quarter of
# their 32-bit draws; 2**32 - 1 is the largest range replayed
RANGES = (1, 2, 3, 7, 100, 2**31 - 1, 2**31 + 7, 3 * 2**30, 2**32 - 1)
SEEDS = range(30)
PROBE = 2**32 - 1  # its draw exposes the next 32-bit word almost exactly


def _mixed_ops(seed: int, count: int) -> list[tuple]:
    pick = random.Random(seed)
    ops: list[tuple] = []
    for _ in range(count):
        if pick.random() < 0.3:
            ops.append(("random",))
        else:
            low = pick.randint(-5, 5)
            ops.append(("integers", low, low + pick.choice(RANGES)))
    return ops


def _apply(rng, ops) -> list:
    values = []
    for op in ops:
        if op[0] == "random":
            values.append(rng.random())
        else:
            values.append(int(rng.integers(op[1], op[2])))
    return values


def _pair(seed: int, pending: bool) -> tuple[np.random.Generator, Draws]:
    """A generator and a replay of an identical one, with a pending 32-bit
    half or without."""
    reference, wrapped = np.random.default_rng(seed), np.random.default_rng(seed)
    if pending:
        reference.integers(5)
        wrapped.integers(5)
    assert wrapped.bit_generator.state["has_uint32"] == int(pending)
    return reference, Draws(wrapped)


def _with_pending_half(seed: int, half: int) -> np.random.Generator:
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    state["has_uint32"], state["uinteger"] = 1, half
    rng.bit_generator.state = state
    return rng


def _assert_replays(reference: np.random.Generator, draws: Draws, ops, continuation) -> None:
    assert _apply(draws, ops) == _apply(reference, ops), "the replayed draws differ"
    assert _apply(draws, continuation) == _apply(reference, continuation), "the stream diverged"
    probe = [("integers", 0, PROBE)]
    assert _apply(draws, probe) == _apply(reference, probe), "the pending 32-bit half differs"


@pytest.mark.parametrize("pending", [False, True], ids=["aligned", "pending-half"])
def test_replay_matches_numpy_bounded_draw(pending):
    """Values of a mixed prefix, of the next 1,000 mixed draws and of one
    32-bit probe equal numpy's, across several refills."""
    for seed in SEEDS:
        reference, draws = _pair(seed, pending)
        prefix = _mixed_ops(seed, 300 + 37 * seed)
        _assert_replays(reference, draws, prefix, _mixed_ops(1000 + seed, 1000))


def test_rejection_and_the_empty_range_are_exercised():
    """The ranges above do make numpy redraw, so the rejection path is what
    ``test_replay_matches_numpy_bounded_draw`` compares; a range of one
    consumes nothing."""
    for n in (2**31 + 7, 3 * 2**30):
        rng, aligned = np.random.default_rng(1), np.random.default_rng(1)
        for _ in range(2 * BLOCK):
            rng.integers(n)
        aligned.bit_generator.random_raw(BLOCK)  # two 32-bit words per output
        assert rng.bit_generator.state != aligned.bit_generator.state
    rng, draws = _pair(4, pending=False)
    assert [draws.integers(9, 10) for _ in range(5)] == [9] * 5
    assert draws.random() == rng.random()


@pytest.mark.parametrize("n", [n for n in RANGES if n % 2 and n > 1])
def test_rejection_threshold_is_exact(n):
    """A pending half whose low product word sits just below, at, or just
    above ``2**32 % n`` must be redrawn or kept exactly as numpy does."""
    threshold = 2**32 % n
    for low_word in {0, threshold - 1, threshold, threshold + 1, n - 1, n}:
        half = low_word * pow(n, -1, 2**32) % 2**32  # half * n has this low word
        reference, wrapped = _with_pending_half(n, half), _with_pending_half(n, half)
        _assert_replays(reference, Draws(wrapped), [("integers", 0, n)], _mixed_ops(n, 20))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    pending=st.booleans(),
    ops=st.lists(
        st.one_of(
            st.just(("random",)),
            st.tuples(
                st.just("integers"),
                st.integers(-(2**40), 2**40),
                st.one_of(st.sampled_from(RANGES), st.integers(1, 2**32 - 1)),
            ).map(lambda t: (t[0], t[1], t[1] + t[2])),
        ),
        max_size=600,
    ),
)
def test_replay_property(seed, pending, ops):
    reference, draws = _pair(seed, pending)
    _assert_replays(reference, draws, ops, _mixed_ops(seed % 997, 50))


@pytest.mark.parametrize(
    "low, high",
    [(0, 0), (5, 5), (5, 3), (-1, None), (0, 2**32), (-1, 2**32 - 1), (0, 2**40)],
)
def test_ranges_outside_32_bits_raise(low, high):
    with pytest.raises(ValueError):
        Draws(np.random.default_rng(0)).integers(low, high)


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64])
def test_other_bit_generators_raise(bit_generator):
    with pytest.raises(TypeError):
        Draws(np.random.Generator(bit_generator(0)))
