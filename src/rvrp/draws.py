"""Exact replay of a PCG64 ``Generator``'s search draws from its raw output.

A scalar ``Generator.integers`` call costs about a microsecond, most of it
call overhead, and every search candidate makes at least two. ``Draws`` reads
the same 64-bit outputs as one endless stream, fetched in blocks
(``random_raw``), and replays numpy's arithmetic on them in Python, so every
value, and the position in the stream, equals what the wrapped ``Generator``
would have given:

- ``integers(low, high)`` over a range n < 2**32 is Lemire's multiply-shift
  with rejection ("Fast random integer generation in an interval", ACM TOMACS
  2019) on one 32-bit draw: ``m = u32 * n``, redrawn while the low 32 bits of
  ``m`` are below ``2**32 % n`` (checked only when they are below n). A range
  of one returns ``low`` and draws nothing.
- a 32-bit draw takes the low half of a 64-bit output and keeps the high half
  pending for the next 32-bit draw (PCG64's buffered ``next_uint32``).
- ``random()`` is ``(u64 >> 11) * 2**-53`` and leaves the pending half alone.

The wrapped generator's state is not written back: after wrapping, the
generator is ahead of the replay by up to one block, and it must not be used
again. ``tests/test_draws.py`` pins the replay against numpy.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

BLOCK = 256  # raw outputs fetched at a time
_MASK32 = 0xFFFFFFFF
_SCALE53 = 1.0 / 9007199254740992.0  # 2**-53


class Draws:
    """``integers`` and ``random`` of a PCG64 ``Generator``, replayed from its
    raw output; the generator must not be used once wrapped."""

    __slots__ = ("_next", "_pending")

    def __init__(self, rng: np.random.Generator):
        bit_generator = rng.bit_generator
        if not isinstance(bit_generator, np.random.PCG64):
            raise TypeError(f"Draws replays PCG64 only, not {type(bit_generator).__name__}")
        state = bit_generator.state
        self._pending = state["uinteger"] if state["has_uint32"] else None
        blocks = iter(lambda: bit_generator.random_raw(BLOCK).tolist(), None)
        self._next = chain.from_iterable(blocks).__next__

    def integers(self, low: int, high: int | None = None) -> int:
        """Uniform integer in [low, high), or in [0, low) without ``high``."""
        if high is None:
            low, high = 0, low
        n = high - low
        if n == 1:
            return low
        if not 0 < n <= _MASK32:
            raise ValueError(f"range {n} is not in [1, 2**32 - 1]")
        while True:
            half = self._pending
            if half is None:
                u = self._next()
                self._pending = u >> 32
                half = u & _MASK32
            else:
                self._pending = None
            m = half * n
            # redraw while the low word is below 2**32 % n, which is below n
            if m & _MASK32 >= n or m & _MASK32 >= (_MASK32 + 1 - n) % n:
                return low + (m >> 32)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return (self._next() >> 11) * _SCALE53


Rng = Draws | np.random.Generator
