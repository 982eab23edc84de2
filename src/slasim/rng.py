"""Deterministic 64-bit generator for reproducible traffic traces.

The generator is plain SplitMix64 (Steele, Lea & Flood's finalizer), chosen
because it is tiny, fully specified, and trivially portable: given the same
64-bit inputs every implementation on every platform produces the same
outputs.  Traces are keyed per traffic stream:

    stream_key(seed, scp_index, qci) =
        splitmix64(splitmix64(splitmix64(seed) ^ scp_index) ^ qci)

    draw(stream_key, period) = splitmix64(stream_key ^ period)

Uniform integers in [lo, hi] are taken as lo + draw % (hi - lo + 1); the
modulo bias is irrelevant at simulation ranges and accepted for simplicity.

``splitmix64_lanes`` draws for a row of keys at once: each key has a 128-bit
lane of one ``int`` and each step is one masked operation on it.  Products stay
below 2**128 and shifts pull the next lane's bits only into the masked-off upper
half, so each lane is exactly the scalar value, packed little-endian by ``struct``.
"""

import struct
from typing import Callable, Sequence, Tuple

_MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def stream_key(seed: int, scp_index: int, qci: int) -> int:
    return splitmix64(splitmix64(splitmix64(seed & _MASK) ^ scp_index) ^ qci)


def splitmix64_lanes(keys: Sequence[int]) -> Callable[[int], Tuple[int, ...]]:
    """A function of ``period`` giving ``splitmix64(key ^ period)`` per key."""
    layout = struct.Struct("<" + "Q8x" * len(keys))  # lane: 64-bit value, 64 zero bits
    ones = ((1 << 128 * len(keys)) - 1) // ((1 << 128) - 1)  # 1 in every lane
    row = int.from_bytes(layout.pack(*keys), "little")
    mask, gamma = _MASK * ones, 0x9E3779B97F4A7C15 * ones

    def draws(period: int) -> Tuple[int, ...]:
        x = ((row ^ (period & _MASK) * ones) + gamma) & mask
        z = (x ^ (x >> 30)) & mask
        z = (z * 0xBF58476D1CE4E5B9) & mask
        z = (z ^ (z >> 27)) & mask
        z = (z * 0x94D049BB133111EB) & mask
        # the layout's pad bytes skip each lane's upper half
        return layout.unpack((z ^ (z >> 31)).to_bytes(layout.size, "little"))

    return draws
