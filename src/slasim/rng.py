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
"""

_MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def stream_key(seed: int, scp_index: int, qci: int) -> int:
    return splitmix64(splitmix64(splitmix64(seed & _MASK) ^ scp_index) ^ qci)
