"""Quantum-dot time-bin entanglement experiment simulator and analysis toolkit."""

__version__ = "0.1.0"


def parse_seed(text: str) -> int:
    """A run seed: an unsigned 64-bit integer, in any base `int(text, 0)` reads.

    Here, not in `rng`, so that `--seed` is checked without loading numpy.
    """
    try:
        seed = int(text, 0)
    except ValueError:  # not an integer at all breaks the same rule
        seed = -1
    if not 0 <= seed < 2**64:
        raise ValueError("must be an unsigned 64-bit integer")
    return seed
