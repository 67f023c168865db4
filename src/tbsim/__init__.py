"""Quantum-dot time-bin entanglement experiment simulator and analysis toolkit."""

import sys

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


def sha256(data: bytes = b""):
    """A SHA-256 hash object from the interpreter's built-in module.

    `hashlib.sha256` gives the same digest but loads OpenSSL's libcrypto,
    about 3.5 MB of resident memory per process, for a few kilobytes of
    manifest. The built-in module is `_sha2` from Python 3.12 and `_sha256`
    before (chosen by version: a failed import searches `sys.path` on every
    call); `hashlib` serves only an interpreter built without it.
    """
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256 as new
        else:
            from _sha256 import sha256 as new
    except ImportError:
        from hashlib import sha256 as new
    return new(data)
