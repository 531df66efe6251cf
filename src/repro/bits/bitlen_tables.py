"""Bit-length lookup tables — the appendix's table form, batch-sized.

The appendix computes ``k`` (the index of the most/least significant
set bit) either with a dedicated *convert* instruction or by table
lookup.  :mod:`repro.bits.tables` reproduces the paper's *per-value*
tables with their construction cost accounting; this module provides
the **whole-array** form: 16-bit-wide lookup tables applied to entire
``a XOR b`` arrays with a single gather, and cached pair tables
``FT[a, b] = f(<a, b>)`` for the bounded label domains reached after
the first ``f`` round.  The numpy backend engine uses the pair tables
only; it reads the first round's bit index off a float exponent.

All tables are process-wide constants (a few tens of KiB); the pair
tables are built by calling the *reference* ``f`` implementations from
:mod:`repro.core.functions`, so the numpy backend agrees with the
paper-faithful oracle by construction.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidParameterError

__all__ = [
    "BITLEN16",
    "LSB16",
    "bit_length_table",
    "msb_index_table",
    "lsb_index_table",
    "pair_label_table",
]

#: Exclusive value bound the two-level 16-bit tables cover.
TABLE_LIMIT = 1 << 32

_MASK16 = np.int64(0xFFFF)


def _build_bitlen16() -> np.ndarray:
    t = np.zeros(1 << 16, dtype=np.int8)
    for k in range(16):
        t[1 << k: 1 << (k + 1)] = k + 1
    return t


def _build_lsb16() -> np.ndarray:
    # Indexed by an *isolated power of two* (the appendix's
    # ``(c XOR (c-1)) + 1) / 2``); only the 16 power slots are live.
    t = np.zeros(1 << 16, dtype=np.int8)
    for k in range(16):
        t[1 << k] = k
    return t


#: ``BITLEN16[v] = v.bit_length()`` for ``v < 2**16``.
BITLEN16: np.ndarray = _build_bitlen16()
#: ``LSB16[2**k] = k`` for ``k < 16`` (other slots are zero).
LSB16: np.ndarray = _build_lsb16()

BITLEN16.setflags(write=False)
LSB16.setflags(write=False)


def _as_table_domain(x: np.ndarray, *, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.int64)
    if x.size and (int(x.min()) < 0 or int(x.max()) >= TABLE_LIMIT):
        raise InvalidParameterError(
            f"{name} requires values in [0, 2**32); got min={int(x.min())}, "
            f"max={int(x.max())}"
        )
    return x


def bit_length_table(x: np.ndarray) -> np.ndarray:
    """Vectorized ``int.bit_length`` via the 16-bit table (two levels).

    Exact for ``0 <= x < 2**32``; ``bit_length(0) = 0``.
    """
    x = _as_table_domain(x, name="bit_length_table")
    hi = x >> 16
    return np.where(hi != 0, BITLEN16[hi] + np.int8(16), BITLEN16[x & _MASK16])


def msb_index_table(x: np.ndarray) -> np.ndarray:
    """Table-driven :func:`repro.bits.bitops.msb_index` for ``1 <= x < 2**32``."""
    x = _as_table_domain(x, name="msb_index_table")
    if x.size and int(x.min()) <= 0:
        raise InvalidParameterError("msb_index_table requires positive values")
    return np.asarray(bit_length_table(x), dtype=np.int64) - 1


def lsb_index_table(x: np.ndarray) -> np.ndarray:
    """Table-driven :func:`repro.bits.bitops.lsb_index` for ``1 <= x < 2**32``.

    Isolates the lowest set bit with the appendix's pipeline
    (``x & -x``) and converts the power to its exponent with one gather
    per 16-bit half.
    """
    x = _as_table_domain(x, name="lsb_index_table")
    if x.size and int(x.min()) <= 0:
        raise InvalidParameterError("lsb_index_table requires positive values")
    iso = x & -x
    lo = iso & _MASK16
    return np.asarray(
        np.where(lo != 0, LSB16[lo], LSB16[iso >> 16] + np.int8(16)),
        dtype=np.int64,
    )


_PAIR_TABLES: dict[tuple[str, int], np.ndarray] = {}


def pair_label_table(kind: str, m: int) -> np.ndarray:
    """Flat table ``FT[a * m + b] = f(<a, b>)`` for labels ``< m``.

    Built once per ``(kind, m)`` by evaluating the reference
    :func:`repro.core.functions.f_msb` / ``f_lsb`` on the full grid, so
    a table round of the numpy engine is bit-identical to an ``f``
    round of the reference tier.  Diagonal cells (``a == b`` is outside
    ``f``'s domain) are poisoned with ``-1``.
    """
    if m < 2:
        raise InvalidParameterError(f"pair table needs m >= 2, got {m}")
    if m > 4096:
        raise InvalidParameterError(
            f"pair table for m={m} would need {m * m} cells; labels this "
            f"large should go through the direct bit-length tables"
        )
    key = (kind, m)
    cached = _PAIR_TABLES.get(key)
    if cached is not None:
        return cached
    from ..core.functions import pair_function

    a = np.repeat(np.arange(m, dtype=np.int64), m)
    b = np.tile(np.arange(m, dtype=np.int64), m)
    diag = a == b
    vals = pair_function(kind)(a, np.where(diag, (b + 1) % m, b))
    table = vals.astype(np.int8)
    table[diag] = -1
    table.setflags(write=False)
    _PAIR_TABLES[key] = table
    return table
