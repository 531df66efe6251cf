"""Pair-label tables: ``f`` as one gather on small labels.

After the first ``f`` round every label is small, so the numpy backend
engine (:mod:`repro.backends.engine`) evaluates each later round as one
gather into a pair table ``FT[a, b] = f(<a, b>)`` over the bounded
label domain; it reads the first round's bit index off a float
exponent.  The appendix's per-value tables, with their construction
cost accounting, are in :mod:`repro.bits.tables`.

The tables are process-wide constants, built on first use (a few KiB
each at the label bounds the engine reaches) by calling the *reference*
``f`` implementations from :mod:`repro.core.functions`, so the numpy
backend agrees with the paper-faithful oracle by construction.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidParameterError

__all__ = ["pair_label_table"]

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
            f"large take an f round on values (repro.backends.engine.f_msb "
            f"or f_lsb)"
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
