"""Bit-level machinery from the paper's appendix.

The appendix of Han (SPAA 1989) spends considerable care on making the
matching partition function *computable* on an EREW PRAM whose
processors lack a "count trailing zeros" instruction.  This subpackage
reproduces that machinery:

- :mod:`repro.bits.bitops` — most/least-significant-bit extraction,
  both as direct (vectorized NumPy) primitives and via the paper's
  unary-to-binary conversion trick; bit-reversal permutations.
- :mod:`repro.bits.tables` — the lookup tables the appendix describes:
  the unary→binary table ``T`` (with only ``log n`` useful entries) and
  the bit-reversal permutation table, together with their construction
  cost accounting.
- :mod:`repro.bits.iterated_log` — ``log^(i) n``, ``G(n)`` and
  ``log G(n)``: sequential procedures exactly following the appendix,
  plus the parallel pointer-jumping evaluation of ``log G(n)`` on the
  power-of-two "main list".
- :mod:`repro.bits.lookup` — construction of the lookup table for the
  iterated matching partition function ``f^(i)`` (used by Match3 and
  Match4's step 1): the direct recursive scheme, the appendix's
  guess-and-verify EREW scheme, and the shuffle-graph-coloring view.
- :mod:`repro.bits.bitlen_tables` — the 16-bit two-level bit-length /
  MSB / LSB lookup tables, and the cached pair-label tables through
  which the vectorized backend engine (:mod:`repro.backends.engine`)
  evaluates every ``f`` round after the first.
"""

from .bitops import (
    bit_at,
    bit_reverse,
    lsb_index,
    lsb_index_scalar,
    msb_index,
    msb_index_scalar,
    unary_to_binary,
)
from .iterated_log import (
    G,
    big_g_sequential,
    ilog2,
    ilog2_int,
    log_G,
    log_g_pointer_jumping,
)
from .tables import BitReversalTable, UnaryToBinaryTable
from .lookup import (
    MatchingFunctionTable,
    build_table_direct,
    build_table_guess_and_verify,
    shuffle_graph,
)
from .bitlen_tables import (
    bit_length_table,
    lsb_index_table,
    msb_index_table,
    pair_label_table,
)

__all__ = [
    "bit_at",
    "bit_reverse",
    "lsb_index",
    "lsb_index_scalar",
    "msb_index",
    "msb_index_scalar",
    "unary_to_binary",
    "G",
    "big_g_sequential",
    "ilog2",
    "ilog2_int",
    "log_G",
    "log_g_pointer_jumping",
    "BitReversalTable",
    "UnaryToBinaryTable",
    "MatchingFunctionTable",
    "build_table_direct",
    "build_table_guess_and_verify",
    "shuffle_graph",
    "bit_length_table",
    "lsb_index_table",
    "msb_index_table",
    "pair_label_table",
]
