"""Linked-list substrate: the paper's input representation and workloads.

A linked list of ``n`` nodes is stored exactly as in the paper's
Fig. 1: an array ``X[0..n-1]`` of node payloads plus an array
``NEXT[0..n-1]`` of successor addresses, with ``nil`` (= -1) marking
the end.  The *address* of a node — its array index — is what the
matching partition function consumes, so the memory layout of the list
(which permutation of addresses the list order visits) is the workload
parameter all experiments sweep.

- :mod:`repro.lists.linked_list` — the :class:`LinkedList` container,
  structural accessors (successors, predecessors, pointer arrays), and
  conversions to/from visit orders.
- :mod:`repro.lists.generators` — workload generators: random
  permutation lists (the paper's implicit adversary), sequential and
  reversed layouts (all-forward / all-backward pointers), sawtooth and
  blocked layouts (stress the inter-/intra-row split of Match4).
- :mod:`repro.lists.validation` — structural validation used at every
  public entry point: one sparse-ruling-set check for lists, forests
  and batches.
"""

from .linked_list import NIL, LinkedList
from .ring import Ring, random_ring, sequential_ring
from .generators import (
    bit_reversal_list,
    blocked_list,
    gray_code_list,
    interleaved_list,
    list_from_order,
    random_list,
    reversed_list,
    sawtooth_list,
    sequential_list,
)
from .validation import validate_next_array

__all__ = [
    "NIL",
    "LinkedList",
    "Ring",
    "random_ring",
    "sequential_ring",
    "blocked_list",
    "bit_reversal_list",
    "gray_code_list",
    "interleaved_list",
    "list_from_order",
    "random_list",
    "reversed_list",
    "sawtooth_list",
    "sequential_list",
    "validate_next_array",
]
