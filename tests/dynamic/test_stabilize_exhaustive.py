"""``stabilize()`` from every chosen-bit assignment of a small world.

A case is a list and any subset of its nodes as the initial chosen
bits, a bit on the tail included.  The in-order list runs every subset
for ``n <= 10`` (2,046 cases), and every list of ``n <= 5`` nodes runs
every subset (4,282 cases).  Each case must be ``verify()``-clean
after one repair round, and a second ``stabilize()`` must make no move:
the fixpoint is a full pass that changes nothing.  The largest move
count for each ``n`` is pinned at ``n // 2 + 1``.  On the in-order
list it is reached from the tail's bit alone: that bit is cleared, and
the re-match adds every other pointer from the head.
"""

from itertools import combinations, permutations

import pytest

from repro.dynamic import DynamicList
from repro.lists import LinkedList, sequential_list


def _subsets(n: int):
    for k in range(n + 1):
        yield from combinations(range(n), k)


def _worst_moves(lists) -> int:
    """Stabilize each list from every subset; the largest move count."""
    worst = 0
    for lst in lists:
        for chosen in _subsets(lst.n):
            dyn = DynamicList.from_list(lst, tails=list(chosen))
            report = dyn.stabilize()
            assert report.rounds <= 1, (list(lst), chosen)
            dyn.verify()
            assert dyn.stabilize().moves == 0, (list(lst), chosen)
            worst = max(worst, report.moves)
    return worst


@pytest.mark.parametrize("n", range(1, 11))
def test_in_order_list_every_subset(n):
    assert _worst_moves([sequential_list(n)]) == n // 2 + 1


@pytest.mark.parametrize("n", range(1, 6))
def test_every_list_every_subset(n):
    lists = [LinkedList.from_order(order)
             for order in permutations(range(n))]
    assert _worst_moves(lists) == n // 2 + 1
