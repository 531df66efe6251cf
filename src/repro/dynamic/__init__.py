"""Dynamic lists: matchings maintained under churn, repaired locally.

The static tier answers "what is a maximal matching of this list";
this package keeps the answer current while the list mutates.  See
:mod:`repro.dynamic.session` for the arena and the O(1)-radius repair
(or the from-scratch :meth:`DynamicList.recompute`), and
:mod:`repro.dynamic.churn` for seeded edit-stream workloads.
"""

from .churn import (
    CHURN_LAYOUTS,
    ChurnConfig,
    ChurnResult,
    ChurnSession,
    make_churn_list,
)
from .session import (
    ComponentSnapshot,
    DynamicList,
    RepairLedger,
    StabilizeReport,
)

__all__ = [
    "CHURN_LAYOUTS",
    "ChurnConfig",
    "ChurnResult",
    "ChurnSession",
    "ComponentSnapshot",
    "DynamicList",
    "RepairLedger",
    "StabilizeReport",
    "make_churn_list",
]
