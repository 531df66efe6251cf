"""repro — reproduction of Han (SPAA 1989), *Matching Partition a
Linked List and Its Optimization*.

The library computes **maximal matchings of linked lists on a simulated
PRAM**, implementing the paper's four algorithms (Match1–Match4,
including the WalkDown1/WalkDown2 optimal scheduling technique that is
the paper's contribution), the matching partition functions they build
on, the applications the paper names (3-coloring, maximal independent
set, optimal list ranking), and the full PRAM substrate (instruction-
level simulator with memory-conflict enforcement, plus a Brent cost
model for large-scale complexity measurements).

Quick start::

    import repro

    lst = repro.random_list(1 << 12, rng=0)
    result = repro.maximal_matching(
        lst, algorithm="match4", backend="numpy", p=64, iterations=2
    )
    print(result.matching.size, result.report.time, result.report.cost)
    # or, unpacking the legacy 3-tuple:
    matching, report, stats = result

``backend="numpy"`` runs each PRAM round as one batch of vectorized
array operations (bit-identical results, an order of magnitude faster
on the host); ``backend="reference"`` (the default) runs the
paper-faithful per-pointer implementations.

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for
the reproduced per-lemma/theorem experiments.
"""

from . import analysis, apps, baselines, bits, core, lists, pram, telemetry
from .errors import (
    InvalidListError,
    InvalidParameterError,
    MemoryConflictError,
    PRAMError,
    ReproError,
    VerificationError,
)
from .lists import (
    NIL,
    LinkedList,
    Ring,
    bit_reversal_list,
    blocked_list,
    gray_code_list,
    interleaved_list,
    random_list,
    random_ring,
    reversed_list,
    sawtooth_list,
    sequential_list,
    sequential_ring,
)
from .core import (
    ALGORITHMS,
    AlgorithmInfo,
    Matching,
    MatchingPartition,
    MatchResult,
    f_lsb,
    f_msb,
    iterate_f,
    match1,
    match2,
    match3,
    match4,
    maximal_matching,
    register_algorithm,
    verify_matching,
    verify_maximal_matching,
)
from .apps import (
    contraction_ranks,
    list_prefix_sums,
    list_ranks,
    mis_from_coloring,
    mis_from_matching,
    three_coloring,
)
from .baselines import random_mate_matching, sequential_matching, wyllie_ranks
from .pram import PRAM, AccessMode, CostModel, CostReport
from .bits import G, ilog2, log_G
from . import backends
from .backends import BACKENDS, Backend
from .backends.batch import BatchMatchResult, batch_maximal_matching
from . import parallel
from .resilience import resilient_matching
from . import dynamic
from .dynamic import ChurnConfig, ChurnSession, DynamicList, RepairLedger
from ._buildinfo import build_info, version_string
from .telemetry import METRICS, RunRecord

__version__ = "1.0.0"

__all__ = [
    # subpackages
    "analysis", "apps", "backends", "baselines", "bits", "core",
    "dynamic", "lists", "parallel", "pram", "telemetry",
    # errors
    "ReproError", "InvalidListError", "InvalidParameterError",
    "PRAMError", "MemoryConflictError", "VerificationError",
    # lists
    "NIL", "LinkedList", "Ring", "random_list", "sequential_list",
    "reversed_list", "sawtooth_list", "blocked_list",
    "bit_reversal_list", "gray_code_list", "interleaved_list",
    "random_ring", "sequential_ring",
    # core
    "ALGORITHMS", "AlgorithmInfo", "Matching", "MatchingPartition",
    "MatchResult", "f_msb", "f_lsb",
    "iterate_f", "match1", "match2", "match3", "match4",
    "maximal_matching", "register_algorithm",
    "verify_matching", "verify_maximal_matching",
    # backends
    "BACKENDS", "Backend", "BatchMatchResult", "batch_maximal_matching",
    # resilience
    "resilient_matching",
    # dynamic
    "ChurnConfig", "ChurnSession", "DynamicList", "RepairLedger",
    # apps
    "three_coloring", "mis_from_coloring", "mis_from_matching",
    "contraction_ranks", "list_ranks", "list_prefix_sums",
    # baselines
    "sequential_matching", "random_mate_matching", "wyllie_ranks",
    # pram
    "PRAM", "AccessMode", "CostModel", "CostReport",
    # bits
    "G", "log_G", "ilog2",
    # telemetry + build provenance
    "METRICS", "RunRecord", "build_info", "version_string",
    "__version__",
]
