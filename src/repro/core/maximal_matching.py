"""Unified entry point for all maximal-matching algorithms.

``maximal_matching(lst, algorithm="match4", p=8)`` dispatches to the
paper's algorithms (and the baselines registered by
:mod:`repro.baselines`) with one calling convention, returning a
:class:`~repro.core.result.MatchResult` that still unpacks as the
legacy ``(matching, report, stats)`` tuple.  Raw ``NEXT`` arrays are
accepted in place of a :class:`repro.lists.LinkedList` and validated.

Three registry concerns live here:

- :data:`ALGORITHMS` — an :class:`AlgorithmRegistry` mapping names to
  :class:`AlgorithmInfo` records (reference implementation plus
  metadata: paper section, optimality, kwarg schema);
- kwarg normalization — every caller-facing kwarg is validated against
  the algorithm's schema in one place, deprecated aliases (Match4's
  historical ``i=`` for ``iterations=``) are translated with a
  :class:`DeprecationWarning`, and unknown names are rejected with the
  valid ones listed;
- backend dispatch — ``backend="numpy"`` routes to the whole-array
  engine (:mod:`repro.backends`) when it implements the algorithm.
"""

from __future__ import annotations

import inspect
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from ..errors import InvalidParameterError
from ..lists.linked_list import LinkedList
from ..pram.cost import CostReport
from ..telemetry.metrics import METRICS
from ..telemetry.spans import enabled as telemetry_enabled, span as telemetry_span
from .match1 import match1
from .match2 import match2
from .match3 import match3
from .match4 import match4
from .matching import Matching
from .result import MatchResult

__all__ = [
    "ALGORITHMS",
    "AlgorithmInfo",
    "AlgorithmRegistry",
    "maximal_matching",
    "normalize_algorithm_kwargs",
    "register_algorithm",
]


def _signature_params(fn: Callable[..., Any]) -> frozenset[str] | None:
    """Keyword-only parameter names of ``fn`` (minus ``p``).

    ``None`` means the schema is unknowable (``**kwargs`` or an
    uninspectable callable) and every kwarg is forwarded unchecked.
    """
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        return None
    names = set()
    for param in sig.parameters.values():
        if param.kind is inspect.Parameter.VAR_KEYWORD:
            return None
        if param.kind is inspect.Parameter.KEYWORD_ONLY:
            names.add(param.name)
    names.discard("p")
    return frozenset(names)


@dataclass(frozen=True)
class AlgorithmInfo:
    """One registered algorithm: reference implementation + metadata.

    Attributes
    ----------
    name:
        Registry key (``algorithm=`` value).
    fn:
        The reference implementation, ``(lst, *, p=1, **kw) ->
        (Matching, CostReport, stats)``.
    params:
        Canonical caller-facing kwarg names (``None`` = unchecked).
    aliases:
        Deprecated kwarg name -> canonical name; accepted with a
        :class:`DeprecationWarning`.
    renames:
        Canonical name -> the reference implementation's own parameter
        name, for algorithms registered before the kwarg cleanup.
    paper_section:
        Where in Han's paper (or which baseline) the algorithm comes
        from.
    optimal:
        Whether the paper claims O(n) work / optimal speedup for it.
    """

    name: str
    fn: Callable[..., tuple[Matching, CostReport, Any]]
    params: frozenset[str] | None = None
    aliases: Mapping[str, str] = field(default_factory=dict)
    renames: Mapping[str, str] = field(default_factory=dict)
    paper_section: str = ""
    optimal: bool = False

    @property
    def backends(self) -> list[str]:
        """Names of the backends that implement this algorithm."""
        from ..backends import backends_for

        return backends_for(self.name)

    def __call__(self, lst, **kwargs):
        """Call the reference implementation (legacy registry use)."""
        return self.fn(lst, **kwargs)


class AlgorithmRegistry(Mapping[str, AlgorithmInfo]):
    """Name -> :class:`AlgorithmInfo`, with a ``describe()`` helper.

    Iteration, ``in``, and ``[...]`` behave like the plain dict this
    registry replaced; values are now :class:`AlgorithmInfo` records
    (themselves callable, delegating to the reference implementation).
    """

    def __init__(self) -> None:
        self._infos: dict[str, AlgorithmInfo] = {}

    def __getitem__(self, name: str) -> AlgorithmInfo:
        return self._infos[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._infos)

    def __len__(self) -> int:
        return len(self._infos)

    def describe(self) -> list[dict[str, Any]]:
        """One metadata record per algorithm, sorted by name.

        Keys: ``name``, ``backends``, ``paper_section``, ``optimal``,
        ``params`` — the CLI renders this for ``repro algorithms``.
        """
        return [
            {
                "name": name,
                "backends": info.backends,
                "paper_section": info.paper_section,
                "optimal": info.optimal,
                "params": (sorted(info.params)
                           if info.params is not None else None),
            }
            for name, info in sorted(self._infos.items())
        ]


#: Registry of maximal-matching algorithms.
ALGORITHMS = AlgorithmRegistry()


def register_algorithm(
    name: str,
    fn: Callable[..., tuple[Matching, CostReport, Any]],
    *,
    aliases: Mapping[str, str] | None = None,
    renames: Mapping[str, str] | None = None,
    paper_section: str = "",
    optimal: bool = False,
) -> None:
    """Register an algorithm (used by the baselines package).

    Re-registration of an existing name is rejected to keep experiment
    configurations unambiguous.  The caller-facing kwarg schema is read
    off ``fn``'s signature (keyword-only parameters), with ``renames``
    mapping canonical names onto ``fn``'s own parameter names and
    ``aliases`` admitting deprecated spellings.
    """
    if name in ALGORITHMS:
        raise InvalidParameterError(f"algorithm {name!r} already registered")
    renames = dict(renames or {})
    params = _signature_params(fn)
    if params is not None:
        inverse = {impl: canon for canon, impl in renames.items()}
        params = frozenset(inverse.get(p, p) for p in params)
    ALGORITHMS._infos[name] = AlgorithmInfo(
        name=name,
        fn=fn,
        params=params,
        aliases=dict(aliases or {}),
        renames=renames,
        paper_section=paper_section,
        optimal=optimal,
    )


register_algorithm(
    "match1", match1,
    paper_section="§2, Algorithm Match1 (O(log n) time, O(n log n) work)",
)
register_algorithm(
    "match2", match2,
    paper_section="§3, Algorithm Match2 (first optimization)",
)
register_algorithm(
    "match3", match3,
    paper_section="§4, Algorithm Match3 (precomputed matching tables)",
    optimal=True,
)
register_algorithm(
    "match4", match4,
    aliases={"i": "iterations"},
    renames={"iterations": "i"},
    paper_section="§5, Algorithm Match4 (optimal: O(log n) time, O(n) work)",
    optimal=True,
)


def normalize_algorithm_kwargs(
    algorithm: str, kwargs: Mapping[str, Any]
) -> dict[str, Any]:
    """Validate and canonicalize caller kwargs for ``algorithm``.

    Deprecated aliases are translated to their canonical names with a
    :class:`DeprecationWarning`; unknown names raise
    :class:`InvalidParameterError` listing the valid ones.  Returns the
    kwargs under canonical names.
    """
    info = ALGORITHMS[algorithm]
    if info.params is None:
        return dict(kwargs)
    out: dict[str, Any] = {}
    for key, value in kwargs.items():
        canonical = info.aliases.get(key, key)
        if canonical != key:
            warnings.warn(
                f"kwarg {key!r} of algorithm {algorithm!r} is deprecated; "
                f"use {canonical!r}",
                DeprecationWarning,
                stacklevel=3,
            )
        if canonical not in info.params:
            raise InvalidParameterError(
                f"unknown kwarg {key!r} for algorithm {algorithm!r}; "
                f"valid kwargs: {sorted(info.params)}"
            )
        if canonical in out:
            raise InvalidParameterError(
                f"kwarg {canonical!r} of algorithm {algorithm!r} given "
                f"twice (directly and via its deprecated alias)"
            )
        out[canonical] = value
    return out


def maximal_matching(
    lst: LinkedList | np.ndarray | list,
    *,
    algorithm: str | None = None,
    backend: str | None = None,
    p: int = 1,
    **kwargs: Any,
) -> MatchResult:
    """Compute a maximal matching of a linked list.

    Parameters
    ----------
    lst:
        A :class:`LinkedList` or a raw ``NEXT`` array (validated).
    algorithm:
        One of :data:`ALGORITHMS` (paper algorithms ``match1`` ...
        ``match4`` plus registered baselines).  Default ``"match4"``.
    backend:
        Execution backend (see :mod:`repro.backends`): ``"reference"``
        for the paper-faithful per-pointer implementations, ``"numpy"``
        for the vectorized whole-array engine — or ``"auto"`` for the
        one :func:`~repro.backends.auto_backend` names.  Results are
        bit-identical across backends; only host wall-clock differs.
        Default ``"reference"``.
    p:
        Processor count for the cost accounting.
    kwargs:
        Forwarded to the algorithm under canonical names (e.g.
        ``iterations=3`` for Match4, ``sort_law="reif"`` for Match2).
        Deprecated aliases are accepted with a warning.

    Returns
    -------
    MatchResult:
        Typed record with fields ``matching``, ``report``, ``stats``,
        ``backend``, ``algorithm``, ``extras``; unpacks as the legacy
        ``(matching, report, stats)`` tuple.  ``backend`` is always the
        concrete backend that ran; for ``backend="auto"``,
        ``extras["requested_backend"]`` is ``"auto"``.
    """
    from ..backends import AUTO, DEFAULT_BACKEND, auto_backend, get_backend

    if algorithm is None:
        algorithm = "match4"
    requested_backend = DEFAULT_BACKEND if backend is None else backend

    if not isinstance(lst, LinkedList):
        lst = LinkedList(lst)
    try:
        info = ALGORITHMS[algorithm]
    except KeyError:
        raise InvalidParameterError(
            f"unknown algorithm {algorithm!r}; choose from "
            f"{sorted(ALGORITHMS)}"
        ) from None
    kwargs = normalize_algorithm_kwargs(algorithm, kwargs)

    extras: dict[str, Any] = {}
    resolved_backend = requested_backend
    if requested_backend == AUTO:
        resolved_backend = auto_backend(algorithm, (lst.n,))
        extras["requested_backend"] = AUTO

    backend_obj = get_backend(resolved_backend)
    fn = backend_obj.algorithms.get(algorithm)
    if fn is None:
        raise InvalidParameterError(
            f"algorithm {algorithm!r} is not implemented on backend "
            f"{resolved_backend!r} (available there: "
            f"{sorted(backend_obj.algorithms)}); backends implementing "
            f"it: {info.backends}"
        )
    if not backend_obj.canonical_kwargs:
        kwargs = {info.renames.get(k, k): v for k, v in kwargs.items()}
    span_attrs: dict[str, Any] = {}
    if requested_backend != resolved_backend:
        span_attrs["requested_backend"] = requested_backend
    with telemetry_span(
        "maximal_matching", algorithm=algorithm,
        backend=resolved_backend, n=lst.n, p=p, **span_attrs,
    ) as sp:
        matching, report, stats = fn(lst, p=p, **kwargs)
        if telemetry_enabled():
            sp.set(time=report.time, work=report.work,
                   matched=matching.size)
            METRICS.counter("matching.runs").inc()
            METRICS.counter("pram.steps").inc(report.time)
            METRICS.counter("pram.work").inc(report.work)
    return MatchResult(
        matching=matching, report=report, stats=stats,
        backend=resolved_backend, algorithm=algorithm, extras=extras,
    )
