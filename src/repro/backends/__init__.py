"""Pluggable execution backends for the matching algorithms.

A *backend* is a named family of implementations of the registered
algorithms sharing one execution style:

``"reference"``
    The paper-faithful pure-Python/numpy-scalar implementations in
    :mod:`repro.core` — the oracle.  Supports every registered
    algorithm, every strategy, and unbounded ``n``.
``"numpy"``
    The whole-array engine in :mod:`repro.backends.engine`: each PRAM
    round is one batch of vectorized operations.  Implements ``match1``
    and ``match4`` (plus the building blocks ``f_msb``/``f_lsb``,
    ``iterate_f``, ``cut_and_walk``) for ``n < 2**31``, bit-identical
    to the reference down to the Brent :class:`~repro.pram.cost.CostReport`.

The **cost-accounting contract** every backend must honor: for any
input both backends accept, the returned matching tails, stats, and
``CostReport`` are *equal* — a backend changes how fast the rounds run
on the host, never how many PRAM operations the paper's machine would
charge.  ``tests/backends/`` enforces the contract; see
``docs/backends.md`` for how to add a backend.

Select a backend per call::

    repro.maximal_matching(lst, algorithm="match4", backend="numpy")

or pass ``backend="auto"``, which :func:`auto_backend` resolves by one
fixed rule, or run many independent lists in one engine invocation
with :func:`repro.backends.batch.batch_maximal_matching`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping

from ..errors import InvalidParameterError
from . import engine
from .engine import ENGINE_LIMIT

__all__ = [
    "Backend",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "AUTO",
    "auto_backend",
    "register_backend",
    "get_backend",
    "backend_names",
    "backend_choices",
    "backends_for",
    "engine",
    "ENGINE_LIMIT",
]

#: Backend used when ``backend=`` is not given anywhere in the API.
DEFAULT_BACKEND = "reference"

#: Sentinel backend name, resolved by :func:`auto_backend`.  Accepted
#: wherever ``backend=`` is — it is not a registered :class:`Backend`
#: and always resolves to one before any algorithm runs.
AUTO = "auto"


class _ReferenceAlgorithms(Mapping[str, Callable[..., Any]]):
    """Live view of the algorithm registry's reference implementations.

    Algorithms registered after import (the baselines package, user
    plugins) appear here automatically.
    """

    def _registry(self):
        from ..core.maximal_matching import ALGORITHMS

        return ALGORITHMS

    def __getitem__(self, name: str) -> Callable[..., Any]:
        return self._registry()[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._registry())

    def __len__(self) -> int:
        return len(self._registry())

    def __contains__(self, name: object) -> bool:
        return name in self._registry()


@dataclass(frozen=True)
class Backend:
    """One execution backend.

    Attributes
    ----------
    name:
        Registry key (``backend=`` value).
    description:
        One-line summary shown by ``repro algorithms --list``.
    algorithms:
        Mapping from algorithm name to its implementation under this
        backend.  Implementations take ``(lst, *, p=1, **kwargs)`` and
        return ``(Matching, CostReport, stats)``.
    canonical_kwargs:
        Whether implementations take the *canonical* kwarg names
        (``iterations=``).  The reference tier predates the rename and
        keeps its paper-era names (``i=``); the dispatcher translates.
    limit:
        Exclusive bound on supported ``n`` (``None`` = unbounded).
    """

    name: str
    description: str
    algorithms: Mapping[str, Callable[..., Any]]
    canonical_kwargs: bool = True
    limit: int | None = None

    def supports(self, algorithm: str) -> bool:
        """Whether ``algorithm`` has an implementation on this backend."""
        return algorithm in self.algorithms


#: Registry of execution backends, keyed by name.
BACKENDS: dict[str, Backend] = {}


def register_backend(backend: Backend) -> None:
    """Register an additional backend.

    Re-registration of an existing name is rejected to keep experiment
    configurations unambiguous (mirrors ``register_algorithm``).
    """
    if backend.name in BACKENDS:
        raise InvalidParameterError(
            f"backend {backend.name!r} already registered"
        )
    BACKENDS[backend.name] = backend


def get_backend(name: str) -> Backend:
    """Look up a backend by name, with the valid names in the error."""
    try:
        return BACKENDS[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
        ) from None


def backend_names() -> list[str]:
    """Sorted names of all registered backends."""
    return sorted(BACKENDS)


def backend_choices() -> list[str]:
    """Valid ``backend=`` values: registered names plus ``"auto"``."""
    return sorted([*BACKENDS, AUTO])


def backends_for(algorithm: str) -> list[str]:
    """Sorted names of the backends implementing ``algorithm``."""
    return sorted(
        name for name, b in BACKENDS.items() if b.supports(algorithm)
    )


register_backend(Backend(
    name="reference",
    description="paper-faithful per-pointer implementations (the oracle)",
    algorithms=_ReferenceAlgorithms(),
    canonical_kwargs=False,
    limit=None,
))

register_backend(Backend(
    name="numpy",
    description=(
        "whole-array engine: one vectorized batch per PRAM round "
        "(bit-identical results, n < 2**31)"
    ),
    algorithms={
        "match1": engine.match1,
        "match4": engine.match4,
    },
    canonical_kwargs=True,
    limit=ENGINE_LIMIT,
))


def auto_backend(algorithm: str, sizes: Iterable[int]) -> str:
    """The concrete backend ``backend="auto"`` stands for.

    ``"numpy"`` when the numpy engine implements ``algorithm`` and every
    list size is below :data:`ENGINE_LIMIT`; ``"reference"`` otherwise.
    A batch is judged by all its sizes: the engine runs single lists
    and batches through the same driver.  Every backend returns the
    same answer, so the rule only picks host speed, and numpy is faster
    at every size measured (``docs/backends.md``).
    """
    if (BACKENDS["numpy"].supports(algorithm)
            and all(n < ENGINE_LIMIT for n in sizes)):
        return "numpy"
    return "reference"
