"""Declarative lock-discipline markers checked by ``repro.analysis``.

The repo's concurrency contract — service state is mutated only inside the
writer critical section, counters only under their mutex — was previously
enforced by runtime hammer tests that must get lucky.  This module makes
the contract *declarative* so the static lock-discipline checker
(``repro.analysis.locks``, rules RA005/RA006) can prove it structurally:

* :func:`guarded_by` — a class decorator declaring that a set of mutable
  attributes may only be read or written while ``self.<lock>`` is held::

      @guarded_by("_lock", "parts", "hits", "misses")
      class CoverageCache: ...

  With ``rw=True`` the named lock is a readers-writer lock exposing
  ``read_locked()`` / ``write_locked()`` context managers: guarded reads
  are legal under either mode, guarded *writes* only under
  ``write_locked()`` (rule RA006 flags a write under a read lock).

* :func:`holds_lock` — a method decorator declaring that every caller of
  the method already holds the named lock (private helpers invoked from
  inside a critical section)::

      @holds_lock("_lock")
      def _materialise(self, ...): ...

* :func:`kernel` — a method decorator marking a numeric hot-path kernel
  as a timing hook: when the bound instance carries a non-``None``
  ``kernel_timer`` attribute (see :class:`repro.utils.timer.KernelTimer`),
  each call's wall-clock duration is recorded under the function's name;
  without a timer attached the wrapper is a single attribute lookup.

The lock markers are **no-ops at runtime** apart from recording their
declarations: :func:`guarded_by` stores a ``__guarded_attributes__``
mapping on the class (and in a module registry for introspection), and
:func:`holds_lock` stamps ``__holds_locks__`` on the function.  The static
analyzer reads the decorators syntactically from the AST — it never
imports the analysed code — so the markers double as documentation that
cannot silently rot: a guarded attribute touched outside its critical
section fails ``python -m repro.analysis`` (and CI) at commit time.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, TypeVar, cast

__all__ = [
    "GuardSpec",
    "guard_registry",
    "guarded_attributes",
    "guarded_by",
    "held_locks",
    "holds_lock",
    "kernel",
]

_C = TypeVar("_C", bound=type)
_F = TypeVar("_F", bound=Callable)

#: attribute the class decorator stores its declarations under
GUARD_ATTRIBUTE = "__guarded_attributes__"
#: attribute the method decorator stores its declarations under
HOLDS_ATTRIBUTE = "__holds_locks__"


@dataclass(frozen=True)
class GuardSpec:
    """The guard declaration of one attribute.

    ``lock`` is the attribute name of the lock object on the same
    instance; ``rw`` marks a readers-writer lock (``read_locked()`` /
    ``write_locked()`` context managers) whose read mode does not license
    writes.
    """

    lock: str
    rw: bool = False


#: class -> {attribute: GuardSpec} for every decorated class (introspection)
_REGISTRY: dict[type, dict[str, GuardSpec]] = {}


def guarded_by(lock: str, *attributes: str, rw: bool = False) -> Callable[[_C], _C]:
    """Declare that *attributes* of the decorated class are guarded by *lock*.

    Stackable — declare several locks on one class with one decorator per
    lock.  The declarations merge into ``cls.__guarded_attributes__``; a
    later declaration for an already-guarded attribute replaces the
    earlier one (nearest decorator to the class wins last).
    """
    if not isinstance(lock, str) or not lock:
        raise TypeError("guarded_by() needs a non-empty lock attribute name")
    if not attributes:
        raise TypeError("guarded_by() needs at least one guarded attribute name")
    spec = GuardSpec(lock=lock, rw=bool(rw))

    def decorate(cls: _C) -> _C:
        # copy: subclasses must not mutate a base class's declaration table
        table = dict(getattr(cls, GUARD_ATTRIBUTE, {}))
        for attribute in attributes:
            if not isinstance(attribute, str) or not attribute:
                raise TypeError(f"bad guarded attribute name: {attribute!r}")
            table[attribute] = spec
        setattr(cls, GUARD_ATTRIBUTE, table)
        _REGISTRY[cls] = table
        return cls

    return decorate


def holds_lock(lock: str) -> Callable[[_F], _F]:
    """Declare that the decorated method runs with *lock* already held.

    The static checker then treats the whole method body as inside the
    critical section (exclusive mode).  The contract that every caller
    really does hold the lock is the caller's to keep — declare it only on
    private helpers whose call sites are all inside ``with self.<lock>``
    blocks.
    """
    if not isinstance(lock, str) or not lock:
        raise TypeError("holds_lock() needs a non-empty lock attribute name")

    def decorate(func: _F) -> _F:
        held = set(getattr(func, HOLDS_ATTRIBUTE, frozenset())) | {lock}
        func.__holds_locks__ = frozenset(held)
        return func

    return decorate


def kernel(func: _F) -> _F:
    """Mark a numeric hot-path kernel as a timing hook.

    The wrapper records per-call wall-clock seconds on the instance's
    ``kernel_timer`` when one is attached (see ``attach_kernel_timer`` on
    the coverage classes); with no timer the overhead is one attribute
    lookup.
    """
    name = func.__name__

    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        timer = getattr(args[0], "kernel_timer", None) if args else None
        if timer is None:
            return func(*args, **kwargs)
        started = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            timer.record(name, time.perf_counter() - started)

    return cast(_F, wrapper)


def guarded_attributes(cls: type) -> Mapping[str, GuardSpec]:
    """The merged ``{attribute: GuardSpec}`` declarations of *cls* (may be empty)."""
    return dict(getattr(cls, GUARD_ATTRIBUTE, {}))


def held_locks(func: Callable) -> frozenset[str]:
    """The locks a callable declared via :func:`holds_lock` (may be empty)."""
    return frozenset(getattr(func, HOLDS_ATTRIBUTE, frozenset()))


def guard_registry() -> Mapping[type, Mapping[str, GuardSpec]]:
    """Snapshot of every ``guarded_by``-decorated class seen so far."""
    return {cls: dict(table) for cls, table in _REGISTRY.items()}
