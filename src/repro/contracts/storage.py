"""Undo-journaled contract storage.

A contract call pays for what it mutates, not for the size of the storage:
while a call runs, every mutation of the contract's attributes, of the
``dict``/``list`` values reachable from them and of the record objects they
hold appends its inverse to the call's *journal*; a revert replays the journal
backwards, a successful call drops it.  Outside a call (constructors, tests)
nothing is journaled.

Values entering storage are *adopted*: scalars, tuples and ``FrozenDict`` pass
through, plain ``dict``/``list`` become :class:`TrackedDict`/:class:`TrackedList`
(subclasses, so equality, iteration, ``json`` and the state root are
unchanged; they copy and pickle to plain containers), record objects derive
from :class:`StorageRecord`, and any other type is rejected with a
``TypeError`` — a mutable value the journal cannot see would silently survive
a revert.

The journal belongs to the call, and one call runs at a time, so the armed
journal is one module-level slot: the containers carry no back-reference to
their contract.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.ledger.transaction import FrozenDict


class _Call:
    journal: Optional[List[tuple]] = None  # armed only between begin() and end()


_call = _Call()
_MISSING = object()


def begin() -> None:
    """Arm a fresh journal for the call starting now."""
    _call.journal = []


def end(revert: bool) -> None:
    """Disarm the journal, undoing its mutations first when ``revert``."""
    journal, _call.journal = _call.journal, None
    if revert:
        for undo, *args in reversed(journal or ()):
            undo(*args)


def _restore_attribute(namespace: dict, name: str, old: Any) -> None:
    if old is _MISSING:
        namespace.pop(name, None)
    else:
        namespace[name] = old


def _restore_dict(target: dict, saved: dict) -> None:
    dict.clear(target)
    dict.update(target, saved)


class StorageRecord:
    """Base of objects kept in contract storage: attribute binding is journaled."""

    def __setattr__(self, name: str, value: Any) -> None:
        journal = _call.journal
        if journal is not None:
            journal.append((_restore_attribute, self.__dict__, name,
                            self.__dict__.get(name, _MISSING)))
        object.__setattr__(self, name, adopt(value))

    def __delattr__(self, name: str) -> None:
        journal = _call.journal
        if journal is not None and name in self.__dict__:
            journal.append((_restore_attribute, self.__dict__, name, self.__dict__[name]))
        object.__delattr__(self, name)


class TrackedDict(dict):
    """A ``dict`` in contract storage.  Overwrites and inserts journal their
    exact inverse; the rarer mutators save the whole (shallow) mapping, which
    also keeps insertion order across a rollback."""

    __slots__ = ()

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        dict.__init__(self, ((key, adopt(value))
                             for key, value in dict(*args, **kwargs).items()))

    def __reduce__(self):
        return (dict, (dict(self),))

    def _save(self) -> None:
        journal = _call.journal
        if journal is not None:
            journal.append((_restore_dict, self, dict(self)))

    def __setitem__(self, key: Any, value: Any) -> None:
        journal = _call.journal
        if journal is not None:
            if key in self:
                journal.append((dict.__setitem__, self, key, self[key]))
            else:
                journal.append((dict.__delitem__, self, key))
        dict.__setitem__(self, key, adopt(value))

    def setdefault(self, key: Any, default: Any = None) -> Any:
        if key not in self:
            self[key] = default
        return self[key]

    def update(self, *args: Any, **kwargs: Any) -> None:
        self._save()
        dict.update(self, TrackedDict(*args, **kwargs))

    def __ior__(self, other: Any) -> "TrackedDict":
        self.update(other)
        return self


class TrackedList(list):
    """A ``list`` in contract storage.  ``append`` journals a ``pop``; every
    other mutator saves the whole (shallow) list first."""

    __slots__ = ()

    def __init__(self, items: Any = ()) -> None:
        list.__init__(self, map(adopt, items))

    def __reduce__(self):
        return (list, (list(self),))

    def _save(self) -> None:
        journal = _call.journal
        if journal is not None:
            journal.append((list.__setitem__, self, slice(None), list(self)))

    def append(self, value: Any) -> None:
        journal = _call.journal
        if journal is not None:
            journal.append((list.pop, self))
        list.append(self, adopt(value))

    def extend(self, items: Any) -> None:
        self._save()
        list.extend(self, map(adopt, items))

    def __iadd__(self, items: Any) -> "TrackedList":
        self.extend(items)
        return self

    def insert(self, index: int, value: Any) -> None:
        self._save()
        list.insert(self, index, adopt(value))

    def __setitem__(self, index: Any, value: Any) -> None:
        self._save()
        list.__setitem__(self, index,
                         TrackedList(value) if isinstance(index, slice) else adopt(value))


def _saving(base: Callable) -> Callable:
    """``base`` (a mutator that stores no new value) behind a whole-container save."""
    def mutator(self, *args: Any, **kwargs: Any) -> Any:
        self._save()
        return base(self, *args, **kwargs)
    mutator.__name__ = base.__name__
    return mutator


for _name in ("__delitem__", "pop", "popitem", "clear"):
    setattr(TrackedDict, _name, _saving(getattr(dict, _name)))
for _name in ("__delitem__", "__imul__", "pop", "remove", "clear", "sort", "reverse"):
    setattr(TrackedList, _name, _saving(getattr(list, _name)))

_PASS_THROUGH = (type(None), bool, int, float, str, bytes, FrozenDict,
                 StorageRecord, TrackedDict, TrackedList)


def adopt(value: Any) -> Any:
    """``value`` in the form contract storage may hold (see the module docstring)."""
    if isinstance(value, _PASS_THROUGH):
        return value
    if type(value) is dict:
        return TrackedDict(value)
    if type(value) is list:
        return TrackedList(value)
    if type(value) is tuple:
        adopted = tuple(map(adopt, value))
        return adopted if any(a is not b for a, b in zip(adopted, value)) else value
    raise TypeError(
        f"contract storage cannot hold a {type(value).__name__}: use scalars, tuples, "
        f"dict, list or a StorageRecord so that a reverted call can be rolled back")
