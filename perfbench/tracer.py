"""In-memory span tracer that wraps library functions from outside.

A span records a name, a start and end time (``time.perf_counter``) and the
index of the span that was open when it started.  Spans live in flat arrays
until the run ends; self time is computed afterwards from the tree.

``Tracer.install`` replaces a function in every ``dualhash.*`` namespace that
binds the same object (modules import each other's names directly, and
``acceptance.CRITERIA`` holds its criteria in a registry dict), or a method on
its class.  ``Tracer.uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

PACKAGE = "dualhash"


@dataclass(frozen=True)
class Target:
    """One function or method to wrap.

    ``where`` is "module:attr" or "module:Class.attr".  ``layer`` is the metric
    prefix.  ``span`` says whether calls are timed; generator functions are
    only counted, since timing them would time the generator's creation.
    ``count(counter, args, kwargs)`` adds argument-derived counts.
    """

    where: str
    layer: str
    span: bool = True
    count: Callable | None = None


def self_times(name_ids, parents, starts, ends, n_names: int):
    """Per-name (total, self) seconds from a span forest.

    A span's self time is its duration minus the durations of its direct
    children; children of one span never overlap because spans come from a
    single thread.
    """
    parents = np.asarray(parents, dtype=np.int64)
    dur = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    covered = np.zeros_like(dur)
    has_parent = parents >= 0
    np.add.at(covered, parents[has_parent], dur[has_parent])
    names = np.asarray(name_ids, dtype=np.int64)
    total = np.bincount(names, weights=dur, minlength=n_names)
    self_ = np.bincount(names, weights=dur - covered, minlength=n_names)
    return total, self_


def _package_namespaces():
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            yield mod


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, object, object]] = []

    # -- spans ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        self._end.append(0.0)
        self._start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def summary(self) -> dict[str, float]:
        """Metric name -> value: ``<span>.s``, ``<span>.self_s`` and counts."""
        out: dict[str, float] = dict(self.counts)
        total, self_ = self_times(
            self._name, self._parent, self._start, self._end, len(self._names)
        )
        for i, name in enumerate(self._names):
            out[f"{name}.s"] = float(total[i])
            out[f"{name}.self_s"] = float(self_[i])
        return out

    def dump(self, path) -> None:
        """Write every span to an .npz file (names are indexed by ``name``)."""
        np.savez(
            path,
            names=np.array(self._names, dtype=str),
            name=np.frombuffer(self._name, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
        )

    # -- wrapping ---------------------------------------------------------

    def _wrapper(self, fn, target: Target):
        calls_key = f"{target.layer}.calls"
        count = target.count
        counts = self.counts

        if not target.span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[calls_key] += 1
                if count is not None:
                    count(counts, args, kwargs)
                return fn(*args, **kwargs)

            return counted

        name_id = self._name_id(target.layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[calls_key] += 1
            if count is not None:
                count(counts, args, kwargs)
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _set(self, holder, key, value) -> None:
        if isinstance(holder, dict):
            self._patches.append((holder, key, holder[key]))
            holder[key] = value
        else:
            self._patches.append((holder, key, holder.__dict__[key]))
            setattr(holder, key, value)

    def install(self, targets) -> None:
        """Wrap every target.  A target the library no longer has is named on
        stderr and skipped, so its metrics read 0 instead of the run failing."""
        for target in targets:
            module_name, path = target.where.split(":")
            cls_name, _, attr = path.rpartition(".")
            owner = sys.modules.get(module_name)
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            if owner is None or attr not in vars(owner):
                print(f"trace: {target.where} not found, skipped", file=sys.stderr)
                continue
            original = vars(owner)[attr]
            if cls_name:
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrapper(original.__func__, target))
                else:
                    wrapped = self._wrapper(original, target)
                self._set(owner, attr, wrapped)
                continue
            wrapped = self._wrapper(original, target)
            for ns in _package_namespaces():
                for key, value in list(vars(ns).items()):
                    if key.startswith("__"):
                        continue
                    if value is original:
                        self._set(ns, key, wrapped)
                    elif isinstance(value, dict):
                        self._patch_registry(value, original, wrapped)

    def _patch_registry(self, registry: dict, original, wrapped) -> None:
        """Rebind ``original`` where a module-level dict holds it, directly
        or inside a tuple value."""
        for key, value in list(registry.items()):
            if value is original:
                self._set(registry, key, wrapped)
            elif isinstance(value, tuple) and any(v is original for v in value):
                self._set(
                    registry, key,
                    tuple(wrapped if v is original else v for v in value),
                )

    def uninstall(self) -> None:
        while self._patches:
            holder, key, value = self._patches.pop()
            if isinstance(holder, dict):
                holder[key] = value
            else:
                setattr(holder, key, value)
