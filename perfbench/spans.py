"""Spans around the functions that tsim's protocol and CLI modules call.

The recorder wraps the names that ``tsim.protocol`` and ``tsim.cli`` resolve
at call time: the tsim functions bound in their namespaces, and the attributes
they read from tsim modules they hold (``model.build_h1``, ``er.erasure_phases``,
``tio.write_trajectory``).  Nothing inside the program is edited, and a wrapped
name that a later version of tsim no longer has is simply never called.  A
span's layer is the tsim module that defines the wrapped function.
"""

from __future__ import annotations

import functools
import types
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float = 0.0
    child: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


def _is_tsim_function(obj) -> bool:
    return (isinstance(obj, types.FunctionType)
            and getattr(obj, "__module__", "").startswith("tsim."))


def _code_names(code: types.CodeType, out: set) -> None:
    out.update(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            _code_names(const, out)


def _names_used(module: types.ModuleType) -> set:
    """Global and attribute names read by the functions and methods that
    ``module`` defines."""
    names: set = set()
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, types.FunctionType):
            _code_names(obj.__code__, names)
        elif isinstance(obj, type):
            for member in vars(obj).values():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if isinstance(member, types.FunctionType):
                    _code_names(member.__code__, names)
    return names


def call_targets(*callers: types.ModuleType) -> list[tuple]:
    """(owner namespace, attribute, function, layer) for every public tsim
    function that the ``callers`` modules resolve at call time."""
    targets = []
    seen = set()

    def add(owner, attr, fn):
        if attr.startswith("_") or not _is_tsim_function(fn):
            return
        if (id(owner), attr) in seen:
            return
        seen.add((id(owner), attr))
        targets.append((owner, attr, fn, fn.__module__.rsplit(".", 1)[1]))

    for mod in callers:
        used = _names_used(mod)
        for name, obj in list(vars(mod).items()):
            if isinstance(obj, types.ModuleType) and obj.__name__.startswith("tsim."):
                for attr in sorted(used):
                    add(obj, attr, getattr(obj, attr, None))
            else:
                add(mod, name, obj)
    return targets


class Recorder:
    """Keeps spans in memory; ``take`` hands them over and starts afresh.

    ``probes`` maps a layer or a function name to a callable
    ``probe(span, args, result)`` that stores counts in ``span.info``; it runs
    after the span is closed.  With ``keep`` every span taken is also
    appended to ``kept``.
    """

    def __init__(self, probes: dict | None = None, keep: bool = False):
        self.probes = probes or {}
        self.kept: list[Span] | None = [] if keep else None
        self._spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0
        self._wrappers: dict = {}
        self._patched: list[tuple] = []

    def _open(self, layer: str, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(self._next_id, parent, layer, name, perf_counter())
        self._next_id += 1
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child += span.duration
        self._spans.append(span)

    @contextmanager
    def region(self, layer: str, name: str):
        span = self._open(layer, name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, layer: str):
        wrapper = self._wrappers.get(fn)
        if wrapper is not None:
            return wrapper
        name = fn.__name__
        probe = self.probes.get(name) or self.probes.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if probe is not None:
                probe(span, args, result)
            return result

        self._wrappers[fn] = wrapper
        return wrapper

    def install(self, targets) -> None:
        for owner, attr, fn, layer in targets:
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, layer))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def take(self) -> list[Span]:
        spans, self._spans = sorted(self._spans, key=lambda s: s.id), []
        if self.kept is not None:
            self.kept.extend(spans)
        return spans
