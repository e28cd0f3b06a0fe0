"""In-process span tracer that wraps the program's public entry points.

Nothing under ``src/`` is instrumented.  While a :class:`Tracer` is
installed it replaces chosen public functions and methods with thin
wrappers that open a span, call the original and close the span;
:meth:`Tracer.restore` puts every original back.  A function imported into
other modules with ``from x import f`` is replaced in every ``repro``
module that holds it, so calls through any of those names are seen.

Each span records ``(name, start_ns, end_ns, parent, run_id)``.  Spans
stay in memory and are written out once, at the end (:meth:`dump`).  A
span's *self* time is its duration minus the durations of its direct
children; because spans nest strictly (one thread), the self times of all
spans under a root add up to the root's duration exactly.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_ns = time.perf_counter_ns


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self._name_idx: Dict[str, int] = {}
        # Parallel columns, one entry per span (cheap to append, cheap to dump).
        self.name_of: List[int] = []
        self.start: List[int] = []
        self.end: List[int] = []
        self.parent: List[int] = []
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        self._patched: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------- #

    def _intern(self, name: str) -> int:
        idx = self._name_idx.get(name)
        if idx is None:
            idx = self._name_idx[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.name_of.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(_ns())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = _ns()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed out of order (top {popped})")

    def span(self, name: str):
        tracer = self

        class _Span:
            def __enter__(self):
                self.sid = tracer.open(name)
                return self

            def __exit__(self, *exc):
                tracer.close(self.sid)
                return False

        return _Span()

    def wrap(self, name: str, fn: Callable, key: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``key(*args)`` (if given) is tallied too."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key is not None:
                tracer.counts[(name, key(*args, **kwargs))] += 1
            sid = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid)

        return traced

    # -- patching ------------------------------------------------------- #

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_method(self, cls, attr: str, name: str, key=None) -> None:
        self._set(cls, attr, self.wrap(name, cls.__dict__[attr], key))

    def patch_function(self, fn: Callable, name: str, key=None) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that binds it."""
        traced = self.wrap(name, fn, key)
        for module in list(sys.modules.values()):
            mod_name = getattr(module, "__name__", "") or ""
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, traced)

    def patch_module_functions(self, module, name: str) -> None:
        """Wrap every public function defined in ``module``."""
        for attr, value in list(vars(module).items()):
            if (
                callable(value)
                and not attr.startswith("_")
                and getattr(value, "__module__", None) == module.__name__
                and type(value).__name__ == "function"
            ):
                self.patch_function(value, name)

    def patch_dict(self, table: dict, key, name: str) -> None:
        original = table[key]
        self._patched.append((table, key, original))
        table[key] = self.wrap(name, original)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------- #

    def self_times(self, root: int) -> Dict[str, float]:
        """Seconds of self time per span name, over ``root`` and below."""
        n = len(self.start)
        child_sum = [0] * n
        inside = [False] * n
        inside[root] = True
        for sid in range(root + 1, n):
            p = self.parent[sid]
            if p >= 0 and inside[p]:
                inside[sid] = True
                child_sum[p] += self.end[sid] - self.start[sid]
        out: Dict[str, float] = defaultdict(float)
        for sid in range(root, n):
            if inside[sid]:
                name = self.names[self.name_of[sid]]
                out[name] += (self.end[sid] - self.start[sid] - child_sum[sid]) / 1e9
        return dict(out)

    def span_count(self, name: str) -> int:
        idx = self._name_idx.get(name)
        return 0 if idx is None else sum(1 for i in self.name_of if i == idx)

    def dump(self, path) -> None:
        """Write every span (columnar, gzip JSON) for offline inspection."""
        payload = {
            "run_id": self.run_id,
            "names": self.names,
            "fields": ["name", "start_ns", "end_ns", "parent"],
            "name": self.name_of,
            "start_ns": self.start,
            "end_ns": self.end,
            "parent": self.parent,
        }
        with gzip.open(path, "wt") as handle:
            json.dump(payload, handle)
