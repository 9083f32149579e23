"""In-memory span tracer that wraps a package's functions from the outside.

``Tracer.install`` resolves each traced name inside the package and replaces
every module-level binding of that function object across the package's
loaded modules (so a function imported by name into another module is traced
there too), or the attribute on its class for a method.  Factories get a
wrapper that wraps each closure they return.  A name that does not resolve
raises ``TraceError``, so a rename cannot silently drop a metric.

Each span is ``(name_id, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``op`` an operation id shared by the
spans of one batch, step or solve.  Spans stay in memory until written.
"""

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter


class TraceError(RuntimeError):
    """A traced name did not resolve, or the tracer was misused."""


class Tracer:
    def __init__(self, package, traced, factories=(), op_roots=(), hooks=None):
        self.package = package
        self.traced = list(traced)
        self.factories = dict(factories)
        self.op_roots = set(op_roots)
        self.hooks = dict(hooks or {})
        self.names = []
        self._ids = {}
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []
        self._next_op = 0
        self._patches = []
        self.origin = perf_counter()

    # -- recording -----------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        """Return fn wrapped so that each call records one span called name."""
        name_id = self._name_id(name)
        new_op = name in self.op_roots
        hook = self.hooks.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack:
                parent, op = stack[-1]
                if new_op:
                    self._next_op += 1
                    op = self._next_op
            else:
                parent = -1
                self._next_op += 1
                op = self._next_op
            index = len(spans)
            spans.append(None)
            stack.append((index, op))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent, op)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def wrap_factory(self, span_name, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return self.wrap(span_name, factory(*args, **kwargs))

        return make

    # -- installation ----------------------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return [mod for name, mod in list(sys.modules.items())
                if mod is not None and (name == self.package or name.startswith(prefix))]

    def _resolve(self, dotted):
        """(owner, attribute, original) for '<module>.<attr>' or '<module>.<Class>.<method>'."""
        parts = dotted.split(".")
        module = sys.modules.get(f"{self.package}.{parts[0]}")
        if module is None or len(parts) not in (2, 3):
            raise TraceError(f"cannot resolve traced name {dotted!r}")
        owner = module
        if len(parts) == 3:
            owner = getattr(module, parts[1], None)
            if not isinstance(owner, type):
                raise TraceError(f"cannot resolve traced name {dotted!r}")
            original = owner.__dict__.get(parts[2])
        else:
            original = getattr(module, parts[1], None)
        if not callable(original):
            raise TraceError(f"cannot resolve traced name {dotted!r}")
        return owner, parts[-1], original

    def _patch(self, owner, attr, original, replacement):
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, replacement)
            return
        for module in self._modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, replacement)

    def install(self):
        if self._patches:
            raise TraceError("tracer is already installed")
        plan, missing = [], []
        for dotted in self.traced:
            try:
                plan.append((dotted, None) + self._resolve(dotted))
            except TraceError:
                missing.append(dotted)
        for dotted, span_name in self.factories.items():
            try:
                plan.append((dotted, span_name) + self._resolve(dotted))
            except TraceError:
                missing.append(dotted)
        if missing:
            raise TraceError("traced names do not resolve: " + ", ".join(missing))
        for dotted, span_name, owner, attr, original in plan:
            replacement = (self.wrap(dotted, original) if span_name is None
                           else self.wrap_factory(span_name, original))
            self._patch(owner, attr, original, replacement)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ----------------------------------------------------------------

    def self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def summary(self):
        """{name: (calls, self seconds)} over all recorded spans."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            name = self.names[span[0]]
            calls[name] += 1
            self_s[name] += own
        return {name: (calls[name], self_s[name]) for name in calls}

    def count_children(self, names, parents):
        """Number of spans called one of names whose direct parent is one of parents."""
        names = {self._ids[n] for n in names if n in self._ids}
        parents = {self._ids[n] for n in parents if n in self._ids}
        spans = self.spans
        return sum(1 for s in spans if s[0] in names and s[3] >= 0 and spans[s[3]][0] in parents)

    def dump(self, path):
        """Write names and spans (times relative to the tracer's origin) as JSON."""
        origin = self.origin
        spans = [[n, start - origin, end - origin, parent, op]
                 for n, start, end, parent, op in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": spans,
                       "fields": ["name", "start_s", "end_s", "parent", "op"]}, fh)
