import sys
import types
from time import perf_counter

import pytest

import layers
from tracer import TraceError, Tracer

TOY_A = '''
def leaf(x):
    return x * 2

def mid(x):
    return leaf(x) + leaf(x + 1)

def root(x):
    return mid(x) + mid(x + 2) + leaf(0)

def make_field(k):
    def field(x):
        return leaf(x) + k
    return field

class Box:
    def __init__(self, v):
        self.v = v

    def get(self):
        return mid(self.v)
'''

TOY_B = '''
from toypkg.a import leaf, make_field

def twice(x):
    return leaf(leaf(x))

def use_field(x):
    return make_field(3)(x)
'''


@pytest.fixture
def toypkg():
    pkg = types.ModuleType("toypkg")
    sys.modules["toypkg"] = pkg
    for name, code in (("a", TOY_A), ("b", TOY_B)):
        mod = types.ModuleType(f"toypkg.{name}")
        sys.modules[f"toypkg.{name}"] = mod
        exec(code, mod.__dict__)
        setattr(pkg, name, mod)
    yield pkg
    for name in ("toypkg", "toypkg.a", "toypkg.b"):
        sys.modules.pop(name, None)


def _tracer(**kw):
    return Tracer("toypkg", ["a.leaf", "a.mid", "a.root", "a.Box.get", "b.twice"],
                  factories={"a.make_field": "a.field"}, **kw)


def test_self_times_sum_to_root_duration(toypkg):
    with _tracer() as tr:
        toypkg.a.root(3)
    roots = [i for i, s in enumerate(tr.spans) if s[3] == -1]
    assert len(roots) == 1
    _, start, end, _, _ = tr.spans[roots[0]]
    assert sum(tr.self_times()) == pytest.approx(end - start, rel=1e-9, abs=1e-12)
    assert all(t >= 0 for t in tr.self_times())
    summary = tr.summary()
    assert summary["a.root"][0] == 1
    assert summary["a.mid"][0] == 2
    assert summary["a.leaf"][0] == 5
    assert tr.count_children(["a.leaf"], ["a.mid"]) == 4


def test_wrapped_functions_return_identical_results(toypkg):
    a, b = toypkg.a, toypkg.b
    plain = (a.root(5), b.twice(4), b.use_field(2), a.Box(7).get())
    originals = (a.leaf, b.leaf, a.Box.get)
    with _tracer() as tr:
        assert b.leaf is not originals[1]      # the by-name import is rebound too
        traced = (a.root(5), b.twice(4), b.use_field(2), a.Box(7).get())
    assert traced == plain
    assert (a.leaf, b.leaf, a.Box.get) == originals
    names = set(tr.summary())
    assert {"a.root", "b.twice", "a.field", "a.Box.get", "a.leaf"} <= names


def test_operation_ids(toypkg):
    with _tracer(op_roots=["a.mid"]) as tr:
        toypkg.a.root(1)
        toypkg.a.leaf(1)
    ops = {tr.names[s[0]]: set() for s in tr.spans}
    for s in tr.spans:
        ops[tr.names[s[0]]].add(s[4])
    assert len(ops["a.root"]) == 1
    assert len(ops["a.mid"]) == 2 and not ops["a.mid"] & ops["a.root"]
    assert len({s[4] for s in tr.spans if s[3] == -1}) == 2


def test_unresolved_name_fails_loudly(toypkg):
    tr = Tracer("toypkg", ["a.leaf", "a.renamed", "a.Box.gone", "c.x"])
    with pytest.raises(TraceError, match="a.renamed, a.Box.gone, c.x"):
        tr.install()
    assert toypkg.a.leaf.__name__ == "leaf" and not hasattr(toypkg.a.leaf, "__wrapped__")


def test_overhead_is_small(toypkg):
    t0 = perf_counter()
    for _ in range(2000):
        toypkg.a.leaf(1)
    plain = perf_counter() - t0
    with _tracer() as tr:
        t0 = perf_counter()
        for _ in range(2000):
            toypkg.a.leaf(1)
        traced = perf_counter() - t0
    assert len(tr.spans) == 2000
    assert traced < plain + 0.5


def test_every_layer_name_resolves_in_sympmor():
    import sympmor.cli  # noqa: F401  (loads every module the layer map names)
    tracer = Tracer("sympmor", layers.TRACED, layers.FACTORIES)
    with tracer:
        from sympmor import cli, integrators, reduction
        assert cli.implicit_midpoint is integrators.implicit_midpoint
        assert reduction.implicit_midpoint is integrators.implicit_midpoint
        assert hasattr(integrators.implicit_midpoint, "__wrapped__")
    assert not hasattr(integrators.implicit_midpoint, "__wrapped__")
