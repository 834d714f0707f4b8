"""Tests of the benchmark's own tracer and of BENCHMARK.json's metric lists."""

from __future__ import annotations

import json
import sys
import textwrap
import types
from pathlib import Path

import pytest

from run import END_TO_END, per_layer_units
from tracer import Tracer
from worker import import_pipedreams


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


def make_module(name: str, source: str, **names) -> types.ModuleType:
    mod = types.ModuleType(name)
    mod.__dict__.update(names)
    exec(textwrap.dedent(source), mod.__dict__)
    sys.modules[name] = mod
    return mod


@pytest.fixture
def toy():
    clock = FakeClock()
    a = make_module("toypkg.a", """
        def inner():
            clock.advance(30)
            return [1, 2, 3]

        def outer():
            clock.advance(10)
            inner()
            clock.advance(5)
            inner()
            return "done"

        class Vec:
            def __init__(self, k):
                self.k = k

            def __mul__(self, other):
                clock.advance(4)
                return Vec(self.k * (other if isinstance(other, int) else other.k))

            __rmul__ = __mul__

            @classmethod
            def make(cls, k):
                clock.advance(2)
                return cls(k)
        """, clock=clock)
    b = make_module("toypkg.b", """
        def caller():
            clock.advance(7)
            return inner()
        """, clock=clock, inner=a.inner)
    # The package re-exports a function under its submodule's name, as
    # pipedreams/__init__.py does with ``catalan``.
    pkg = make_module("toypkg", "", a=a.outer, b=b, inner=a.inner)
    yield types.SimpleNamespace(clock=clock, a=a, b=b, pkg=pkg)
    for name in ("toypkg", "toypkg.a", "toypkg.b"):
        sys.modules.pop(name, None)


def test_self_time_of_nested_calls(toy):
    tracer = Tracer(clock=toy.clock)
    tracer.install("toypkg", "a", "inner", count=len)
    tracer.install("toypkg", "a", "outer")
    assert toy.a.outer() == "done"
    summary = tracer.summary()
    assert summary["a.outer"] == {"calls": 1, "total_ns": 75, "self_ns": 15, "count": 0}
    assert summary["a.inner"] == {"calls": 2, "total_ns": 60, "self_ns": 60, "count": 6}
    assert list(tracer.span_parent) == [-1, 0, 0]
    assert list(tracer.span_start) == [0, 10, 45]
    assert list(tracer.span_end) == [75, 40, 75]


def test_rebinds_every_module_that_imported_the_name(toy):
    original = toy.a.inner
    tracer = Tracer(clock=toy.clock)
    tracer.install("toypkg", "a", "inner")
    assert toy.b.inner is toy.a.inner is toy.pkg.inner is not original
    assert toy.pkg.a.__name__ == "outer"  # the shadowing re-export is untouched
    toy.b.caller()
    assert tracer.summary()["a.inner"]["calls"] == 1
    tracer.uninstall()
    assert toy.b.inner is toy.a.inner is toy.pkg.inner is original


def test_methods_aliases_and_classmethods(toy):
    Vec = toy.a.Vec
    tracer = Tracer(clock=toy.clock)
    tracer.install("toypkg", "a", "Vec.__mul__")
    tracer.install("toypkg", "a", "Vec.make")
    assert Vec.__dict__["__rmul__"] is Vec.__dict__["__mul__"]
    v = Vec.make(3)
    assert isinstance(v, Vec) and (v * 2).k == 6 and (5 * v).k == 15
    summary = tracer.summary()
    assert summary["a.Vec.__mul__"]["calls"] == 2
    assert summary["a.Vec.make"] == {"calls": 1, "total_ns": 2, "self_ns": 2, "count": 0}
    tracer.uninstall()
    assert isinstance(Vec.__dict__["make"], classmethod)
    assert Vec.__dict__["__mul__"].__name__ == "__mul__"
    assert not hasattr(Vec.__dict__["__mul__"], "__wrapped__")


def test_spans_file(toy, tmp_path):
    tracer = Tracer(clock=toy.clock)
    tracer.install("toypkg", "a", "inner")
    toy.b.caller()
    assert tracer.write_spans(tmp_path / "spans.tsv") == 1
    lines = (tmp_path / "spans.tsv").read_text().splitlines()
    assert lines == ["span\tname\tstart_ns\tend_ns\tparent", "0\ta.inner\t7\t37\t-1"]


def test_nested_calls_across_pipedreams_modules():
    pd = import_pipedreams()
    tracer = Tracer()
    tracer.install("pipedreams", "rcgraph", "enumerate_rcgraphs", count=len)
    tracer.install("pipedreams", "poly", "schubert_polynomial")
    tracer.install("pipedreams", "catalan", "q_catalan")
    try:
        pd.schubert_polynomial(pd.zigzag(3))
        sys.modules["pipedreams.catalan"].q_catalan(4)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["rcgraph.enumerate_rcgraphs"]["count"] == 5
    poly_span = list(tracer.span_name).index(tracer.names.index("poly.schubert_polynomial"))
    enum_span = list(tracer.span_name).index(tracer.names.index("rcgraph.enumerate_rcgraphs"))
    assert tracer.span_parent[enum_span] == poly_span
    assert summary["catalan.q_catalan"]["calls"] >= 1
    assert sys.modules["pipedreams.poly"].enumerate_rcgraphs is pd.enumerate_rcgraphs
    assert not hasattr(pd.enumerate_rcgraphs, "__wrapped__")


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
