"""Unit tests of the span arithmetic and the patching tracer."""

import sys
import types

import pytest

from spans import LayerTotals, Span, Tracer, covered, layer_metrics, parse_importtime, self_times


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == 4.0  # union [1, 5]
    assert covered([(6.0, 7.0), (1.0, 2.0)], 0.0, 10.0) == 2.0  # unsorted, disjoint
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0  # clipped to [0, 10]
    assert covered([(1.0, 4.0), (2.0, 3.0)], 0.0, 10.0) == 3.0  # nested


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 1, "leaf", 2.0, 3.5),
        Span(3, 0, "b", 5.0, 6.0),
    ]
    own = self_times(spans)
    assert own == {0: 10.0 - 3.0 - 1.0, 1: 3.0 - 1.5, 2: 1.5, 3: 1.0}
    # Self times of a tree add up to the root's duration.
    assert sum(own.values()) == pytest.approx(10.0)


def test_layer_totals_sum_per_name():
    spans = [
        Span(0, None, "x", 0.0, 2.0, {"n": 3}),
        Span(1, 0, "y", 0.5, 1.0),
        Span(2, None, "x", 3.0, 4.0, {"n": 4}),
    ]
    t = LayerTotals.of(spans)
    assert t.self_s == {"x": 2.5, "y": 0.5}
    assert t.calls == {"x": 2, "y": 1}
    assert t.attr("x", "n") == 7 and t.first_attr("x", "n") == 3
    assert t.attr("absent", "n") == 0 and t.first_attr("absent", "n") == 0


def test_absent_layers_read_zero():
    metrics = layer_metrics(LayerTotals.of([]))
    assert metrics["oracle.simulate_continuous_s"] == 0.0
    assert metrics["dataprep.usable_ratio"] == 0.0
    assert metrics["estimator.solve_least_squares_calls"] == 0


def test_tracer_patches_where_looked_up_and_restores(monkeypatch):
    inner = types.ModuleType("fake_inner")
    outer = types.ModuleType("fake_outer")
    inner.work = lambda n: n * 2
    outer.work = inner.work  # a "from inner import work" in outer
    outer.run = lambda n: outer.work(n) + 1
    monkeypatch.setitem(sys.modules, "fake_inner", inner)
    monkeypatch.setitem(sys.modules, "fake_outer", outer)
    original_run, original_work = outer.run, outer.work

    ticks = iter(range(100))
    sites = [
        ("fake_outer", "run", "run", None),
        ("fake_outer", "work", "work", lambda fn, a, k, r: {"items": a[0]}),
    ]
    with Tracer(sites, clock=lambda: float(next(ticks))) as tracer:
        assert outer.run(5) == 11
        assert inner.work(1) == 2  # the unpatched name records nothing
    assert outer.run is original_run and outer.work is original_work
    assert [(s.name, s.parent, s.start, s.end) for s in tracer.spans] == [
        ("run", None, 0.0, 3.0),
        ("work", 0, 1.0, 2.0),
    ]
    assert tracer.spans[1].attrs == {"items": 5}
    assert self_times(tracer.spans) == {0: 2.0, 1: 1.0}


def test_tracer_restores_after_an_exception(monkeypatch):
    mod = types.ModuleType("fake_mod")
    mod.f = lambda: 1 / 0
    monkeypatch.setitem(sys.modules, "fake_mod", mod)
    original = mod.f
    with pytest.raises(ZeroDivisionError):
        with Tracer([("fake_mod", "f", "f", None)]) as tracer:
            mod.f()
    assert mod.f is original
    assert tracer.spans[0].end >= tracer.spans[0].start


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:       200 |        300 |     scipy._lib",
        "import time:        50 |        350 |   scipy",
        "import time:       400 |        800 |     scipy.signal",
        "import time:        30 |       1500 | asvid",
    ])
    assert parse_importtime(stderr) == {"import.asvid_s": 1500e-6, "import.scipy_s": 650e-6}
    with pytest.raises(ValueError):
        parse_importtime("import time:  1 |  1 | numpy")
