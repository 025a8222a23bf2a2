import time

import pytest

from f2cbench.trace import SETUP_REP, Tracer, layer_table


def span(name, start, end, parent, rep=0):
    return [name, start, end, parent, rep]


def test_self_time_is_duration_minus_direct_children():
    #   root 0..10
    #     a 1..4          (self 3 - 1 = 2)
    #       b 2..3        (self 1)
    #     a 5..9          (self 4 - 2 = 2)
    #       c 6..8        (self 2 - 1 = 1)
    #         b 6.5..7.5  (self 1)
    spans = [
        span("root", 0, 10, -1),
        span("a", 1, 4, 0),
        span("b", 2, 3, 1),
        span("a", 5, 9, 0),
        span("c", 6, 8, 3),
        span("b", 6.5, 7.5, 4),
    ]
    table = layer_table([spans])
    assert table["root"] == {"calls": 1, "total_s": 10, "self_s": 3}
    assert table["a"] == {"calls": 2, "total_s": 7, "self_s": 4}
    assert table["b"] == {"calls": 2, "total_s": 2, "self_s": 2}
    assert table["c"] == {"calls": 1, "total_s": 2, "self_s": 1}
    # Everything under the root sums to the root.
    assert sum(entry["self_s"] for entry in table.values()) == 10


def test_setup_spans_are_kept_apart_from_the_reps():
    spans = [span("gen", 0, 2, -1, SETUP_REP), span("root", 3, 5, -1, 0)]
    assert set(layer_table([spans])) == {"root"}
    assert set(layer_table([spans], setup=True)) == {"gen"}


class Base:
    def inherited(self, x):
        return x + 1


class Thing(Base):
    def outer(self, x):
        return self.inner(x) * 2

    def inner(self, x):
        time.sleep(0.002)
        return x + 1

    @classmethod
    def build(cls, x):
        return cls().inner(x)


def test_wrapped_calls_record_nested_spans_only_inside_an_armed_root():
    tracer = Tracer()
    rows = []
    tracer.wrap(Thing, "outer", "layer.outer", lambda counts, args, result: rows.append(result))
    tracer.wrap(Thing, "inner", lambda args: "layer.inner")
    tracer.wrap(Thing, "build", "layer.build")
    tracer.wrap(Thing, "inherited", "layer.inherited")
    try:
        assert Thing().outer(1) == 4  # not armed: nothing recorded
        assert tracer.span_count() == 0

        tracer.armed = True
        tracer.rep = 0
        with tracer.root("rep"):
            assert Thing().outer(1) == 4
            assert Thing.build(2) == 3
            assert Thing().inherited(1) == 2
        assert Thing().outer(1) == 4  # outside a root: still nothing
    finally:
        tracer.uninstall()

    assert rows == [4]
    table = tracer.layers()
    assert {name: entry["calls"] for name, entry in table.items()} == {
        "rep": 1, "layer.outer": 1, "layer.inner": 2, "layer.build": 1, "layer.inherited": 1,
    }
    assert table["layer.outer"]["self_s"] < table["layer.outer"]["total_s"]
    self_sum = sum(entry["self_s"] for entry in tracer.layers(main_thread_only=True).values())
    assert self_sum == pytest.approx(table["rep"]["total_s"])
    assert self_sum == pytest.approx(tracer.rooted_wall_s, rel=0.02)
    assert tracer.edges()["layer.outer>layer.inner"]["calls"] == 1
    assert len(tracer.durations("layer.inner")) == 2

    # uninstall() restored the originals, and un-shadowed the inherited one.
    assert not hasattr(Thing.outer, "__wrapped__")
    assert "inherited" not in vars(Thing)
    assert isinstance(vars(Thing)["build"], classmethod)
