"""Waterfall rendering: tree building, self time, orphans, error marks."""

from repro.observability.render import build_tree, render_waterfall
from repro.observability.spans import Span


def _span(name, span_id, parent_id=None, start=0.0, dur=0.1, **kw):
    return Span(name=name, trace_id="tid", span_id=span_id,
                parent_id=parent_id, start_s=start, duration_s=dur, **kw)


class TestBuildTree:
    def test_parents_and_start_order(self):
        spans = [
            _span("late-child", "c2", "r", start=2.0),
            _span("root", "r", start=0.0, dur=3.0),
            _span("early-child", "c1", "r", start=1.0),
        ]
        roots, children = build_tree(spans)
        assert [s.name for s in roots] == ["root"]
        assert [s.name for s in children["r"]] == ["early-child",
                                                   "late-child"]

    def test_orphans_attach_under_the_root(self):
        # A worker span whose dispatch-attempt parent never shipped must
        # still appear in the tree.
        spans = [
            _span("root", "r", start=0.0, dur=3.0),
            _span("orphan", "o", parent_id="gone", start=1.0),
        ]
        roots, children = build_tree(spans)
        assert [s.name for s in roots] == ["root"]
        assert [s.name for s in children["r"]] == ["orphan"]


class TestRenderWaterfall:
    def test_empty(self):
        assert render_waterfall([]) == "(no spans)"

    def test_header_names_durations_and_percentages(self):
        spans = [
            _span("root", "r", start=0.0, dur=0.2),
            _span("child", "c", "r", start=0.05, dur=0.1,
                  attrs={"shard": 0}),
        ]
        text = render_waterfall(spans)
        lines = text.split("\n")
        assert lines[0] == "trace tid  (2 spans, 200.00 ms total)"
        assert "root" in lines[1] and "200.00ms" in lines[1]
        # Root self time excludes the child: 100 ms = 50% of the trace.
        assert "self  100.00ms (50.0%)" in lines[1]
        assert "child" in lines[2] and "shard=0" in lines[2]
        # The child line is indented one level below the root.
        assert lines[2].index("child") > lines[1].index("root")

    def test_error_spans_are_marked(self):
        spans = [
            _span("root", "r", dur=0.2),
            _span("failed", "f", "r", dur=0.1, status="error"),
        ]
        text = render_waterfall(spans)
        failed_line = next(l for l in text.split("\n") if "failed" in l)
        assert " !" in failed_line

    def test_bar_reflects_offset(self):
        spans = [
            _span("root", "r", start=0.0, dur=1.0),
            _span("late", "l", "r", start=0.5, dur=0.5),
        ]
        text = render_waterfall(spans)
        late_line = next(l for l in text.split("\n") if "late" in l)
        bar = late_line[1:late_line.index("]")]
        # Second half of the window: dots then hashes.
        assert bar.startswith("............")
        assert bar.endswith("#")
