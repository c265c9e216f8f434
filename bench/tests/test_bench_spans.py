from bench.spans import Span, Tracer, covered, self_times


def test_covered_merges_overlaps_and_clips_to_parent():
    assert covered(0, 100, []) == 0
    assert covered(0, 100, [(10, 30), (20, 50)]) == 40
    assert covered(0, 100, [(60, 70), (10, 20)]) == 20
    assert covered(0, 100, [(90, 120), (-5, 5)]) == 15
    assert covered(0, 100, [(100, 120), (-10, 0)]) == 0
    assert covered(0, 100, [(10, 20), (20, 30)]) == 20


def test_self_time_is_duration_minus_covered_child_time():
    spans = [
        Span("root", 0, 100, -1, 0),
        Span("child", 10, 30, 0, 0),
        Span("child", 20, 50, 0, 0),
        Span("grandchild", 22, 27, 2, 0),
        Span("late", 90, 120, 0, 0),
    ]
    got = self_times(spans)
    assert got["root"] == [100 - 40 - 10]
    assert got["child"] == [20, 30 - 5]
    assert got["grandchild"] == [5]
    assert got["late"] == [30]


def test_tracer_records_nesting_and_request_ids():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert outer(5) == 7
    names = [s.name for s in tracer.spans]
    assert names == ["outer", "inner", "inner", "outer", "inner", "inner"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0, -1, 3, 3]
    assert [s.request for s in tracer.spans] == [0, 0, 0, 1, 1, 1]
    assert all(s.start <= s.end for s in tracer.spans)
    durations = self_times(tracer.spans)
    assert all(t >= 0 for ts in durations.values() for t in ts)


def test_tracer_closes_span_when_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    try:
        tracer.wrap("boom", boom)()
    except KeyError:
        pass
    assert tracer.spans[0].end >= tracer.spans[0].start > 0
    assert tracer._open == []
