"""Tests of the benchmark's own logic: input relabeling, span arithmetic
and the counting of failed checks."""

import itertools
import json
import time

import pytest

import run
import workloads
from regroot import accepts, dfa_based_on, minimize, root_member_oracle, ukl_generators
from spans import Span, Tracer, self_times, summarize


def test_relabel_preserves_the_language_and_its_root():
    d = dfa_based_on(ukl_generators(2, 3))
    r = workloads.relabel(d, [3, 5, 1, 2, 4])
    assert r != d
    for length in range(5):
        for w in itertools.product(d.alphabet, repeat=length):
            assert accepts(r, w) == accepts(d, w)
            assert root_member_oracle(r, w) == root_member_oracle(d, w)
    assert minimize(r) == minimize(d)


def test_self_time_is_duration_minus_child_spans():
    spans = [
        Span("root", None, 0.0, 10.0),
        Span("a", 0, 1.0, 4.0),
        Span("leaf", 1, 2.0, 3.0),
        Span("b", 0, 5.0, 9.0, {"calls": 3, "bytes": 7}),
        Span("a", 0, 9.0, 9.5),
    ]
    assert self_times(spans) == pytest.approx([2.5, 2.0, 1.0, 4.0, 0.5])
    summary = summarize(spans)
    assert summary["a"] == pytest.approx({"s": 2.5, "calls": 2})
    assert summary["b"] == pytest.approx({"s": 4.0, "calls": 3, "bytes": 7})


def test_tracer_nests_spans_and_self_times_add_up():
    tr = Tracer(enabled=True)
    with tr.span("root"):
        with tr.span("a"):
            with tr.span("b") as c:
                pass
            c["n"] = 5
        with tr.span("a"):
            pass
    assert [(s.name, s.parent) for s in tr.spans] == [("root", None), ("a", 0), ("b", 1), ("a", 0)]
    assert tr.spans[2].counts == {"n": 5}
    root = tr.spans[0]
    assert sum(self_times(tr.spans)) == pytest.approx(root.end - root.start)

    off = Tracer(enabled=False)
    with off.span("root"):
        pass
    assert off.spans == []


class _FakeMonoid:
    def __init__(self, size):
        self.size = size

    def __len__(self):
        return self.size


def test_an_injected_wrong_count_is_reported_as_failed(monkeypatch):
    sizes = iter([workloads.U25_SIZE + 1, workloads.U52_SIZE])
    monkeypatch.setattr(workloads, "transformation_monoid", lambda d: _FakeMonoid(next(sizes)))
    chk = workloads.Checker()
    workloads.run_closure_gap([None, None], Tracer(enabled=False), chk)
    assert [f.split(":")[0] for f in chk.failures] == ["|U_{2,5}| enumerated", "gap n=7 enumerated"]

    spec = [{"name": "wall_s", "unit": "s"}]
    line = run.result_line(spec, {"wall_s": 1.0}, [{"attempted": chk.attempted, "failures": chk.failures}])
    assert line["correct"] is False
    assert line["failed"] == 2
    assert line["attempted"] == chk.attempted > 2


def test_every_metric_in_benchmark_json_is_computed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    plain = [{"wall_s": 2.0, "setup_s": 0.3, "peak_rss_mb": 40.0}]
    layers = {"dfa.minimize": {"s": 1.0, "calls": 2, "states_in": 10, "states_out": 4}}
    traced = [{"wall_s": 2.5, "raw_wall_s": 5.0, "layers": layers}]

    e2e = [m["name"] for m in spec["end_to_end"]]
    assert set(run.metric_values(e2e, plain, [], [0.2, 0.3, 0.4])) == set(e2e)

    per_layer = [m["name"] for m in spec["per_layer"]]
    values = run.metric_values(per_layer, plain, traced, [])
    assert set(values) == set(per_layer)
    assert values["dfa.minimize.merge_ratio"] == pytest.approx(0.4)
    assert values["dfa.minimize.s"] == pytest.approx(0.5)
    assert values["trace.overhead_frac"] == pytest.approx(0.25)
    assert values["root.unary_root.calls"] == 0


def test_reference_seconds_scale_by_the_samples_taken_around_the_stretch():
    import refclock

    nominal = refclock.NOMINAL_S
    samples = [(0.0, nominal), (1.0, 2 * nominal), (2.0, 4 * nominal), (10.0, nominal)]
    # Samples starting from 0.5 s before to 0.5 s after the stretch count:
    # those at 1.0 and 2.0, and the one at 1.0 interrupted it.
    busy = 2 * nominal
    assert refclock.ref_seconds(samples, 0.9, 1.5) == pytest.approx((0.6 - busy) / 3)
    assert refclock.ref_seconds(samples, 9.9, 9.95) == pytest.approx(0.05)
    with pytest.raises(ValueError):
        refclock.ref_seconds(samples, 5.0, 6.0)

    record = {"setup": [9.0, 9.5], "wall": [9.5, 10.5], "attempted": 1}
    run.add_times(record, samples)
    assert record == pytest.approx(
        {"raw_setup_s": 0.5, "setup_s": 0.5, "raw_wall_s": 1.0, "wall_s": 1.0 - nominal, "attempted": 1}
    )


def test_sampler_takes_samples_on_its_cpu_until_stopped():
    import os

    import refclock

    cpu = min(os.sched_getaffinity(0))
    with refclock.Sampler(cpu) as sampler:
        time.sleep(3 * refclock.PERIOD_S)
    n = len(sampler.samples)
    assert n >= 2
    assert all(0 < r < 5 for _, r in sampler.samples)
    time.sleep(2 * refclock.PERIOD_S)
    assert len(sampler.samples) == n
