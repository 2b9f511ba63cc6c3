"""Tests of the benchmark itself: statistics, spans, checks, smoke runs.

    python3 -m pytest perfbench/tests -q
"""

import json
import threading
import types

import pytest

import loadgen
import run
from measure import MIN_BEYOND, Span, SpanRecorder, layer_totals, self_times, tail

#: A corpus small enough that a pass takes a second or two.
TINY = 0.02


# ----------------------------------------------------------------------
# the percentile rule
# ----------------------------------------------------------------------
def test_tail_of_few_samples_is_the_slowest():
    assert tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
    assert tail(list(range(MIN_BEYOND))) == (100.0, MIN_BEYOND - 1)


def test_tail_leaves_exactly_ten_samples_beyond():
    for n in (11, 57, 550, 1000, 2345):
        values = [float(v) for v in range(n)]
        percentile, value = tail(values)
        assert sum(1 for v in values if v > value) == MIN_BEYOND
        assert percentile == pytest.approx(100.0 * (n - MIN_BEYOND) / n)


def test_tail_is_p99_at_a_thousand_samples():
    percentile, value = tail([float(v) for v in range(1, 1001)])
    assert (percentile, value) == (99.0, 990.0)


def test_tail_ignores_sample_order():
    values = [5.0, 1.0, 9.0, 3.0] * 5
    assert tail(values) == tail(sorted(values))


def test_tail_of_nothing_raises():
    with pytest.raises(ValueError):
        tail([])


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_children_once_and_clipped():
    spans = [
        Span(0, None, "root", 0, 100),
        Span(1, 0, "a", 10, 30),
        Span(2, 0, "b", 20, 40),  # overlaps a: 10..40 is covered once
        Span(3, 0, "c", 90, 120),  # clipped to the root's end
        Span(4, 1, "leaf", 12, 18),
    ]
    selfs = self_times(spans)
    assert selfs[0] == 100 - 30 - 10
    assert selfs[1] == 20 - 6
    assert selfs[4] == 6


def test_self_times_of_a_tree_sum_to_its_root():
    spans = [
        Span(0, None, "pass", 0, 1000),
        Span(1, 0, "setup", 0, 300),
        Span(2, 1, "generate", 10, 100),
        Span(3, 1, "ingest", 100, 290),
        Span(4, 0, "work", 300, 990),
        Span(5, 4, "fd", 310, 700),
        Span(6, 5, "fd", 320, 330),
    ]
    assert sum(self_times(spans).values()) == 1000


def test_layer_totals_count_calls_and_self_time():
    spans = [
        Span(0, None, "bcnf", 0, 100),
        Span(1, 0, "fd", 0, 40),
        Span(2, 0, "fd", 50, 70),
    ]
    totals = layer_totals(spans)
    assert totals["fd"]["calls"] == 2
    assert totals["fd"]["total_s"] == pytest.approx(60e-9)
    assert totals["bcnf"]["self_s"] == pytest.approx(40e-9)


def test_recorder_wraps_nests_and_restores():
    def inner():
        return "inner"

    module = types.SimpleNamespace(inner=inner)
    module.outer = lambda: module.inner() + "+outer"
    recorder = SpanRecorder()
    recorder.wrap(module, "inner", "layer.inner")
    recorder.wrap(module, "outer", "layer.outer")
    with recorder.span("pass"):
        assert module.outer() == "inner+outer"
    recorder.unwrap()
    assert module.inner is inner
    by_name = {s.name: s for s in recorder.spans}
    assert by_name["layer.inner"].parent == by_name["layer.outer"].id
    assert by_name["layer.outer"].parent == by_name["pass"].id
    assert by_name["pass"].parent is None


def test_recorder_writes_spans_as_jsonl(tmp_path):
    recorder = SpanRecorder()
    with recorder.span("a"):
        with recorder.span("b"):
            pass
    path = tmp_path / "spans.jsonl"
    recorder.write(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in rows] == ["a", "b"]
    assert rows[1]["parent"] == rows[0]["id"]


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("status", [429, 503, 500, 502])
def test_refused_or_failed_replies_fail(status):
    body = json.dumps({"success": False, "error": {"code": status}})
    assert loadgen.check_response("package_show", status, body.encode())


def test_expected_replies_pass():
    ok = json.dumps({"success": True, "result": [], "degraded": False})
    missing = json.dumps({"success": False, "error": {"code": 404}})
    assert loadgen.check_response("package_list", 200, ok.encode()) is None
    assert loadgen.check_response("missing_package", 404, missing.encode()) is None
    assert loadgen.check_response("healthz", 200, b'{"status": "ok"}') is None


def test_malformed_replies_fail():
    assert loadgen.check_response("package_list", 200, b"not json")
    assert loadgen.check_response("package_list", 200, b'{"result": []}')
    assert loadgen.check_response("package_show", 404, b'{"success": false}')
    assert loadgen.check_response("healthz", 200, b'{"status": "degraded"}')


@pytest.mark.parametrize("error", [None, "gone", [404]])
def test_404_with_a_malformed_error_fails(error):
    body = json.dumps({"success": False, "error": error}).encode()
    assert loadgen.check_response("missing_package", 404, body)


def test_a_client_that_raises_fails_the_run(monkeypatch):
    def broken(kind, status, body):
        raise RuntimeError("check crashed")

    monkeypatch.setattr(loadgen, "check_response", broken)
    server, thread, _ = _serve_tiny()
    try:
        logs, _ = loadgen.closed_loop(
            "127.0.0.1",
            server.server_address[1],
            clients=1,
            seed=3,
            seconds=0.3,
            factory=_factory(server),
        )
    finally:
        _stop(server, thread)
    assert any("client raised RuntimeError" in f for f in logs[0].failures)


def _expected_digests():
    return json.loads((run.HERE / "expected.json").read_text())["study"]


@pytest.mark.parametrize("scale", [0.1, TINY])
def test_corrupted_experiment_text_fails_the_digest_check(scale):
    stored = _expected_digests()
    assert stored["corpus_seed"] == run.CORPUS_SEED
    good = dict(stored["texts_sha256"][f"{scale:g}"])
    corrupted = dict(good, table05="0" * 64)
    assert run.check_outputs("study", [{"texts_sha256": good}] * 2, scale) == []
    failures = run.check_outputs(
        "study", [{"texts_sha256": good}, {"texts_sha256": corrupted}], scale
    )
    assert any("table05" in f for f in failures)
    assert any("between passes" in f for f in failures)


def test_a_scale_without_stored_digests_fails():
    good = _expected_digests()["texts_sha256"]["0.1"]
    failures = run.check_outputs("study", [{"texts_sha256": good}] * 2, 0.3)
    assert failures == ["no stored digests for scale 0.3"]


def test_differing_pair_sets_fail():
    results = [{"pairs_sha256": "a"}, {"pairs_sha256": "b"}]
    assert run.check_outputs("index", results, 0.25)


def _draw(seed, package_ids, resources, n=200):
    factory = loadgen.request_factory(seed, package_ids, resources)
    client = loadgen._Client(loadgen.WELL_BEHAVED, 0, seed, factory)
    return [loadgen.as_http(client.next_request()) for _ in range(n)]


def test_request_stream_depends_only_on_the_seed():
    ids = [f"SG:p{i}" for i in range(30)]
    resources = [["SG", f"r{i}"] for i in range(20)]
    first = _draw(3, ids, resources)
    assert first == _draw(3, ids, resources[::-1])
    assert first != _draw(4, ids, resources)
    kinds = {kind for kind, _ in first}
    assert kinds == {"api", "missing_package", "healthz"}


def test_requests_are_the_repository_generators():
    """The stream is what ``repro.serve.loadgen`` draws for the same ids."""
    from repro.serve.loadgen import _Client, _RequestFactory
    from repro.serve.service import LakeService

    from repro.core.config import StudyConfig
    from repro.core.study import Study

    study = Study.build(StudyConfig(scale=TINY, seed=run.CORPUS_SEED))
    service = LakeService(study)
    reference = _Client(loadgen.WELL_BEHAVED, 1, 5, _RequestFactory(service, 5))
    factory = loadgen.request_factory(
        5,
        service.api.package_ids,
        [[p.code, t.resource_id] for p in study for t in p.report.clean_tables],
    )
    ours = _Client(loadgen.WELL_BEHAVED, 1, 5, factory)
    for _ in range(300):
        assert ours.next_request() == reference.next_request()
    study.close()


# ----------------------------------------------------------------------
# smoke runs of each workload on a tiny corpus
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["study", "index", "serve"])
def test_workload_smoke(workload, tmp_path):
    result, lines = run.run_workload(
        workload, 3, 1.0, False, scale=TINY, out_dir=tmp_path
    )
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("seed", [3, 4])  # traced pass second, then first
def test_traced_smoke_reports_every_layer(seed, tmp_path):
    from passes import LAYER_METRICS

    result, lines = run.run_workload(
        "study", seed, 1.0, True, scale=TINY, out_dir=tmp_path
    )
    assert result["correct"], lines
    metrics = result["metrics"]
    assert {name for name, _ in LAYER_METRICS} <= set(metrics)
    assert metrics["fd.discover_calls"]["value"] > 0
    assert metrics["trace.self_sum_s"]["value"] == pytest.approx(
        metrics["trace.traced_s"]["value"], abs=1e-6
    )
    assert metrics["trace.overhead_s"]["value"] == pytest.approx(
        metrics["trace.traced_s"]["value"] - metrics["trace.untraced_s"]["value"]
    )
    assert any(f"traced pass {seed % 2} " in line for line in lines)
    assert list(tmp_path.glob("spans-*.jsonl"))


def _serve_tiny(config=None):
    from repro.core.config import StudyConfig
    from repro.core.study import Study
    from repro.serve import httpd

    study = Study.build(StudyConfig(scale=TINY, seed=run.CORPUS_SEED))
    server = httpd.make_server(study, port=0, config=config)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}
    )
    thread.start()
    return server, thread, study


def _stop(server, thread):
    server.shutdown()
    server.server_close()
    thread.join(10)
    assert not thread.is_alive()


def _factory(server):
    return loadgen.request_factory(
        3,
        server.service.api.package_ids,
        [
            [p.code, t.resource_id]
            for p in server.service._study
            for t in p.report.clean_tables
        ],
    )


def test_refused_requests_fail_the_serve_checks():
    """A server whose admission refuses the loop must fail the run."""
    from repro.serve.admission import AdmissionConfig
    from repro.serve.service import ServiceConfig

    stingy = ServiceConfig(
        admission=AdmissionConfig(client_rate=0.5, client_burst=1)
    )
    server, thread, _ = _serve_tiny(stingy)
    try:
        logs, _ = loadgen.closed_loop(
            "127.0.0.1",
            server.server_address[1],
            clients=2,
            seed=3,
            seconds=0.5,
            factory=_factory(server),
        )
    finally:
        _stop(server, thread)
    failures = [f for log in logs for f in log.failures]
    assert any("status 429" in f for f in failures)


def test_benchmark_json_names_what_the_runs_report():
    from passes import LAYER_METRICS

    from repro.experiments.registry import experiment_ids

    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    layer_names = {n for n, _ in LAYER_METRICS}
    layer_names |= {f"experiments.{e}_s" for e in experiment_ids()}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.SCALES)


def test_traced_serve_smoke_times_the_rungs(tmp_path):
    result, lines = run.run_workload(
        "serve", 3, 1.0, True, scale=TINY, out_dir=tmp_path
    )
    metrics = result["metrics"]
    assert result["correct"], lines
    assert metrics["trace.self_sum_s"]["value"] == pytest.approx(
        metrics["trace.traced_s"]["value"], abs=1e-6
    )
    for name in ("serve.handle_p50_ms", "serve.wire_p50_ms", "serve.outcome_ok"):
        assert metrics[name]["value"] > 0, name
