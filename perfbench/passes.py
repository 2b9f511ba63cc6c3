"""One benchmark pass, run in a fresh interpreter by ``run.py``.

    python3 perfbench/passes.py '<json pass config>'

A pass sets the workload up, measures it once, checks its outputs
outside the timed region and prints its result as the last stdout line
(prefixed by :data:`PROTOCOL`).  The ``serve`` pass first prints a
``ready`` line with its port and served ids, serves until a line arrives
on stdin, then checks probe requests and prints its result.

With ``"traced": true`` the pass records spans around the calls the
benchmark makes and around the module attributes the program looks up
at call time (see :func:`wrap_layers`), and reports per-layer figures.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import pathlib
import random
import resource
import shutil
import sys
import threading
import time
import traceback
import urllib.parse

sys.path.insert(0, str(pathlib.Path.cwd() / "src"))

from measure import NullRecorder, SpanRecorder, layer_totals, self_times  # noqa: E402

#: Prefix of every line the pass prints for ``run.py``.
PROTOCOL = "PERFBENCH "

#: The corpus every workload analyses.  FD cost depends very strongly
#: on the corpus, so it is fixed and the run seed varies the work done
#: on it instead (see ``perfbench/README.md``).
CORPUS_SEED = 7

#: Join thresholds ``build-index`` persists by default.
THRESHOLDS = (0.9, 0.7)

#: Every per-layer metric a traced pass reports, in report order.  The
#: serve rungs timed client-side and the ``trace.*`` comparisons are
#: filled in by ``run.py``; a layer a workload never calls reads 0.
LAYER_METRICS = (
    ("generator.generate_s", "s"),
    ("ingest.ingest_s", "s"),
    ("ingest.resources", "count"),
    ("ingest.clean_tables", "count"),
    ("ingest.yield", "ratio"),
    ("fd.discover_s", "s"),
    ("fd.discover_calls", "count"),
    ("normalize.bcnf_self_s", "s"),
    ("normalize.fd_calls_per_table", "ratio"),
    ("keys.keys_s", "s"),
    ("unionability.union_s", "s"),
    ("joinability.signature_s", "s"),
    ("joinability.pairs_s", "s"),
    ("joinability.candidates", "count"),
    ("joinability.pairs", "count"),
    ("joinability.verify_yield", "ratio"),
    ("search.index_save_s", "s"),
    ("search.lake_warm_s", "s"),
    ("serve.handle_p50_ms", "ms"),
    ("serve.handle_tail_ms", "ms"),
    ("serve.lock_wait_tail_ms", "ms"),
    ("serve.wire_p50_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.outcome_ok", "count"),
    ("serve.outcome_degraded", "count"),
    ("serve.outcome_shed", "count"),
    ("serve.outcome_error", "count"),
    ("serve.trace_overhead_p50_ms", "ms"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.overhead_s", "s"),
)


def emit(document: dict) -> None:
    """Print one protocol line for ``run.py``."""
    sys.stdout.write(PROTOCOL + json.dumps(document, sort_keys=True) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def wrap_layers(recorder) -> None:
    """Span the program's layers at the names it looks up at call time.

    ``Study.build`` calls ``generate_portal``/``ingest_portal`` through
    :mod:`repro.core.study`; FD/BCNF call ``discover_fds`` through
    :mod:`repro.normalize.analysis` and :mod:`repro.normalize.bcnf`; the
    study imports the key, union and LSH functions inside the methods
    that use them, so their module attributes are read on every call.
    """
    import repro.core.study as study_module
    import repro.joinability.lshindex as lshindex
    import repro.keys.candidates as candidates
    import repro.normalize.analysis as analysis
    import repro.normalize.bcnf as bcnf
    import repro.unionability.schemas as schemas

    recorder.wrap(study_module, "generate_portal", "generator.generate")
    recorder.wrap(study_module, "ingest_portal", "ingest.ingest")
    recorder.wrap(analysis, "discover_fds", "fd.discover")
    recorder.wrap(bcnf, "discover_fds", "fd.discover")
    recorder.wrap(analysis, "bcnf_decompose", "normalize.bcnf")
    recorder.wrap(candidates, "key_size_distribution", "keys.keys")
    recorder.wrap(schemas, "analyze_unionability", "unionability.union")
    recorder.wrap(lshindex, "compute_table_signatures", "joinability.signature")
    recorder.wrap(lshindex, "analyze_joinability_lsh", "joinability.pairs")


def pass_layers(recorder, study, counters: dict | None) -> dict:
    """Per-layer figures of a traced pass from its spans and study."""
    from repro.experiments.registry import experiment_ids

    totals = layer_totals(recorder.spans)

    def total(name):
        return totals.get(name, {}).get("total_s", 0.0)

    def own(name):
        return totals.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    resources = sum(p.report.total_declared_tables for p in study)
    clean = sum(len(p.report.clean_tables) for p in study)
    filtered = sum(len(p.filtered_tables()) for p in study)
    counters = counters or {}
    candidates = counters.get("join.candidate_pairs", 0)
    verified = counters.get("join.pairs_verified", 0)
    layers = dict.fromkeys((name for name, _ in LAYER_METRICS), 0)
    layers.update(
        {
            "generator.generate_s": total("generator.generate"),
            "ingest.ingest_s": total("ingest.ingest"),
            "ingest.resources": resources,
            "ingest.clean_tables": clean,
            "ingest.yield": clean / resources if resources else 0.0,
            "fd.discover_s": total("fd.discover"),
            "fd.discover_calls": calls("fd.discover"),
            "normalize.bcnf_self_s": own("normalize.bcnf"),
            "normalize.fd_calls_per_table": (
                calls("fd.discover") / filtered if filtered else 0.0
            ),
            "keys.keys_s": total("keys.keys"),
            "unionability.union_s": total("unionability.union"),
            "joinability.signature_s": total("joinability.signature"),
            "joinability.pairs_s": total("joinability.pairs"),
            "joinability.candidates": candidates,
            "joinability.pairs": verified,
            "joinability.verify_yield": (
                verified / candidates if candidates else 0.0
            ),
            "search.index_save_s": total("search.index_save"),
            "search.lake_warm_s": total("search.lake_warm"),
        }
    )
    for experiment_id in experiment_ids():
        layers[f"experiments.{experiment_id}_s"] = own(
            f"experiments.{experiment_id}"
        )
    # The timed part of a pass is its setup and work spans, the same
    # intervals an untraced pass reports as setup_s and work_s.
    timed = [
        span
        for root in recorder.spans
        if root.parent is None and root.name in ("setup", "work")
        for span in _descendants(recorder.spans, root)
    ]
    selfs = self_times(recorder.spans)
    layers["trace.self_sum_s"] = sum(selfs[s.id] for s in timed) / 1e9
    return layers


def _descendants(spans, root) -> list:
    """*root* and every span below it."""
    by_parent: dict = {}
    for span in spans:
        by_parent.setdefault(span.parent, []).append(span)
    found, frontier = [], [root]
    while frontier:
        span = frontier.pop()
        found.append(span)
        frontier.extend(by_parent.get(span.id, ()))
    return found


def _counters(metrics) -> dict:
    return {
        name: snap["value"]
        for name, snap in metrics.snapshot().items()
        if isinstance(snap, dict) and "value" in snap
    }


# ----------------------------------------------------------------------
# study: Study.build, then the 20 experiments
# ----------------------------------------------------------------------
def study_pass(config: dict, recorder) -> dict:
    """``ogdp-repro run all``: build, then every experiment.

    The pass seed shuffles the experiment order; each experiment's text
    must not depend on it (the analyses they share are cached).
    """
    from repro.core.config import StudyConfig
    from repro.core.study import Study
    from repro.experiments.registry import experiment_ids, run_experiment

    study_config = StudyConfig(scale=config["scale"], seed=CORPUS_SEED)
    order = experiment_ids()
    random.Random(config["seed"]).shuffle(order)
    texts: dict[str, str] = {}
    failures: list[str] = []
    with recorder.span("setup") as setup:
        study = Study.build(study_config)
    with recorder.span("work") as work:
        for experiment_id in order:
            with recorder.span(f"experiments.{experiment_id}"):
                try:
                    texts[experiment_id] = run_experiment(experiment_id, study).text
                except Exception:  # noqa: BLE001 — count and go on
                    traceback.print_exc()
                    failures.append(f"{experiment_id}: raised")
    rss = peak_rss_mb()
    result = {
        "setup_s": setup.seconds,
        "work_s": work.seconds,
        "rss_mb": rss,
        "attempted": len(order),
        "failures": failures,
        "texts_sha256": {k: sha256(v) for k, v in sorted(texts.items())},
    }
    if config["traced"]:
        result["layers"] = pass_layers(recorder, study, None)
    study.close()
    return result


# ----------------------------------------------------------------------
# index: Study.build, then signatures, two pair searches and the saves
# ----------------------------------------------------------------------
def index_pass(config: dict, recorder) -> dict:
    """``build-index --workers 1``, checked against the all-pairs oracle.

    The pass seed shuffles the portal order.
    """
    from repro.core.config import StudyConfig
    from repro.core.study import Study
    from repro.joinability.pairs import analyze_joinability
    from repro.obs import Observer
    from repro.search.indexstore import (
        HIT,
        JoinIndexStore,
        StoredJoinIndex,
        index_fingerprint,
    )

    out = pathlib.Path(config["out_dir"]) / f"index-{config['tag']}"
    shutil.rmtree(out, ignore_errors=True)
    study_config = StudyConfig(
        scale=config["scale"],
        seed=CORPUS_SEED,
        join_index="lsh",
        join_index_dir=str(out),
    )
    obs = Observer(None)
    analyses = {}
    with recorder.span("setup") as setup:
        study = Study.build(study_config, obs=obs)
    portals = list(study)
    random.Random(config["seed"]).shuffle(portals)
    store = JoinIndexStore(out)
    with recorder.span("work") as work:
        for portal in portals:
            portal.join_signatures()
            for threshold in THRESHOLDS:
                analysis = portal.joinability(threshold)
                with recorder.span("search.index_save"):
                    store.save(
                        StoredJoinIndex(
                            portal_code=portal.code,
                            threshold=threshold,
                            fingerprint=index_fingerprint(
                                study_config, portal.code, threshold
                            ),
                            pairs=tuple(analysis.pairs),
                            column_check=tuple(
                                p.num_unique for p in analysis.profiles
                            ),
                            counters={"pairs": len(analysis.pairs)},
                        )
                    )
                analyses[(portal.code, threshold)] = analysis
    rss = peak_rss_mb()
    counters = _counters(obs.metrics)
    failures = []
    pair_lines = []
    for (code, threshold), analysis in sorted(analyses.items()):
        portal = study.portal(code)
        oracle = analyze_joinability(
            code,
            portal.screened_tables(),
            threshold,
            study_config.min_unique_values,
        )
        if list(oracle.pairs) != list(analysis.pairs):
            failures.append(f"{code}@{threshold}: LSH pairs differ from all-pairs")
        loaded = store.load(
            code, threshold, index_fingerprint(study_config, code, threshold)
        )
        if loaded.status != HIT or loaded.index.pairs != tuple(analysis.pairs):
            failures.append(f"{code}@{threshold}: saved index does not load back")
        pair_lines.append(f"{code} {threshold} {list(analysis.pairs)!r}")
    result = {
        "setup_s": setup.seconds,
        "work_s": work.seconds,
        "rss_mb": rss,
        "attempted": len(analyses),
        "failures": failures,
        "pairs_sha256": sha256("\n".join(pair_lines)),
    }
    if config["traced"]:
        result["layers"] = pass_layers(recorder, study, counters)
    study.close()
    shutil.rmtree(out, ignore_errors=True)
    return result


# ----------------------------------------------------------------------
# serve: a real socket, driven by run.py's closed loop
# ----------------------------------------------------------------------
class TimingLock:
    """A lock that remembers, per thread, how long its last acquire waited."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()

    def __enter__(self):
        started = time.perf_counter_ns()
        self._lock.acquire()
        self._local.wait_ns = time.perf_counter_ns() - started
        return self

    def __exit__(self, *exc_info) -> None:
        self._lock.release()

    def last_wait_ns(self) -> int:
        return getattr(self._local, "wait_ns", 0)


def serve_config():
    """The service config: admission never refuses the closed loop.

    The default token bucket (20 req/s, burst 40 per client) would
    answer 429 to a closed loop running faster than 20 req/s per
    client, which would measure refusals instead of serving.
    """
    from repro.serve.admission import AdmissionConfig
    from repro.serve.service import ServiceConfig

    return ServiceConfig(
        admission=AdmissionConfig(client_rate=1e9, client_burst=1e9)
    )


def probe_paths(study, package_id: str) -> list[tuple[str, str]]:
    """A fixed probe set: one request per endpoint kind."""
    from repro.serve.loadgen import QUERY_TERMS

    portal = next(iter(study))
    resource = portal.report.clean_tables[0].resource_id
    query = urllib.parse.urlencode
    return [
        ("package_list", "/api/3/action/package_list?" + query({"limit": "5"})),
        ("package_show", "/api/3/action/package_show?" + query({"id": package_id})),
        ("package_search", "/api/3/action/package_search?"
         + query({"q": QUERY_TERMS[0], "rows": "10"})),
        ("lake_search", "/lake_search?" + query({"q": QUERY_TERMS[1], "limit": "10"})),
        ("join_suggest", "/join_suggest?"
         + query({"portal": portal.code, "resource": resource, "limit": "10"})),
        ("union_suggest", "/union_suggest?"
         + query({"portal": portal.code, "resource": resource, "limit": "10"})),
        ("missing_package", "/api/3/action/package_show?"
         + query({"id": "SG:no-such-probe"})),
        ("healthz", "/healthz"),
    ]


def check_probes(port: int, study, service_config) -> tuple[int, list[str]]:
    """Probe replies over the socket must equal in-process replies."""
    from loadgen import check_response

    from repro.serve.api import Request
    from repro.serve.service import LakeService

    reference = LakeService(study, config=service_config)
    probes = probe_paths(study, reference.api.package_ids[0])
    failures = []
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        for kind, path in probes:
            connection.request("GET", path, headers={"X-Client-Id": "perfbench-probe"})
            reply = connection.getresponse()
            body = reply.read()
            parsed = urllib.parse.urlsplit(path)
            params = {
                k: v[-1] for k, v in urllib.parse.parse_qs(parsed.query).items()
            }
            expected = reference.handle(
                Request(parsed.path, params, {}, "perfbench-probe")
            )
            if reply.status != expected.status or body != expected.to_bytes():
                failures.append(f"probe {kind}: differs from in-process reply")
            reason = check_response(kind, reply.status, body)
            if reason is not None:
                failures.append(f"probe {kind}: {reason}")
    finally:
        connection.close()
    return len(probes), failures


def serve_pass(config: dict, recorder) -> dict:
    """``serve`` on an ephemeral port until ``run.py`` says stop."""
    from repro.core.config import StudyConfig
    from repro.core.study import Study
    from repro.serve import httpd

    study_config = StudyConfig(scale=config["scale"], seed=CORPUS_SEED)
    service_config = serve_config()
    handled: list[tuple[str, int, int]] = []
    with recorder.span("setup") as setup:
        study = Study.build(study_config)
        with recorder.span("search.lake_warm"):
            server = httpd.make_server(study, port=0, config=service_config)
    if config["traced"]:
        lock = TimingLock()
        server.lock = lock
        untimed = server.service.handle

        def timed_handle(request):
            begun = time.perf_counter_ns()
            response = untimed(request)
            handled.append(
                (
                    request.client_id,
                    time.perf_counter_ns() - begun,
                    lock.last_wait_ns(),
                )
            )
            return response

        server.service.handle = timed_handle
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}
    )
    thread.start()
    try:
        emit(
            {
                "ready": True,
                "port": server.server_address[1],
                "package_ids": list(server.service.api.package_ids),
                "resources": [
                    [portal.code, t.resource_id]
                    for portal in study
                    for t in portal.report.clean_tables
                ],
            }
        )
        sys.stdin.readline()
        # The probe check builds a second service; its calls are not
        # part of what the traced layers report.
        recorder.unwrap()
        rss = peak_rss_mb()
        counters = _counters(server.service.metrics)
        probes, failures = check_probes(
            server.server_address[1], study, service_config
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(30)
    hits = counters.get("serve.cache.hit", 0)
    misses = counters.get("serve.cache.miss", 0)
    result = {
        "setup_s": setup.seconds,
        "work_s": 0.0,
        "rss_mb": rss,
        "attempted": probes,
        "failures": failures,
    }
    if config["traced"]:
        layers = pass_layers(recorder, study, None)
        layers.update(
            {
                "serve.cache_hit_ratio": (
                    hits / (hits + misses) if hits + misses else 0.0
                ),
                "serve.outcome_ok": counters.get("serve.outcome.ok", 0),
                "serve.outcome_degraded": counters.get("serve.outcome.degraded", 0),
                "serve.outcome_shed": counters.get("serve.outcome.shed", 0),
                "serve.outcome_error": counters.get("serve.outcome.error", 0),
            }
        )
        result["layers"] = layers
        result["handled"] = [
            entry for entry in handled if entry[0] != "perfbench-probe"
        ]
    study.close()
    return result


PASSES = {"study": study_pass, "index": index_pass, "serve": serve_pass}


def main(argv: list[str]) -> int:
    config = json.loads(argv[1])
    traced = config["traced"]
    recorder = SpanRecorder() if traced else NullRecorder()
    # Import the whole program before any timing starts.
    import repro.experiments.registry  # noqa: F401
    import repro.serve.httpd  # noqa: F401

    if traced:
        wrap_layers(recorder)
    try:
        result = PASSES[config["workload"]](config, recorder)
    finally:
        recorder.unwrap()
    if traced:
        recorder.write(
            pathlib.Path(config["out_dir"]) / f"spans-{config['tag']}.jsonl"
        )
    emit(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
