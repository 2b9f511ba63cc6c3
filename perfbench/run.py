"""Wall-clock benchmark of the study pipeline, the join index and serving.

    python3 perfbench/run.py --workload study|index|serve \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root: the program is imported from ``src/``.
Every pass runs in a fresh interpreter (``passes.py``) whose stderr goes
to ``.perfbench/``; this process only schedules passes, drives the
``serve`` closed loop, checks outputs and reports.

With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds the per-layer metrics of
one traced pass, and the tracing overhead against an untraced pass of
the same run.  See ``perfbench/README.md`` for why the workloads and
metrics are what they are.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import threading
import time

from measure import median, tail
from passes import CORPUS_SEED, LAYER_METRICS, PROTOCOL

HERE = pathlib.Path(__file__).resolve().parent

#: The workloads' corpus scales.
SCALES = {"study": 0.1, "index": 0.25, "serve": 0.1}

#: Passes per batch run: at least three, so set-up and work times are
#: medians that one slow pass cannot move; more, up to the maximum,
#: until ``--seconds`` of work is measured.  ``serve`` runs and traced
#: runs make two passes.
MIN_PASSES, MAX_PASSES = 3, 5

#: Keep-alive connections of the ``serve`` closed loop.
SERVE_CLIENTS = 2

#: Seconds a whole run may take before its running pass is killed.
RUN_BUDGET = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class PassFailed(RuntimeError):
    """A pass crashed, hung, or broke the protocol."""


def _read_result(line: str, config: dict) -> dict:
    if not line.startswith(PROTOCOL):
        raise PassFailed(f"pass {config['tag']} printed no result; see its log")
    return json.loads(line[len(PROTOCOL):])


def _spawn(config: dict, log_path: pathlib.Path, **pipes) -> subprocess.Popen:
    with open(log_path, "wb") as log:
        return subprocess.Popen(
            [sys.executable, str(HERE / "passes.py"), json.dumps(config)],
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
            **pipes,
        )


def run_batch_pass(config: dict, log_path: pathlib.Path, timeout: float) -> dict:
    """Run one study/index pass to completion."""
    process = _spawn(config, log_path)
    try:
        out, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise PassFailed(f"pass {config['tag']} timed out") from None
    lines = out.splitlines()
    if process.returncode != 0 or not lines:
        raise PassFailed(
            f"pass {config['tag']} exited {process.returncode}; see {log_path}"
        )
    return _read_result(lines[-1], config)


def run_serve_pass(
    config: dict, log_path: pathlib.Path, seconds: float, timeout: float
) -> dict:
    """Start a server pass, drive the closed loop, stop it, collect."""
    from loadgen import closed_loop, request_factory

    process = _spawn(config, log_path, stdin=subprocess.PIPE)
    watchdog = threading.Timer(timeout, process.kill)
    watchdog.start()
    try:
        ready = _read_result(process.stdout.readline(), config)
        logs, window_s = closed_loop(
            "127.0.0.1",
            ready["port"],
            clients=SERVE_CLIENTS,
            seed=config["seed"],
            seconds=seconds,
            factory=request_factory(
                config["seed"], ready["package_ids"], ready["resources"]
            ),
        )
        out, _ = process.communicate("stop\n", timeout=timeout)
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
        process.wait()
    lines = out.splitlines()
    if process.returncode != 0 or not lines:
        raise PassFailed(
            f"pass {config['tag']} exited {process.returncode}; see {log_path}"
        )
    result = _read_result(lines[-1], config)
    result["clients"] = logs
    result["window_s"] = window_s
    result["attempted"] += sum(log.attempted for log in logs)
    result["failures"] += [f for log in logs for f in log.failures]
    return result


def serve_layers(result: dict) -> dict:
    """The serve rungs of a traced pass, matched request by request.

    Each client's requests are sequential, so the n-th request the
    server handled for a client id is that client's n-th reply.
    """
    by_client: dict[str, list] = {}
    for client_id, handle_ns, wait_ns in result["handled"]:
        by_client.setdefault(client_id, []).append((handle_ns, wait_ns))
    handles, waits, wires = [], [], []
    for log in result["clients"]:
        server_side = by_client.get(log.client_id, [])
        for latency_ms, (handle_ns, wait_ns) in zip(log.latencies_ms, server_side):
            handles.append(handle_ns / 1e6)
            waits.append(wait_ns / 1e6)
            wires.append(latency_ms - handle_ns / 1e6 - wait_ns / 1e6)
    if not handles:
        return {}
    return {
        "serve.handle_p50_ms": median(handles),
        "serve.handle_tail_ms": tail(handles)[1],
        "serve.lock_wait_tail_ms": tail(waits)[1],
        "serve.wire_p50_ms": median(wires),
    }


def check_outputs(workload: str, results: list[dict], scale: float) -> list[str]:
    """Cross-pass and stored-digest checks on the passes' outputs.

    ``expected.json`` holds the experiment digests of the corpus for
    each scale a run may use; a scale without stored digests fails.
    """
    failures = []
    if workload == "study":
        digests = [r["texts_sha256"] for r in results]
        expected = json.loads(
            (HERE / "expected.json").read_text(encoding="utf-8")
        )["study"]
        stored = expected["texts_sha256"].get(f"{scale:g}")
        if expected["corpus_seed"] != CORPUS_SEED or stored is None:
            failures.append(f"no stored digests for scale {scale:g}")
            stored = {}
        for index, got in enumerate(digests):
            for experiment_id, digest in stored.items():
                if got.get(experiment_id) != digest:
                    failures.append(
                        f"pass {index}: {experiment_id} text differs from the stored digest"
                    )
        if any(d != digests[0] for d in digests):
            failures.append("experiment texts differ between passes")
    elif workload == "index":
        if len({r["pairs_sha256"] for r in results}) != 1:
            failures.append("pair sets differ between passes")
    return failures


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    scale: float | None = None,
    out_dir: pathlib.Path,
) -> tuple[dict, list[str]]:
    """Run the passes of one benchmark run; return (result, report lines).

    *scale* overrides the workload's corpus scale (the tests use a tiny
    one).  A traced run makes one untraced and one traced pass; the seed
    decides which runs first, so pass order does not pose as overhead.
    """
    scale = SCALES[workload] if scale is None else scale
    out_dir.mkdir(parents=True, exist_ok=True)
    two_passes = trace or workload == "serve"
    serve_window = seconds / 2
    deadline = time.monotonic() + RUN_BUDGET
    traced_index = seed % 2
    results: list[dict] = []
    while True:
        index = len(results)
        traced = trace and index == traced_index
        config = {
            "workload": workload,
            "seed": seed,
            "scale": scale,
            "traced": traced,
            "out_dir": str(out_dir),
            "tag": f"{workload}-s{seed}-p{index}",
        }
        log_path = out_dir / f"{config['tag']}.log"
        timeout = max(1.0, deadline - time.monotonic())
        if workload == "serve":
            results.append(run_serve_pass(config, log_path, serve_window, timeout))
        else:
            results.append(run_batch_pass(config, log_path, timeout))
        if two_passes and len(results) == 2:
            break
        if len(results) < MIN_PASSES:
            continue
        if len(results) >= MAX_PASSES:
            break
        if sum(r["work_s"] for r in results) >= seconds:
            break
        # Start another pass only if one more like the slowest so far fits.
        slowest = max(r["setup_s"] + r["work_s"] for r in results)
        if time.monotonic() + 2 * slowest > deadline:
            break

    failures = [f for r in results for f in r["failures"]]
    failures += check_outputs(workload, results, scale)
    attempted = sum(r["attempted"] for r in results)
    lines = [
        f"workload {workload}: corpus seed {CORPUS_SEED}, scale {scale:g}, "
        f"run seed {seed}, {len(results)} passes"
    ]

    def timing(name, values, unit):
        percentile, tail_value = tail(values)
        lines.append(
            f"  {name:<16} p50 {median(values):.4f} {unit}  "
            f"p{percentile:.4g} {tail_value:.4f} {unit}  (n={len(values)})"
        )

    setups = [r["setup_s"] for r in results]
    timing("setup_s", setups, "s")
    if workload == "serve":
        latencies = [
            ms for r in results for log in r["clients"] for ms in log.latencies_ms
        ]
        window = sum(r["window_s"] for r in results)
        ops_per_s = len(latencies) / window
        timing("serve_latency", latencies, "ms")
        lines.append(f"  {'serve_rps':<16} {ops_per_s:.2f} 1/s over {window:.2f} s")
    else:
        latencies = [r["work_s"] * 1000.0 for r in results]
        ops_per_s = len(results) / sum(r["work_s"] for r in results)
        timing(f"{workload}_s", [ms / 1000.0 for ms in latencies], "s")
    if not latencies:
        raise PassFailed("no operation completed")
    rss = [r["rss_mb"] for r in results]
    lines.append(f"  {'peak_rss_mb':<16} median {median(rss):.1f} MB (n={len(rss)})")
    lines.append(
        f"  {'fail_frac':<16} {len(failures)}/{attempted}"
        + "".join(f"\n    failed: {f}" for f in failures[:10])
    )
    if not trace:
        metrics = {
            "setup_s": median(setups),
            "op_p50_ms": median(latencies),
            "op_tail_ms": tail(latencies)[1],
            "ops_per_s": ops_per_s,
            "peak_rss_mb": median(rss),
        }
        units = dict(END_TO_END)
    else:
        (untraced,) = [r for r in results if "layers" not in r]
        (traced_result,) = [r for r in results if "layers" in r]
        metrics = dict(traced_result["layers"])
        if workload == "serve":
            metrics.update(serve_layers(traced_result))
            untraced_latencies = [
                ms for log in untraced["clients"] for ms in log.latencies_ms
            ]
            traced_latencies = [
                ms for log in traced_result["clients"] for ms in log.latencies_ms
            ]
            metrics["serve.trace_overhead_p50_ms"] = median(
                traced_latencies
            ) - median(untraced_latencies)
        # The timed part of a pass: set-up and work (serve has no work
        # span; its load window is timed client-side).
        traced_s = traced_result["setup_s"] + traced_result["work_s"]
        untraced_s = untraced["setup_s"] + untraced["work_s"]
        metrics["trace.untraced_s"] = untraced_s
        metrics["trace.traced_s"] = traced_s
        metrics["trace.overhead_s"] = traced_s - untraced_s
        lines.append(
            f"  trace: traced pass {results.index(traced_result)} "
            f"{traced_s:.4f} s, self times sum "
            f"{metrics['trace.self_sum_s']:.4f} s, untraced {untraced_s:.4f} s, "
            f"overhead {metrics['trace.overhead_s']:+.4f} s"
        )
        units = dict(LAYER_METRICS)
        units.update(
            (name, "s") for name in metrics if name.startswith("experiments.")
        )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: run from the repository root (src/repro not found)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    try:
        result, lines = run_workload(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            out_dir=root / ".perfbench",
        )
    except RuntimeError as exc:  # PassFailed, or a load client that hung
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
