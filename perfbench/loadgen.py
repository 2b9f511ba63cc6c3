"""Closed-loop HTTP load for the ``serve`` workload.

Each client owns one keep-alive ``http.client`` connection and sends
its next request only after the previous reply has been read, the way
a script calling the API does.  Requests are drawn exactly as the
repository load generator (:mod:`repro.serve.loadgen`) draws them for
its well-behaved client class: the same endpoint weights, the same
per-client RNG derivation and the same request factory over the
study's real ids and ``QUERY_TERMS``.  That factory keeps a pool of 12
resources, so join and union suggestions repeat their cache keys.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import threading
import time
import types
import urllib.parse

from repro.serve.loadgen import ClientClass, _Client, _RequestFactory

#: The repository generator's well-behaved client class.
WELL_BEHAVED = ClientClass("well_behaved", count=1, requests=1)

#: How the request factory names a package that does not exist.
MISSING_PREFIX = "SG:no-such-"

#: Seconds a client waits on one reply before counting a transport error.
REPLY_TIMEOUT = 30.0


def request_factory(seed: int, package_ids, resources) -> _RequestFactory:
    """The repository's request factory over the served ids.

    The factory reads only the service's package ids and the
    ``(portal code, resource id)`` of each clean table of its study; the
    load driver runs in another process than the server, so it gets
    those from the server's ready line and hands them over in the same
    shape.
    """
    tables: dict[str, list] = {}
    for code, resource_id in resources:
        tables.setdefault(code, []).append(
            types.SimpleNamespace(resource_id=resource_id)
        )
    study = [
        types.SimpleNamespace(
            code=code, report=types.SimpleNamespace(clean_tables=clean)
        )
        for code, clean in tables.items()
    ]
    service = types.SimpleNamespace(
        api=types.SimpleNamespace(package_ids=list(package_ids)), _study=study
    )
    return _RequestFactory(service, seed)


def as_http(request) -> tuple[str, str]:
    """``(kind, path-with-query)`` of a drawn request.

    The kind says which reply is correct: ``healthz``, a
    ``missing_package`` (a 404), or any other ``api`` call.
    """
    query = urllib.parse.urlencode(request.params)
    path = f"{request.path}?{query}" if query else request.path
    if request.path == "/healthz":
        return "healthz", path
    if request.params.get("id", "").startswith(MISSING_PREFIX):
        return "missing_package", path
    return "api", path


def check_response(kind: str, status: int, body: bytes) -> str | None:
    """Why a reply is wrong, or None when it is the answer expected.

    Every API reply must carry a CKAN envelope; ``/healthz`` is a bare
    probe that must report ``ok``.  A missing package is a correct 404;
    every other request must succeed with a 200.  A 429, 503 or any
    5xx is a refusal or an error, never an expected status.
    """
    expected = 404 if kind == "missing_package" else 200
    if status != expected:
        return f"status {status}"
    try:
        document = json.loads(body)
    except ValueError:
        return "body is not JSON"
    if kind == "healthz":
        ok = isinstance(document, dict) and document.get("status") == "ok"
        return None if ok else "health is not ok"
    if not isinstance(document, dict) or not isinstance(
        document.get("success"), bool
    ):
        return "no CKAN envelope"
    if expected == 200:
        if document["success"] is not True or "result" not in document:
            return "success envelope without result"
        return None
    error = document.get("error")
    if (
        document["success"] is not False
        or not isinstance(error, dict)
        or error.get("code") != 404
    ):
        return "404 without error envelope"
    return None


@dataclasses.dataclass
class ClientLog:
    """What one client saw, in request order."""

    client_id: str
    latencies_ms: list[float] = dataclasses.field(default_factory=list)
    failures: list[str] = dataclasses.field(default_factory=list)
    attempted: int = 0


def _client(host, port, client, deadline, log):
    connection = None
    try:
        while time.monotonic() < deadline:
            kind, path = as_http(client.next_request())
            if connection is None:
                connection = http.client.HTTPConnection(
                    host, port, timeout=REPLY_TIMEOUT
                )
            log.attempted += 1
            started = time.perf_counter_ns()
            try:
                connection.request(
                    "GET", path, headers={"X-Client-Id": log.client_id}
                )
                reply = connection.getresponse()
                body = reply.read()
            except (OSError, http.client.HTTPException) as exc:
                log.failures.append(f"transport {type(exc).__name__}")
                connection.close()
                connection = None
                continue
            log.latencies_ms.append((time.perf_counter_ns() - started) / 1e6)
            reason = check_response(kind, reply.status, body)
            if reason is not None:
                log.failures.append(f"{kind} {path}: {reason}")
            if reply.will_close:
                connection.close()
                connection = None
    except Exception as exc:  # noqa: BLE001 — a dead client fails the run
        log.failures.append(f"client raised {type(exc).__name__}: {exc}")
    finally:
        if connection is not None:
            connection.close()


def closed_loop(
    host: str,
    port: int,
    *,
    clients: int,
    seed: int,
    seconds: float,
    factory: _RequestFactory,
) -> tuple[list[ClientLog], float]:
    """Drive *clients* closed-loop connections for *seconds*.

    Client *i* draws its requests as the repository generator's
    well-behaved client *i* does for *seed*.  Returns each client's log
    and the wall seconds the loop ran.
    """
    drawers = [_Client(WELL_BEHAVED, i, seed, factory) for i in range(clients)]
    logs = [ClientLog(f"perfbench-{d.client_id}") for d in drawers]
    started = time.monotonic()
    deadline = started + seconds
    threads = [
        threading.Thread(target=_client, args=(host, port, drawer, deadline, log))
        for drawer, log in zip(drawers, logs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 2 * REPLY_TIMEOUT)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a load client did not finish")
    return logs, time.monotonic() - started
