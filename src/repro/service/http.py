"""The sweep service's HTTP API — stdlib ``http.server``, no new deps.

:class:`SweepService` composes a :class:`~repro.service.tenants.TenantRegistry`
and a :class:`~repro.service.jobs.JobQueue` under one on-disk root and
exposes them over a threaded HTTP server (one handler thread per
connection; job execution stays on the queue's worker pool).

Endpoints (all under ``/v1``; see docs/service.md for the operator's
handbook with request/response examples):

========  =============================  =======================================
method    path                           purpose
========  =============================  =======================================
GET       ``/v1/healthz``                liveness + uptime + queue depth
GET       ``/v1/metrics``                process-wide metrics snapshot (JSON)
GET       ``/v1/tenants``                per-tenant usage/quota snapshot
POST      ``/v1/jobs``                   submit a sweep (202, idempotent)
GET       ``/v1/jobs?tenant=T``          list the tenant's jobs
GET       ``/v1/jobs/<id>``              job status document
GET       ``/v1/jobs/<id>/events``       progress log as NDJSON (``follow=1``
                                         streams until the job is terminal)
GET       ``/v1/jobs/<id>/report``       the sweep report (text/plain),
                                         byte-identical to ``repro suite``
GET       ``/v1/jobs/<id>/artifacts``    artifact listing (JSON)
GET       ``/v1/jobs/<id>/artifacts/N``  one artifact (profile/flamegraph/...)
========  =============================  =======================================

Tenancy is declared per request — ``X-Repro-Tenant`` header, ``tenant``
query parameter, or ``tenant`` field of the POST body — and enforced by
namespace: a job id belonging to another tenant is a 404, never a 403,
so ids do not leak across namespaces.  Quota rejections are 429 with a
``Retry-After`` hint.  There is no authentication layer; deploy behind
a reverse proxy that authenticates and injects the tenant header (see
the handbook's security notes).
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from ..common.errors import (InvalidParameterError, QuotaExceededError,
                             ReproError)
from ..trace.metrics import registry as _metrics
from .jobs import Job, JobQueue, JobSpec
from .tenants import TenantQuota, TenantRegistry

__all__ = ["SweepService", "serve"]


class SweepService:
    """One service instance: tenants + job queue + HTTP server factory.

    The service is fully defined by its ``root`` directory — journals,
    artifacts, and caches all live under it — so restarting a killed
    service over the same root recovers every finished cell through the
    sweep journals (``kill()``-then-``SweepService(root)`` is the crash
    drill in ``tests/test_service_http.py``).
    """

    def __init__(self, root: str | Path, *, workers: int = 4,
                 default_quota: TenantQuota | None = None):
        self.root = Path(root)
        self.tenants = TenantRegistry(
            self.root, default_quota=default_quota or TenantQuota())
        self.queue = JobQueue(self.tenants, workers=workers)
        self.started_at = time.time()
        self._server: ThreadingHTTPServer | None = None
        self._server_thread: threading.Thread | None = None

    # -- lifecycle --------------------------------------------------------
    def make_server(self, host: str = "127.0.0.1",
                    port: int = 0) -> ThreadingHTTPServer:
        """Bind the HTTP server (``port=0`` picks an ephemeral port)."""
        service = self

        class Handler(_SweepHandler):
            pass

        Handler.service = service

        class Server(ThreadingHTTPServer):
            # the stdlib default backlog (5) drops connections under a
            # few hundred concurrent clients; size it for the load test
            request_queue_size = 512

        server = Server((host, port), Handler)
        server.daemon_threads = True
        self._server = server
        return server

    def start(self, host: str = "127.0.0.1", port: int = 0) -> str:
        """Serve in a background thread; returns the base URL."""
        server = self.make_server(host, port)
        thread = threading.Thread(target=server.serve_forever,
                                  name="sweep-http", daemon=True)
        thread.start()
        self._server_thread = thread
        return self.url

    @property
    def url(self) -> str:
        if self._server is None:
            raise InvalidParameterError("server not started")
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def shutdown(self, *, drain: bool = True,
                 timeout: float | None = 30.0) -> None:
        """Stop serving; ``drain=True`` finishes admitted jobs first."""
        if drain:
            self.queue.drain(timeout)
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        self.queue.kill()

    def kill(self) -> None:
        """The crash drill: drop the HTTP server and abandon the queue
        without draining.  Only fsync'd journals survive — exactly what
        a power loss leaves behind."""
        self.shutdown(drain=False)

    # -- service-level documents ------------------------------------------
    def health(self) -> dict:
        jobs = self.queue.jobs()
        return {
            "status": "ok",
            "uptime_s": round(time.time() - self.started_at, 3),
            "tenants": len(self.tenants.names()),
            "jobs": {
                state: sum(1 for j in jobs if j.state == state)
                for state in ("queued", "running", "done", "degraded",
                              "failed")
            },
        }


class _SweepHandler(BaseHTTPRequestHandler):
    """Request handler bound to one :class:`SweepService` (class attr)."""

    service: SweepService = None  # injected by make_server
    protocol_version = "HTTP/1.1"
    server_version = "repro-sweepd/1"

    # -- plumbing ---------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # 500-client load tests must not spam stderr

    def _send_json(self, status: int, payload: dict,
                   headers: dict | None = None) -> None:
        body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str,
                   content_type: str = "text/plain; charset=utf-8") -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str,
               headers: dict | None = None) -> None:
        self._send_json(status, {"error": message}, headers)

    def _tenant(self, query: dict, body: dict | None = None) -> str | None:
        if body and body.get("tenant"):
            return str(body["tenant"])
        if query.get("tenant"):
            return query["tenant"][0]
        return self.headers.get("X-Repro-Tenant")

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            payload = json.loads(raw)
        except ValueError as exc:
            raise InvalidParameterError(f"request body is not JSON: {exc}")
        if not isinstance(payload, dict):
            raise InvalidParameterError("request body must be a JSON object")
        return payload

    # -- routing ----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._route("POST")

    def _route(self, method: str) -> None:
        _metrics.counter("service.http_requests").inc()
        started = time.monotonic()
        try:
            self._dispatch(method)
        except QuotaExceededError as exc:
            self._error(429, str(exc), {"Retry-After": "1"})
        except InvalidParameterError as exc:
            self._error(400, str(exc))
        except ReproError as exc:
            self._error(500, f"{type(exc).__name__}: {exc}")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to answer
        except (ValueError, TypeError) as exc:
            # request validation that raises outside the ReproError
            # hierarchy (mis-typed JSON fields, bad numeric coercions):
            # still the client's fault, so a 400, not a dropped
            # connection with a stderr traceback
            self._error(400, f"{type(exc).__name__}: {exc}")
        finally:
            _metrics.histogram("service.http_latency_s").observe(
                time.monotonic() - started)

    def _dispatch(self, method: str) -> None:
        url = urlparse(self.path)
        query = parse_qs(url.query)
        parts = [p for p in url.path.split("/") if p]
        if not parts or parts[0] != "v1":
            return self._error(404, f"unknown path {url.path!r}")
        route = parts[1:]

        if method == "GET" and route == ["healthz"]:
            return self._send_json(200, self.service.health())
        if method == "GET" and route == ["metrics"]:
            return self._send_json(200, _metrics.snapshot())
        if method == "GET" and route == ["tenants"]:
            return self._send_json(200, self.service.tenants.snapshot())
        if route and route[0] == "jobs":
            return self._dispatch_jobs(method, route[1:], query)
        self._error(404, f"unknown path {url.path!r}")

    def _dispatch_jobs(self, method: str, route: list,
                       query: dict) -> None:
        if method == "POST" and not route:
            return self._submit(query)
        if method != "GET":
            return self._error(405, f"{method} not allowed here")
        if not route:
            return self._list_jobs(query)
        job = self.service.queue.get(route[0], tenant=self._tenant(query))
        if job is None:
            return self._error(404, f"no job {route[0]!r} in this namespace")
        rest = route[1:]
        if not rest:
            return self._send_json(200, job.snapshot())
        if rest == ["events"]:
            return self._stream_events(job, query)
        if rest == ["report"]:
            if job.report is None:
                return self._error(409, f"job {job.id} is {job.state}; "
                                        "no report yet")
            return self._send_text(200, job.report)
        if rest == ["artifacts"]:
            return self._send_json(200, {"artifacts": sorted(job.artifacts)})
        if len(rest) == 2 and rest[0] == "artifacts":
            return self._send_artifact(job, rest[1])
        self._error(404, f"unknown job subresource {'/'.join(rest)!r}")

    # -- endpoints --------------------------------------------------------
    def _submit(self, query: dict) -> None:
        body = self._read_body()
        tenant = self._tenant(query, body)
        if not tenant:
            return self._error(400, "no tenant: set the X-Repro-Tenant "
                                    "header or a 'tenant' body field")
        body.pop("tenant", None)
        spec = JobSpec.from_dict(body)
        job = self.service.queue.submit(tenant, spec)
        self._send_json(202, job.snapshot(),
                        {"Location": f"/v1/jobs/{job.id}"})

    def _list_jobs(self, query: dict) -> None:
        tenant = self._tenant(query)
        if not tenant:
            return self._error(400, "listing jobs requires a tenant")
        jobs = self.service.queue.jobs(tenant)
        self._send_json(200, {"jobs": [j.snapshot() for j in jobs]})

    def _stream_events(self, job: Job, query: dict) -> None:
        """NDJSON event stream: the job's progress log, one JSON object
        per line.  ``follow=1`` keeps the response open, emitting events
        as they happen, until the job is terminal (or ``timeout``
        seconds pass, default 60)."""
        follow = query.get("follow", ["0"])[0] in ("1", "true", "yes")
        try:
            timeout = float(query.get("timeout", ["60"])[0])
            since = int(query.get("since", ["0"])[0])
        except ValueError:
            raise InvalidParameterError(
                "'timeout' and 'since' query parameters must be numeric")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        # stream until done: chunked-less, so close delimits the body
        self.send_header("Connection", "close")
        self.end_headers()
        deadline = time.monotonic() + timeout
        cursor = since
        while True:
            events = job.events(cursor)
            for event in events:
                line = json.dumps(event, sort_keys=True,
                                  separators=(",", ":")) + "\n"
                self.wfile.write(line.encode())
            cursor += len(events)
            if events:
                self.wfile.flush()
            remaining = deadline - time.monotonic()
            if not follow or job.done or remaining <= 0:
                break
            job.wait_events(cursor, remaining)
        # terminal drain: events emitted between the last read and the
        # done-flag flip
        for event in job.events(cursor):
            line = json.dumps(event, sort_keys=True,
                              separators=(",", ":")) + "\n"
            self.wfile.write(line.encode())

    def _send_artifact(self, job: Job, name: str) -> None:
        path = job.artifacts.get(name)
        if path is None:
            return self._error(
                404, f"job {job.id} has no artifact {name!r}; "
                     f"available: {sorted(job.artifacts)}")
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            return self._error(500, f"artifact unreadable: {exc}")
        content_type = ("application/json" if name.endswith(".json")
                        else "text/plain; charset=utf-8")
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


def serve(root: str | Path, *, host: str = "127.0.0.1", port: int = 8077,
          workers: int = 4, default_quota: TenantQuota | None = None,
          quiet: bool = False) -> int:
    """Run a sweep service in the foreground until interrupted
    (the ``repro serve`` entry point)."""
    service = SweepService(root, workers=workers,
                           default_quota=default_quota)
    server = service.make_server(host, port)
    if not quiet:
        print(f"repro sweep service on http://{host}:{server.server_address[1]}"
              f" (root: {service.root}, {workers} sweep workers)")
        print("endpoints: POST /v1/jobs  GET /v1/jobs/<id>[/events|/report]"
              "  GET /v1/healthz  GET /v1/metrics  GET /v1/tenants")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        if not quiet:
            print("\ndraining jobs before shutdown...")
        service.shutdown(drain=True)
    return 0
