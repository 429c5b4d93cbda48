"""End-to-end tests of the sweep service's HTTP API.

The headline scenario from the service's acceptance bar: concurrent
clients across two tenants, injected faults, reports byte-identical to
the batch ``repro suite`` path, quota rejections as 429s, and a
journal-backed resume after a simulated server kill.
"""

from __future__ import annotations

import io
import json
import threading
from contextlib import redirect_stdout
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import pytest

from repro.altis.base import Variant
from repro.harness.cli import main
from repro.harness.reporting import render_suite_report
from repro.harness.runner import run_suite_functional
from repro.service import TenantQuota
from repro.service.http import SweepService


@pytest.fixture
def service(tmp_path):
    svc = SweepService(tmp_path / "svc", workers=4)
    svc.start()
    yield svc
    svc.shutdown(drain=False)


def _call(url, method="GET", payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    headers = {"Content-Type": "application/json"} if data else {}
    request = Request(url, data=data, headers=headers, method=method)
    try:
        with urlopen(request, timeout=30) as response:
            return response.status, response.read()
    except HTTPError as exc:
        return exc.code, exc.read()


def _submit(service, tenant, **spec):
    status, raw = _call(f"{service.url}/v1/jobs", "POST",
                        dict(spec, tenant=tenant))
    assert status == 202, raw
    return json.loads(raw)


def _wait(service, tenant, jid, timeout=120.0):
    job = service.queue.get(jid, tenant=tenant)
    assert job is not None and job.wait(timeout)
    status, raw = _call(f"{service.url}/v1/jobs/{jid}?tenant={tenant}")
    assert status == 200
    return json.loads(raw)


# ---------------------------------------------------------------------------
# The headline e2e scenario
# ---------------------------------------------------------------------------

def test_concurrent_tenants_with_faults_byte_identical_reports(service):
    """8 concurrent client threads, 2 tenants, transient fault injection;
    every report must match the batch engine byte for byte."""
    configs = ["NW", "Where"]
    outcomes = []
    lock = threading.Lock()

    def client(index):
        tenant = f"tenant-{index % 2}"
        doc = _submit(service, tenant, configs=configs, retries=2,
                      inject_faults="cell:exception:0.5", fault_seed=index,
                      tag=f"client-{index}")
        final = _wait(service, tenant, doc["id"])
        status, report = _call(
            f"{service.url}/v1/jobs/{doc['id']}/report?tenant={tenant}")
        with lock:
            outcomes.append((final, status, report))

    threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    expected = render_suite_report(
        run_suite_functional("rtx2080", Variant("sycl_opt"),
                             configs=tuple(configs))) + "\n"
    assert len(outcomes) == 8
    for final, status, report in outcomes:
        # transient faults (persist=1) always recover under retries=2
        assert final["state"] == "done"
        assert status == 200
        assert report.decode() == expected


def test_report_matches_suite_cli_stdout(service):
    """The service's full-suite report equals `repro suite` stdout."""
    doc = _submit(service, "acme")
    _wait(service, "acme", doc["id"])
    status, report = _call(
        f"{service.url}/v1/jobs/{doc['id']}/report?tenant=acme")
    assert status == 200
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert main(["suite"]) == 0
    assert report.decode() == buffer.getvalue()


# ---------------------------------------------------------------------------
# Quotas, namespaces, errors
# ---------------------------------------------------------------------------

def test_quota_rejection_is_429_with_retry_after(tmp_path):
    svc = SweepService(tmp_path / "svc", workers=1,
                       default_quota=TenantQuota(max_total_cells=2))
    svc.start()
    try:
        _submit(svc, "small", configs=["NW", "Where"], tag="a")
        status, raw = _call(f"{svc.url}/v1/jobs", "POST",
                            {"tenant": "small", "configs": ["SRAD"],
                             "tag": "b"})
        assert status == 429
        assert "cell budget" in json.loads(raw)["error"]
    finally:
        svc.shutdown(drain=False)


def test_cross_tenant_ids_are_404(service):
    doc = _submit(service, "acme", configs=["Where"])
    status, _ = _call(f"{service.url}/v1/jobs/{doc['id']}?tenant=rival")
    assert status == 404
    # same for subresources
    status, _ = _call(
        f"{service.url}/v1/jobs/{doc['id']}/report?tenant=rival")
    assert status == 404


def test_bad_requests_are_400(service):
    for payload in (
        {"configs": ["Where"]},                        # no tenant
        {"tenant": "acme", "configs": ["Nope"]},       # unknown config
        {"tenant": "acme", "bogus": 1},                # unknown field
        {"tenant": "bad name!", "configs": ["Where"]}, # invalid tenant
    ):
        status, _ = _call(f"{service.url}/v1/jobs", "POST", payload)
        assert status == 400, payload
    status, _ = _call(f"{service.url}/v1/nope")
    assert status == 404


def test_validation_type_errors_are_400_not_dropped_connections(service):
    """Validation that raises bare ValueError/TypeError (unknown
    variants, mis-typed JSON fields, non-numeric query params) must map
    to 400, not escape the handler as a dropped connection."""
    for payload in (
        {"tenant": "acme", "variant": "cuda-classic"},  # unknown variant
        {"tenant": "acme", "retries": "3"},             # mis-typed field
        {"tenant": "acme", "configs": 5},               # non-iterable
    ):
        status, raw = _call(f"{service.url}/v1/jobs", "POST", payload)
        assert status == 400, (payload, raw)
        assert "error" in json.loads(raw)
    doc = _submit(service, "acme", configs=["Where"])
    for params in ("timeout=soon", "since=first"):
        status, raw = _call(
            f"{service.url}/v1/jobs/{doc['id']}/events?tenant=acme&{params}")
        assert status == 400, (params, raw)
        assert "numeric" in json.loads(raw)["error"]


def test_report_before_completion_is_409(tmp_path):
    svc = SweepService(tmp_path / "svc", workers=1)
    svc.start()
    try:
        svc.queue.kill()  # nothing will run; jobs stay queued
        svc.queue._killed.clear()
        doc = _submit(svc, "acme", configs=["Where"])
        status, raw = _call(
            f"{svc.url}/v1/jobs/{doc['id']}/report?tenant=acme")
        assert status == 409
        assert "queued" in json.loads(raw)["error"]
    finally:
        svc.shutdown(drain=False)


# ---------------------------------------------------------------------------
# Introspection endpoints
# ---------------------------------------------------------------------------

def test_events_stream_is_ndjson_with_cell_progress(service):
    doc = _submit(service, "acme", configs=["NW", "Where"])
    _wait(service, "acme", doc["id"])
    status, raw = _call(
        f"{service.url}/v1/jobs/{doc['id']}/events?tenant=acme&follow=1")
    assert status == 200
    events = [json.loads(line) for line in raw.decode().splitlines()]
    assert [e["seq"] for e in events] == list(range(len(events)))
    kinds = [e["type"] for e in events]
    assert kinds.count("cell") == 2
    assert kinds[0] == "state" and kinds[-1] == "state"
    assert events[-1]["state"] == "done"
    cell_keys = {e["key"] for e in events if e["type"] == "cell"}
    assert cell_keys == {"NW", "Where"}
    # the cursor works: re-reading from the end yields nothing
    status, raw = _call(
        f"{service.url}/v1/jobs/{doc['id']}/events"
        f"?tenant=acme&since={len(events)}")
    assert status == 200 and raw.decode().strip() == ""


def test_healthz_metrics_and_tenant_snapshots(service):
    doc = _submit(service, "acme", configs=["Where"])
    _wait(service, "acme", doc["id"])
    status, raw = _call(f"{service.url}/v1/healthz")
    assert status == 200
    health = json.loads(raw)
    assert health["status"] == "ok" and health["jobs"]["done"] >= 1
    status, raw = _call(f"{service.url}/v1/metrics")
    assert status == 200
    metrics = json.loads(raw)
    assert metrics["service.jobs_submitted"]["value"] >= 1
    status, raw = _call(f"{service.url}/v1/tenants")
    assert status == 200
    tenants = json.loads(raw)
    assert tenants["acme"]["jobs_admitted"] >= 1
    assert tenants["acme"]["quota"]["max_active_jobs"] == 8


def test_profile_artifacts_are_served(service):
    doc = _submit(service, "acme", configs=["Where"], profile="Where")
    final = _wait(service, "acme", doc["id"])
    assert final["state"] == "done"
    status, raw = _call(
        f"{service.url}/v1/jobs/{doc['id']}/artifacts?tenant=acme")
    assert status == 200
    names = json.loads(raw)["artifacts"]
    assert "profile.json" in names and "profile.folded" in names
    for name in names:
        status, data = _call(
            f"{service.url}/v1/jobs/{doc['id']}/artifacts/{name}"
            f"?tenant=acme")
        assert status == 200 and data
    status, _ = _call(
        f"{service.url}/v1/jobs/{doc['id']}/artifacts/nope?tenant=acme")
    assert status == 404


# ---------------------------------------------------------------------------
# The crash drill: kill the server, restart over the same root, resume
# ---------------------------------------------------------------------------

def test_server_kill_then_restart_resumes_unfinished_cells(tmp_path):
    root = tmp_path / "svc"
    svc1 = SweepService(root, workers=1)
    svc1.start()
    # abort at LavaMD: the 5 suite-ordered cells before it get journaled
    doc = _submit(svc1, "acme", on_error="abort", retries=0,
                  inject_faults="cell:exception:1.0:persist=9:match=LavaMD")
    final = _wait(svc1, "acme", doc["id"])
    assert final["state"] == "failed"
    svc1.kill()  # power loss: only fsync'd journals survive

    svc2 = SweepService(root, workers=1)
    svc2.start()
    try:
        # the killed service's jobs are gone (in-memory), but the spec
        # resubmitted clean maps to the same sweep id -> same journal
        status, _ = _call(f"{svc2.url}/v1/jobs/{doc['id']}?tenant=acme")
        assert status == 404
        doc2 = _submit(svc2, "acme")
        final2 = _wait(svc2, "acme", doc2["id"])
        assert final2["state"] == "done"
        assert final2["cells"]["resumed"] == 5  # CFD FP32 ... KMeans
        assert final2["cells"]["done"] == final2["cells"]["total"]
        status, report = _call(
            f"{svc2.url}/v1/jobs/{doc2['id']}/report?tenant=acme")
        expected = render_suite_report(
            run_suite_functional("rtx2080", Variant("sycl_opt"))) + "\n"
        assert report.decode() == expected
    finally:
        svc2.shutdown(drain=False)


def test_follower_wakes_on_terminal_emit_without_polling(tmp_path,
                                                         monkeypatch):
    """A follower blocked on a running job is woken by the terminal
    ``emit`` itself: the stream never sleeps between reads."""
    import time as _time

    from repro.service import http as http_mod

    class NoSleepTime:
        """The ``time`` module as the handler sees it, minus ``sleep``."""

        def __getattr__(self, name):
            return getattr(_time, name)

        @staticmethod
        def sleep(seconds):
            raise AssertionError(f"event stream slept {seconds} s")

    monkeypatch.setattr(http_mod, "time", NoSleepTime())
    svc = SweepService(tmp_path / "svc", workers=1)
    svc.start()
    try:
        svc.queue.kill()  # nothing will run; the test drives the job
        svc.queue._killed.clear()
        doc = _submit(svc, "acme", configs=["Where"])
        job = svc.queue.get(doc["id"], tenant="acme")
        job.transition("running")
        url = (f"{svc.url}/v1/jobs/{doc['id']}/events"
               "?tenant=acme&follow=1&timeout=30")
        with urlopen(url, timeout=30) as stream:
            # both events so far arrive before the follower blocks
            first = [json.loads(stream.readline()) for _ in range(2)]
            assert [e["state"] for e in first] == ["queued", "running"]
            t0 = _time.monotonic()
            job.transition("done")
            rest = [json.loads(line) for line in stream.read().splitlines()]
            woke_s = _time.monotonic() - t0
        assert [e["state"] for e in rest] == ["done"]
        assert rest[0]["seq"] == 2
        assert woke_s < 10.0  # the emit, not the 30 s deadline, ended it
    finally:
        svc.shutdown(drain=False)
