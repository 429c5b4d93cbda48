"""The three benchmark workloads (see README.md for why each exists).

``suite-auto`` / ``suite-compiled``: a closed loop of back-to-back
sweeps (``run_functional`` in suite order; all 13 configs in auto mode,
12 in compiled mode, see ``COMPILED_DIVERGENT``), one fresh derived seed
per sweep.  ``service-jobs``: an in-process ``SweepService`` with
two workers on loopback HTTP and two closed-loop clients on two tenants.

Every workload exposes ``setup(traced)`` (the first operation, checked),
``measure(seconds)`` (the measured window, which ``run.py`` pools into
end-to-end metrics), ``measure_traced(seconds)``
(per-layer metrics) and ``close()``, and counts ``attempted`` / ``failed``
operations.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import resource
import statistics
import tempfile
import threading
import time
from pathlib import Path
from urllib.error import HTTPError
from urllib.request import Request, urlopen

from repro.harness import runner
from repro.harness.reporting import render_suite_report
from repro.harness.runner import run_suite_functional, workload_cache_stats
from repro.service.http import SweepService
from repro.service.jobs import JobSpec
from repro.service.tenants import TenantQuota
from repro.sycl.plan import plan_cache_info
from repro.trace.metrics import registry as trace_metrics
from repro.trace.profile import profile_functional
from repro.trace.spans import Tracer, current_tracer, tracing

from run import PROCESSES, percentile
from checks import (SUITE, check_cell, check_golden, check_profile,
                    check_report, profile_rows, reference_outputs)
from layers import cold_launch_excess_ms, instrument, split_operation

GOLDEN = Path("tests/golden/size1_checksums.json")
#: seed-0 digests of the configs whose compiled-mode outputs differ in the
#: last bits from the hand-written vector forms the golden file pins
#: (compiled mode equals the per-item interpreter bitwise, not ``vector_fn``)
COMPILED_GOLDEN = Path(__file__).resolve().parent / "compiled_seed0.json"
#: configs whose compiled form fails the numpy oracle on rare inputs (a
#: program defect, README.md "Defects"), each with one such input.  They
#: stay in the seed-0 set-up sweep but are left out of the measured
#: compiled sweeps, whose operations would otherwise fail at random; the
#: traced run probes each on its failing input instead and reports
#: ``altis.compiled_oracle_mismatches``.
COMPILED_DIVERGENT = {"KMeans": 204948182}
#: traced single-cell runs per probed config (its ``altis.run_ms``)
PROBE_RUNS = 5
TIERS = ("vector", "compiled", "group", "item")
#: layers whose self time counts toward ``layers.accounted_ratio``
NAMED_LAYERS = ("harness", "transfer", "harness.journal",
                "altis.generate", "altis.host", "altis.reference",
                "altis.verify", "sycl.dispatch", "sycl.kernel", "sycl.plan")


def derive_seed(seed: int, *parts) -> int:
    """A per-sweep / per-job seed, derived from the workload seed."""
    digest = hashlib.sha256(repr((seed, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "little") % (2**31 - 2) + 1


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _window(latencies_ms: list, cells: int, seconds: float) -> dict:
    """One process's measured window, pooled by ``run.py``."""
    return {"latencies_ms": latencies_ms, "cells": cells, "seconds": seconds,
            "peak_rss_mb": _peak_rss_mb()}


class CellError:
    """A cell whose ``run_functional`` raised (a failed operation)."""

    def __init__(self, config: str, exc: Exception):
        self.config = config
        self.exc = exc

    def __str__(self) -> str:
        return f"{self.config}: {type(self.exc).__name__}: {self.exc}"


class _Counted:
    """Attempted / failed operation bookkeeping shared by the workloads."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._count_lock = threading.Lock()

    def count(self, errors: list) -> bool:
        with self._count_lock:
            self.attempted += 1
            if errors:
                self.failed += 1
                self.errors.extend(errors)
        return not errors

    def close(self) -> None:
        pass


def _caches() -> dict:
    return {"plan": plan_cache_info(), "memo": workload_cache_stats(),
            "fallbacks": trace_metrics.counter("vectorize.fallback").value}


def _cache_metrics(before: dict, after: dict, ops: int) -> dict:
    """Per-layer metrics read from the plan cache and the workload memo
    over the measured window (``ops`` operations)."""
    p0, p1 = before["plan"], after["plan"]
    m0, m1 = before["memo"], after["memo"]
    hits, misses = p1["hits"] - p0["hits"], p1["misses"] - p0["misses"]
    memo_hits = m1["hits"] - m0["hits"]
    memo_misses = m1["misses"] - m0["misses"]
    out = {
        "sycl.launches": metric(_ratio(hits + misses, ops), "count/op"),
        "sycl.plan.hit_ratio": metric(_ratio(hits, hits + misses), "ratio"),
        "sycl.plan.compiles": metric(
            _ratio(p1["compiles"] - p0["compiles"], ops), "count/op"),
        "sycl.plan.size": metric(p1["size"], "count"),
        "sycl.vectorize.fallbacks": metric(
            after["fallbacks"] - before["fallbacks"], "count"),
        "harness.workload_memo.hit_ratio": metric(
            _ratio(memo_hits, memo_hits + memo_misses), "ratio"),
    }
    for tier in TIERS:
        out[f"sycl.tier.{tier}"] = metric(
            p1["tiers"].get(tier, {}).get("count", 0), "count")
    return out


def _absent(names_units: dict) -> dict:
    """Layers this workload does not exercise read 0."""
    return {name: metric(0, unit) for name, unit in names_units.items()}


_SUITE_ONLY = {"sycl.cold_launch_excess_ms": "ms", "sycl.kernel_ms": "ms",
               "sycl.dispatch_us_per_launch": "us",
               "altis.golden_diffs": "count",
               "altis.compiled_oracle_mismatches": "count"}
_SERVICE_ONLY = {
    "harness.journal_append_ms": "ms", "service.submit_ms.p50": "ms",
    "service.queue_wait_ms.p95": "ms", "service.cells_ms.p50": "ms",
    "service.finish_ms.p50": "ms", "service.delivery_ms.p50": "ms",
    "service.rejected": "count", "trace.profile_leak_ratio": "ratio",
    "trace.profile_foreign_launches": "count",
    "trace.stale_tracer_events": "count",
}


def _config_metric(config: str) -> str:
    return "altis.run_ms." + config.replace(" ", "_")


# ---------------------------------------------------------------------------
# suite-auto / suite-compiled
# ---------------------------------------------------------------------------

class SuiteBench(_Counted):
    """Back-to-back sweeps; one operation is one sweep of ``configs``."""

    def __init__(self, seed: int, part: int, workdir: str, mode: str | None):
        super().__init__()
        self.seed = seed
        self.part = part
        self.mode = mode
        self.configs = SUITE
        if mode == "compiled":
            self.configs = tuple(c for c in SUITE
                                 if c not in COMPILED_DIVERGENT)
        self.cold_launches: list = []
        self.golden_diffs = 0

    def _sweep(self, seed: int, configs: tuple = SUITE) -> list:
        results = []
        for config in configs:
            try:
                results.append(runner.run_functional(config, seed=seed,
                                                     mode=self.mode))
            except Exception as exc:  # a failed cell fails the sweep
                results.append(CellError(config, exc))
        return results

    def _traced_sweep(self, seed: int, configs: tuple = SUITE
                      ) -> tuple[list, dict]:
        with tracing(pid="perfbench") as tracer:
            with tracer.span("bench.op", "bench") as op:
                results = self._sweep(seed, configs)
            events = tracer.events()
        op_span = next(ev for ev in events if ev.id == op.id)
        return results, split_operation(events, op_span)

    def _check(self, results: list, seed: int) -> bool:
        errors = []
        for result in results:
            if isinstance(result, CellError):
                errors.append(str(result))
                continue
            errors += check_cell(result,
                                 reference_outputs(result.config, seed))
        return self.count(errors)

    def setup(self, traced: bool) -> None:
        if traced:
            instrument(current_tracer)
            results, split = self._traced_sweep(0)
            self.cold_launches = split["launches"]
        else:
            results = self._sweep(0)
        golden = json.loads(GOLDEN.read_text())
        self.golden_diffs = len(check_golden(results, golden))
        if self.mode == "compiled":
            golden.update(json.loads(COMPILED_GOLDEN.read_text()))
        self.count(check_golden(results, golden))

    def measure(self, seconds: float) -> dict:
        latencies, busy, cells, i = [], 0.0, 0, 0
        while busy < seconds:
            i += 1
            seed = derive_seed(self.seed, self.part, i)
            t0 = time.perf_counter()
            results = self._sweep(seed, self.configs)
            dt = time.perf_counter() - t0
            busy += dt
            latencies.append(dt * 1e3)
            if self._check(results, seed):
                cells += len(results)
        return _window(latencies, cells, busy)

    def measure_traced(self, seconds: float) -> dict:
        """Odd sweeps untraced, even sweeps traced, so the tracing
        overhead ratio is free of host drift."""
        before = _caches()
        plain, traced, splits = [], [], []
        busy, i = 0.0, 0
        while busy < seconds:
            i += 1
            seed = derive_seed(self.seed, self.part, i)
            t0 = time.perf_counter()
            if i % 2:
                results = self._sweep(seed, self.configs)
            else:
                results, split = self._traced_sweep(seed, self.configs)
                splits.append(split)
            dt = time.perf_counter() - t0
            busy += dt
            (plain if i % 2 else traced).append(dt)
            self._check(results, seed)
        after = _caches()
        mismatches, probes = self._probe_divergent()

        warm: dict = {}
        for split in splits + probes:
            for shape, dur in split["launches"]:
                warm.setdefault(shape, []).append(dur)

        def per_op_ms(layer):
            return _median(s["layers"].get(layer, 0.0) / 1e3 for s in splits)

        out = _cache_metrics(before, after, i)
        out.update({
            "sycl.cold_launch_excess_ms": metric(
                cold_launch_excess_ms(self.cold_launches, warm), "ms"),
            "sycl.kernel_ms": metric(per_op_ms("sycl.kernel"), "ms"),
            "sycl.dispatch_us_per_launch": metric(_median(
                _ratio(s["layers"].get("sycl.dispatch", 0.0),
                       len(s["launches"])) for s in splits), "us"),
            "altis.generate_ms": metric(per_op_ms("altis.generate"), "ms"),
            "altis.reference_ms": metric(per_op_ms("altis.reference"), "ms"),
            "altis.verify_ms": metric(per_op_ms("altis.verify"), "ms"),
            "altis.golden_diffs": metric(self.golden_diffs, "count"),
            "altis.compiled_oracle_mismatches": metric(mismatches, "count"),
            "trace.overhead_ratio": metric(
                _ratio(_median(traced), _median(plain)), "ratio"),
            "layers.accounted_ratio": metric(_median(
                sum(s["layers"].get(n, 0.0) for n in NAMED_LAYERS)
                / s["op_us"] for s in splits), "ratio"),
        })
        for config in SUITE:
            runs = [s for s in splits + probes if config in s["run_sycl"]]
            out[_config_metric(config)] = metric(_median(
                s["run_sycl"][config] / 1e3 for s in runs), "ms")
        out.update(_absent(_SERVICE_ONLY))
        return out

    def _probe_divergent(self) -> tuple[int, list]:
        """Run each config left out of the measured compiled sweeps on its
        known failing input, after the window.  Returns how many fail the
        oracle (reported, not counted as failed operations) and the
        traced splits (for ``altis.run_ms`` and the warm launches)."""
        if self.mode != "compiled":
            return 0, []
        mismatches, splits = 0, []
        for config, seed in COMPILED_DIVERGENT.items():
            for _ in range(PROBE_RUNS):
                results, split = self._traced_sweep(seed, (config,))
                splits.append(split)
            (result,) = results
            if isinstance(result, CellError) or check_cell(
                    result, reference_outputs(config, seed)):
                mismatches += 1
        return mismatches, splits


# ---------------------------------------------------------------------------
# service-jobs
# ---------------------------------------------------------------------------

def _http(method: str, url: str, payload: dict | None = None
          ) -> tuple[int, bytes]:
    data = None if payload is None else json.dumps(payload).encode()
    headers = {} if payload is None else {"Content-Type": "application/json"}
    request = Request(url, data=data, headers=headers, method=method)
    try:
        with urlopen(request, timeout=60) as response:
            return response.status, response.read()
    except HTTPError as exc:
        return exc.code, exc.read()


class ServiceBench(_Counted):
    """Two closed-loop clients against an in-process sweep service; one
    operation is submit -> events followed -> verified report in hand."""

    CLIENTS = 2
    WORKERS = 2
    CONFIGS_PER_JOB = 3
    PROFILE_EVERY = 4
    #: the seed-independent first job that set-up times
    SETUP_CONFIGS = SUITE[:3]
    #: traced and untraced blocks alternate at this period
    BLOCK_S = 1.0

    def __init__(self, seed: int, part: int, workdir: str):
        super().__init__()
        # One CPU for the whole process (threads started later inherit
        # it), so this workload measures a single-core deployment: jobs
        # still interleave on threads, but GIL-free numpy work cannot
        # overlap across cores.  Unpinned on a 2-vCPU VM, GIL hand-offs
        # between vCPUs and host steal made throughput vary 1.8x between
        # runs (README.md, "Process layout").
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.seed = seed
        self.part = part
        root = tempfile.mkdtemp(prefix="service-", dir=workdir)
        self.service = SweepService(
            root, workers=self.WORKERS,
            default_quota=TenantQuota(max_active_jobs=8,
                                      max_total_cells=10**9))
        self.url = None
        self.expected: dict = {}
        self.solo: dict = {}
        self.tracer: Tracer | None = None
        self._t_start = 0.0
        self.triples = []
        for client in range(self.CLIENTS):
            order = list(itertools.combinations(SUITE, self.CONFIGS_PER_JOB))
            random.Random(derive_seed(seed, client)).shuffle(order)
            start = part * len(order) // PROCESSES
            self.triples.append(order[start:] + order[:start])

    # -- instrumentation --------------------------------------------------
    def _in_traced_block(self, t: float) -> bool:
        return int((t - self._t_start) / self.BLOCK_S) % 2 == 1

    def _block_tracer(self) -> Tracer | None:
        if self.tracer is None or not self._in_traced_block(
                time.perf_counter()):
            return None
        return self.tracer

    # -- one operation ----------------------------------------------------
    def _job(self, tenant: str, spec: JobSpec) -> dict:
        base = f"{self.url}/v1/jobs"
        t0 = time.perf_counter()
        status, body = _http("POST", base, dict(spec.to_dict(),
                                                tenant=tenant))
        submit_s = time.perf_counter() - t0
        if status != 202:
            return {"errors": [f"submit -> HTTP {status}"],
                    "rejected": status == 429, "leaked": None}
        jid = json.loads(body)["id"]
        _, raw = _http("GET", f"{base}/{jid}/events?follow=1&timeout=120"
                              f"&tenant={tenant}")
        events = [json.loads(line) for line in raw.splitlines() if line]
        states = {e["state"]: e["t_ms"] for e in events
                  if e["type"] == "state"}
        status, report = _http("GET", f"{base}/{jid}/report?tenant={tenant}")
        latency_s = time.perf_counter() - t0
        errors = [] if "done" in states else [f"job {jid} ended {states}"]
        if not errors:
            errors = check_report(report, self._expected(spec))
        out = {"errors": errors, "t0": t0, "latency_ms": latency_s * 1e3,
               "submit_ms": submit_s * 1e3, "leaked": None, "foreign": 0}
        cells = [e["t_ms"] for e in events if e["type"] == "cell"]
        if not errors and cells:
            out.update(
                queue_wait_ms=states["running"] - states["queued"],
                cells_ms=cells[-1] - states["running"],
                finish_ms=states["done"] - cells[-1],
                delivery_ms=latency_s * 1e3 - submit_s * 1e3
                - states["done"])
        if spec.profile is not None:
            status, raw = _http("GET", f"{base}/{jid}/artifacts/profile.json"
                                       f"?tenant={tenant}")
            perrors, leaked, foreign = check_profile(
                raw if status == 200 else None, self.solo[spec.profile])
            out["errors"] += perrors
            out.update(leaked=leaked, foreign=foreign)
        return out

    def _spec(self, client: int, job: int) -> JobSpec:
        """Each client walks every config triple in its own seed-shuffled
        order, each process of a run from another third of it, so every
        run sees nearly the same mix of work; every 4th job profiles one
        of its configs, in rotation."""
        triples = self.triples[client]
        configs = triples[job % len(triples)]
        profile = None
        if job % self.PROFILE_EVERY == self.PROFILE_EVERY - 1:
            profile = configs[job // self.PROFILE_EVERY % len(configs)]
        return JobSpec(configs=configs, profile=profile,
                       tag=f"s{self.seed}-p{self.part}-c{client}-j{job}")

    def _expected(self, spec: JobSpec) -> str:
        """The batch report for the job's configs (precomputed for the
        measured window; computed here, after the job, at set-up)."""
        configs = spec.resolved_configs()
        if configs not in self.expected:
            self.expected[configs] = render_suite_report(
                run_suite_functional(configs=configs)) + "\n"
        return self.expected[configs]

    # -- phases -----------------------------------------------------------
    def setup(self, traced: bool) -> None:
        self.url = self.service.start()
        spec = JobSpec(configs=self.SETUP_CONFIGS, tag="setup")
        self.count(self._job("bench-0", spec)["errors"])
        if traced:
            instrument(self._block_tracer)

    def _prepare(self) -> None:
        """Oracles for the measured window, computed before it opens:
        the batch report of every config triple (one batch sweep, then
        the triple's rows) and a solo profile of every config."""
        batch = dict(zip(SUITE, run_suite_functional()))
        setup_triple = tuple(self.SETUP_CONFIGS)
        want = self.expected[setup_triple]
        for triple in itertools.combinations(SUITE, self.CONFIGS_PER_JOB):
            self.expected[triple] = render_suite_report(
                [batch[c] for c in triple]) + "\n"
        if self.expected[setup_triple] != want:
            self.count(["batch rows differ from a batch sweep of the "
                        "same configs"])
        for config in SUITE:
            self.solo[config] = profile_rows(
                profile_functional(config).profile)

    def _drive(self, seconds: float) -> tuple[list, float]:
        records: list = []
        lock = threading.Lock()
        deadline = time.perf_counter() + seconds

        def client(index: int) -> None:
            job = 0
            while time.perf_counter() < deadline:
                spec = self._spec(index, job)
                try:
                    record = self._job(f"bench-{index}", spec)
                except Exception as exc:  # the client loop must go on
                    record = {"errors": [f"job {spec.tag}: {exc!r}"],
                              "leaked": None}
                self.count(record["errors"])
                with lock:
                    records.append(record)
                job += 1

        self._t_start = time.perf_counter()
        threads = [threading.Thread(target=client, args=(i,), daemon=True)
                   for i in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return records, time.perf_counter() - self._t_start

    def measure(self, seconds: float) -> dict:
        self._prepare()
        records, window = self._drive(seconds)
        ok = [r for r in records if not r["errors"]]
        return _window([r["latency_ms"] for r in ok],
                       len(ok) * self.CONFIGS_PER_JOB, window)

    def measure_traced(self, seconds: float) -> dict:
        self._prepare()
        self.tracer = Tracer(pid="perfbench")
        before = _caches()
        records, _ = self._drive(seconds)
        after = _caches()
        stale = current_tracer()
        ok = [r for r in records if not r["errors"]]
        profiled = [r for r in records if r["leaked"] is not None]
        traced_ops = [r for r in ok if self._in_traced_block(r["t0"])]
        events = self.tracer.events()

        def per_op_ms(name):
            total = sum(ev.dur_us for ev in events if ev.name == name)
            return _ratio(total / 1e3, len(traced_ops))

        def p(key, q):
            return percentile([r[key] for r in ok if key in r], q)

        parts = ("submit_ms", "queue_wait_ms", "cells_ms", "finish_ms",
                 "delivery_ms")
        out = _cache_metrics(before, after, len(records))
        out.update(_absent(_SUITE_ONLY))
        out.update({
            "altis.generate_ms": metric(per_op_ms("altis.generate"), "ms"),
            "altis.reference_ms": metric(per_op_ms("altis.reference"), "ms"),
            "altis.verify_ms": metric(per_op_ms("altis.verify"), "ms"),
            "harness.journal_append_ms": metric(_median(
                ev.dur_us / 1e3 for ev in events
                if ev.name == "harness.journal_append"), "ms"),
            "service.submit_ms.p50": metric(p("submit_ms", 50), "ms"),
            "service.queue_wait_ms.p95": metric(p("queue_wait_ms", 95), "ms"),
            "service.cells_ms.p50": metric(p("cells_ms", 50), "ms"),
            "service.finish_ms.p50": metric(p("finish_ms", 50), "ms"),
            "service.delivery_ms.p50": metric(p("delivery_ms", 50), "ms"),
            "service.rejected": metric(
                sum(1 for r in records if r.get("rejected")), "count"),
            "trace.overhead_ratio": metric(_ratio(
                _median(r["latency_ms"] for r in traced_ops),
                _median(r["latency_ms"] for r in ok
                        if not self._in_traced_block(r["t0"]))), "ratio"),
            "trace.profile_leak_ratio": metric(_ratio(
                sum(1 for r in profiled if r["leaked"]), len(profiled)),
                "ratio"),
            "trace.profile_foreign_launches": metric(
                sum(r["foreign"] for r in profiled), "count"),
            # the benchmark never installs the process tracer here, so one
            # still installed after the window is a profile tracer that
            # concurrent profiled jobs failed to restore (ROADMAP item 5)
            "trace.stale_tracer_events": metric(
                len(stale.events()) if stale else 0, "count"),
            "layers.accounted_ratio": metric(_median(
                sum(r[k] for k in parts) / r["latency_ms"]
                for r in ok if "cells_ms" in r), "ratio"),
        })
        run_ms: dict = {}
        by_id = {ev.id: ev for ev in events}
        for ev in events:
            if ev.name == "altis.run_sycl":
                parent = by_id.get(ev.parent_id)
                config = parent.args.get("config") if parent else None
                run_ms.setdefault(config, []).append(ev.dur_us / 1e3)
        for config in SUITE:
            out[_config_metric(config)] = metric(
                _median(run_ms.get(config, ())), "ms")
        return out

    def close(self) -> None:
        if self.url is not None:
            self.service.shutdown(drain=True, timeout=60)


WORKLOADS = {
    "suite-auto": lambda seed, part, workdir: SuiteBench(
        seed, part, workdir, None),
    "suite-compiled": lambda seed, part, workdir: SuiteBench(
        seed, part, workdir, "compiled"),
    "service-jobs": ServiceBench,
}
