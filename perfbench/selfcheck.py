"""Prove that every output gate of the benchmark fires.

    python3 perfbench/selfcheck.py

Run from the root of a checkout.  For each gate it runs one clean
operation through the benchmark's own code path (which must pass), then
the same operation with one corruption injected (which must be counted
as exactly one failed operation): one output array, one golden-checked
array, one report byte and one profile artifact.  Exits non-zero if a
gate stays silent or a clean operation fails.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from repro.service import jobs as service_jobs  # noqa: E402
from repro.trace import profile as trace_profile  # noqa: E402

from checks import check_golden  # noqa: E402
from workloads import GOLDEN, ServiceBench, SuiteBench, derive_seed  # noqa: E402


def _flip(arr) -> None:
    """Corrupt one element of an output array in place."""
    flat = arr.reshape(-1)
    flat[0] = flat[0] + 1 if arr.dtype.kind in "iu" else flat[0] * 2 + 1


def _failed_by(bench, operation) -> int:
    before = bench.failed
    operation()
    return bench.failed - before


def gate_outputs(bench: SuiteBench) -> tuple[int, int]:
    seed = derive_seed(1, 0, 1)
    clean = _failed_by(bench, lambda: bench._check(bench._sweep(seed), seed))
    results = bench._sweep(seed)
    _flip(next(iter(results[4].outputs.values())))
    return clean, _failed_by(bench, lambda: bench._check(results, seed))


def gate_golden(bench: SuiteBench) -> tuple[int, int]:
    golden = json.loads(GOLDEN.read_text())
    results = bench._sweep(0)
    clean = _failed_by(bench, lambda: bench.count(
        check_golden(results, golden)))
    _flip(next(iter(results[7].outputs.values())))
    return clean, _failed_by(bench, lambda: bench.count(
        check_golden(results, golden)))


def _job_failures(bench: ServiceBench, spec) -> int:
    return _failed_by(bench, lambda: bench.count(
        bench._job("bench-0", spec)["errors"]))


def gate_report(bench: ServiceBench) -> tuple[int, int]:
    clean = _job_failures(bench, bench._spec(0, 0))
    render = service_jobs.render_suite_report

    def corrupted(results):
        text = render(results)
        return text[:-1] + chr(ord(text[-1]) ^ 1)

    service_jobs.render_suite_report = corrupted
    try:
        return clean, _job_failures(bench, bench._spec(0, 1))
    finally:
        service_jobs.render_suite_report = render


def gate_profile(bench: ServiceBench) -> tuple[int, int]:
    clean = _job_failures(bench, bench._spec(0, 3))
    write = trace_profile.write_profile

    def corrupted(out_dir, run):
        paths = write(out_dir, run)
        raw = paths["profile.json"].read_bytes()
        paths["profile.json"].write_bytes(raw[: len(raw) // 2])
        return paths

    trace_profile.write_profile = corrupted
    try:
        return clean, _job_failures(bench, bench._spec(0, 7))
    finally:
        trace_profile.write_profile = write


def main() -> int:
    root = Path.cwd() / ".perfbench_run"
    root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selfcheck-", dir=root)
    suite = SuiteBench(1, 0, workdir, None)
    service = ServiceBench(1, 0, workdir)
    try:
        service.setup(traced=False)
        service._prepare()
        outcomes = {
            "output array vs numpy reference": gate_outputs(suite),
            "seed-0 sweep vs golden checksums": gate_golden(suite),
            "service report vs batch report": gate_report(service),
            "profile artifact parse": gate_profile(service),
        }
    finally:
        service.close()
        shutil.rmtree(workdir, ignore_errors=True)
    ok = True
    for gate, (clean, corrupted) in outcomes.items():
        fired = clean == 0 and corrupted == 1
        ok &= fired
        print(f"{'fires' if fired else 'SILENT':6}  {gate}: clean "
              f"operation failed={clean}, corrupted operation "
              f"failed={corrupted}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
