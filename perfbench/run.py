"""End-to-end benchmark of the Altis-SYCL reproduction (see README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite-auto --seed 1 --seconds 25 --trace 0

The orchestrator imports nothing from the program.  It starts fresh
workload processes (``workload.py``) one after another, times each
one's set-up from spawn to its ``READY`` line, and pools what they
measure (see ``PROCESSES``).  The last
line of standard output is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``; ``"correct": false``
and ``"failed"`` report operations whose outputs failed a check.  The
exit code is 0 whenever that line is printed (1 with ``--strict`` if a
check failed), 1 when a child process failed or ran past the run's
deadline, and 2 when the checkout lacks the program.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import queue
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("suite-auto", "suite-compiled", "service-jobs")
#: workload processes per run.  With ``--trace 0`` each sets up once and
#: measures ``--seconds / PROCESSES``: ``setup_s`` and ``peak_rss_mb`` are
#: medians over the processes.  With ``--trace 1`` as many set-up-only
#: processes time ``setup.*`` untraced, then one process runs traced.
PROCESSES = 3
#: every child process of one run must have ended by then (seconds after
#: start); a child still running is killed and the run fails
RUN_DEADLINE_S = 170


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0 when no operation
    succeeded."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(children: list) -> dict:
    """Pool the measured windows of the workload processes: latency
    percentiles over every operation, throughput over the summed
    windows, and the median process's set-up time and peak RSS."""
    windows = [c.result["window"] for c in children]
    latencies = [ms for w in windows for ms in w["latencies_ms"]]
    return {
        "setup_s": _metric(statistics.median(c.ready_s for c in children),
                           "s"),
        "latency_ms.p50": _metric(percentile(latencies, 50), "ms"),
        "latency_ms.p90": _metric(percentile(latencies, 90), "ms"),
        "cells_per_s": _metric(sum(w["cells"] for w in windows)
                               / sum(w["seconds"] for w in windows), "1/s"),
        "peak_rss_mb": _metric(
            statistics.median(w["peak_rss_mb"] for w in windows), "MB"),
    }


class _Child:
    """One workload process; the parent times spawn -> ``READY`` line.

    A thread drains the child's standard output into a queue, so every
    wait below ends by the run's deadline: a child that hangs is killed
    and the run fails.
    """

    def __init__(self, argv: list, env: dict, cwd: Path, deadline: float):
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "workload.py"), *argv], cwd=cwd,
            env=env, stdout=subprocess.PIPE, text=True)
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._drain, daemon=True)
        self.reader.start()
        self.ready_s = None
        self.ready = None
        self.result = None

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)  # end of output

    def _next_line(self) -> str | None:
        remaining = self.deadline - time.perf_counter()
        try:
            return self.lines.get(timeout=max(remaining, 0.0))
        except queue.Empty:
            raise TimeoutError("workload process ran past the run's "
                               f"{RUN_DEADLINE_S} s deadline") from None

    def wait_ready(self) -> None:
        while (line := self._next_line()) is not None:
            if line.startswith("READY "):
                self.ready_s = time.perf_counter() - self.started
                self.ready = json.loads(line[len("READY "):])
                return
        raise RuntimeError("workload process exited before set-up finished")

    def finish(self) -> dict | None:
        last = None
        while (line := self._next_line()) is not None:
            if line.strip():
                last = line
        self.proc.wait(timeout=max(self.deadline - time.perf_counter(), 1.0))
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"workload process exited with code {self.proc.returncode}")
        return json.loads(last) if last else None

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.reader.join()
        self.proc.stdout.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when any output check failed")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no program sources under {root / 'src'}; run from "
                     "the root of a checkout")
    if not (root / "tests" / "golden" / "size1_checksums.json").is_file():
        return _fail("golden checksums missing from the checkout")

    deadline = time.perf_counter() + RUN_DEADLINE_S
    (root / ".perfbench_run").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".perfbench_run"))
    env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(workdir),
               PYTHONUNBUFFERED="1")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workdir", str(workdir)]
    children, ready = [], []
    try:
        # byte-compile first, so no set-up sample pays for it
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(root / "src")], env=env, cwd=root, check=True,
                       stdout=subprocess.DEVNULL, timeout=RUN_DEADLINE_S)
        if args.trace:
            # untraced set-ups for ``setup.*``, then one traced process
            parts = [["--setup-only"]] * PROCESSES + [
                ["--seconds", str(args.seconds), "--trace", "1"]]
        else:
            share = args.seconds / PROCESSES
            parts = [["--part", str(part), "--seconds", str(share)]
                     for part in range(PROCESSES)]
        for extra in parts:
            child = _Child([*common, *extra], env, root, deadline)
            children.append(child)
            child.wait_ready()
            child.result = child.finish()
            ready.append(child)
    except (OSError, RuntimeError, ValueError,
            subprocess.SubprocessError) as exc:
        print(f"perfbench: run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        for child in children:
            child.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            workdir.parent.rmdir()

    # a set-up-only child's result is its ``READY`` line
    results = [c.result or c.ready for c in ready]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    errors = [e for r in results for e in r["errors"]]
    if args.trace:
        probes = [c.ready for c in ready[:-1]]
        metrics = dict(ready[-1].result["metrics"])
        metrics["setup.import_s"] = _metric(
            statistics.median(r["import_s"] for r in probes), "s")
        metrics["setup.first_op_s"] = _metric(
            statistics.median(r["first_op_s"] for r in probes), "s")
    else:
        metrics = _end_to_end(ready)
    for error in errors[:10]:
        print(f"perfbench: failed operation: {error}", file=sys.stderr)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if args.strict and not correct else 0


if __name__ == "__main__":
    sys.exit(main())
