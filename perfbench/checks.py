"""Output gates of the benchmark.

Each gate returns a list of error strings; an operation with any error
counts as failed.  The gates compare against oracles the benchmark
computes itself, outside the timed window, so a change that weakens the
program's own verification cannot pass as a speed-up.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.altis.registry import make_app
from repro.harness.runner import _DEFAULT_SCALES, _TOLERANCES

SUITE = tuple(_DEFAULT_SCALES)


def array_digest(arr) -> dict:
    """The digest layout of ``tests/golden/size1_checksums.json``."""
    arr = np.ascontiguousarray(np.asarray(arr))
    return {"sha256": hashlib.sha256(arr.tobytes()).hexdigest(),
            "shape": list(arr.shape), "dtype": str(arr.dtype)}


def check_golden(results: list, golden: dict) -> list[str]:
    """A seed-0 sweep must reproduce the golden checksums byte for byte."""
    errors = []
    for result in results:
        want = golden.get(result.config)
        got = {key: array_digest(value)
               for key, value in sorted(
                   (getattr(result, "outputs", None) or {}).items())}
        if want is None or got != want:
            errors.append(f"{result.config}: seed-0 outputs differ from "
                          "the golden checksums")
    return errors


def reference_outputs(config: str, seed: int) -> dict:
    """The numpy oracle for one cell, from freshly generated inputs
    (``run_sycl`` mutates its workload, so the run's copy is unusable)."""
    app = make_app(config)
    workload = app.generate(1, seed=seed, scale=_DEFAULT_SCALES[config])
    return app.reference(workload)


def check_cell(result, expected: dict) -> list[str]:
    """One cell's outputs against its oracle, at the suite tolerances."""
    if not result.verified:
        return [f"{result.config}: the run reports itself unverified"]
    rtol, atol = _TOLERANCES.get(result.config, (1e-4, 1e-5))
    outputs = result.outputs or {}
    errors = []
    for key, want in expected.items():
        if key not in outputs:
            errors.append(f"{result.config}: output {key!r} missing")
            continue
        got = np.asarray(outputs[key])
        want = np.asarray(want)
        if got.shape != want.shape or not np.allclose(
                got, want, rtol=rtol, atol=atol, equal_nan=True):
            errors.append(f"{result.config}: output {key!r} diverges "
                          "from the numpy reference")
    return errors


def check_report(report: bytes, expected: str) -> list[str]:
    """A service report must equal the batch report byte for byte."""
    if report != expected.encode():
        return ["service report differs from the batch suite report"]
    return []


def profile_rows(profile: dict) -> list[tuple]:
    """The run-invariant part of a profile: ``(kernel, launches, items)``."""
    return sorted((row["kernel"], row["launches"], row["items"])
                  for row in profile["kernels"])


def check_profile(raw: bytes | None, solo: list[tuple]
                  ) -> tuple[list[str], bool, int]:
    """Gate one ``profile.json`` artifact against a solo profile.

    Returns ``(errors, leaked, foreign_launches)``.  A missing or
    unparseable artifact is an error.  A profile whose rows differ from
    the solo run is *leaked*, not failed: concurrent profiled jobs share
    the process tracer, and how often that shows depends on timing.
    ``foreign_launches`` counts launches beyond the solo run's, per
    kernel.
    """
    if raw is None:
        return ["profile artifact missing"], False, 0
    try:
        rows = profile_rows(json.loads(raw))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"profile artifact unparseable: {exc}"], False, 0
    solo_launches = {kernel: launches for kernel, launches, _ in solo}
    foreign = sum(max(0, launches - solo_launches.get(kernel, 0))
                  for kernel, launches, _ in rows)
    return [], rows != solo, foreign
