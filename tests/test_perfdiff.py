"""The perf-regression sentinel (repro.harness.perfdiff).

The acceptance shape: a synthetic 2x dispatch-overhead regression in a
copied ``BENCH_executor.json`` is flagged (exit 1) while ±5% noise is
not; cross-machine and pre-environment records are refused with status
``"skipped"`` (exit 0) — including the repo's real trajectory file,
whose seed record predates the environment stamp.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.harness.bench import BENCH_SCHEMA, bench_environment
from repro.harness.perfdiff import (DEFAULT_TOLERANCES, PerfDiffResult,
                                    compare_records, extract_metrics,
                                    perfdiff, render_perfdiff)

REPO_BENCH = Path(__file__).resolve().parent.parent / "BENCH_executor.json"


def _record(**overrides) -> dict:
    """A canonical repro-bench/2 record with plausible numbers."""
    rec = {
        "schema": BENCH_SCHEMA,
        "quick": True,
        "timestamp": "2026-08-05T00:00:00Z",
        "environment": bench_environment(),
        "nw_wavefront": {
            "launches": 15,
            "cold_plan_s": [0.020, 0.021],
            "warm_planned_s": [0.010, 0.011],
            "floor_s": [0.008, 0.008],
            "dispatch_us_per_launch": 133.3,
            "overhead_ratio": 3.0,
            "wall_speedup": 1.9,
        },
        "srad_group": {"warm_planned_s": 0.05, "wall_speedup": 1.2},
        "executor_tiers": {"item_s": 0.10, "group_s": 0.006,
                           "compiled_s": 0.005, "compiled_vs_item": 20.0,
                           "compiled_vs_group": 1.2,
                           "apps": {
                               config: {"item_s": 0.08, "compiled_s": 0.004,
                                        "compiled_vs_item": 20.0,
                                        "vector_s": 0.002}
                               for config in ("NW", "KMeans", "Mandelbrot",
                                              "CFD FP32", "LavaMD")}},
        "figure_sweep": {"warm_s": 0.4, "cold_s": 10.0,
                         "speedup_warm_over_cold": 25.0},
    }
    for key, value in overrides.items():
        node = rec
        *parents, leaf = key.split(".")
        for p in parents:
            node = node[p]
        node[leaf] = value
    return rec


def _scale_walls(rec: dict, factor: float) -> dict:
    """A copy of ``rec`` with every watched wall metric scaled — the
    'same machine, everything got slower/faster' shape."""
    out = copy.deepcopy(rec)
    nw = out["nw_wavefront"]
    nw["cold_plan_s"] = [v * factor for v in nw["cold_plan_s"]]
    nw["warm_planned_s"] = [v * factor for v in nw["warm_planned_s"]]
    nw["dispatch_us_per_launch"] *= factor
    out["srad_group"]["warm_planned_s"] *= factor
    out["executor_tiers"]["compiled_s"] *= factor
    out["executor_tiers"]["apps"]["Mandelbrot"]["compiled_s"] *= factor
    for config in ("Mandelbrot", "KMeans", "NW"):
        out["executor_tiers"]["apps"][config]["vector_s"] *= factor
    out["figure_sweep"]["warm_s"] *= factor
    return out


# ---------------------------------------------------------------------------
# Core comparison semantics
# ---------------------------------------------------------------------------

def test_identical_records_pass():
    result = compare_records(_record(), _record())
    assert result.status == "ok"
    assert result.exit_code == 0
    assert not result.regressions


def test_five_percent_noise_passes():
    prev = _record()
    for factor in (0.95, 1.05):
        result = compare_records(prev, _scale_walls(prev, factor))
        assert result.status == "ok", render_perfdiff(result)


def test_2x_dispatch_overhead_regression_flagged():
    prev = _record()
    latest = copy.deepcopy(prev)
    # a 2x dispatch-overhead regression: warm planned launches got twice
    # as expensive and the overhead ratio collapsed accordingly
    latest["nw_wavefront"]["warm_planned_s"] = [
        v * 2.0 for v in prev["nw_wavefront"]["warm_planned_s"]]
    latest["nw_wavefront"]["overhead_ratio"] = 1.0
    # (warm - floor) / launches: 0.002 s -> 0.012 s over 15 launches
    latest["nw_wavefront"]["dispatch_us_per_launch"] = 800.0
    result = compare_records(prev, latest)
    assert result.status == "regression"
    assert result.exit_code == 1
    names = {d.name for d in result.regressions}
    assert "nw_wavefront.warm_planned_s" in names
    assert "nw_wavefront.dispatch_us_per_launch" in names
    assert "nw_wavefront.overhead_ratio" in names
    # unaffected metrics are not dragged in
    assert "figure_sweep.warm_s" not in names


def test_higher_is_better_direction():
    prev = _record()
    # warm figure rebuild got 3x slower relative to cold -> speedup drops
    slower = _record(**{"figure_sweep.speedup_warm_over_cold": 8.0})
    result = compare_records(prev, slower)
    assert result.status == "regression"
    assert [d.name for d in result.regressions] == [
        "figure_sweep.speedup_warm_over_cold"]
    # improvement in a lower-better metric is never a regression
    faster = _scale_walls(prev, 0.3)
    assert compare_records(prev, faster).status == "ok"


def test_mandelbrot_watch_is_compiled_time():
    """Mandelbrot is guarded on its compiled time (lower is better),
    not on the compiled-vs-item ratio: a faster per-item path that
    shrinks the ratio is no regression, a slower compiled tier is."""
    prev = _record()
    ratio_drop = _record(**{
        "executor_tiers.apps.Mandelbrot.compiled_vs_item": 2.0,
        "executor_tiers.apps.Mandelbrot.item_s": 0.008})
    assert compare_records(prev, ratio_drop).status == "ok"
    slower = _record(**{"executor_tiers.apps.Mandelbrot.compiled_s": 0.008})
    result = compare_records(prev, slower)
    assert result.status == "regression"
    assert [d.name for d in result.regressions] == [
        "executor_tiers.apps.Mandelbrot.compiled_s"]


@pytest.mark.parametrize("config", ["Mandelbrot", "KMeans", "NW"])
def test_vector_tier_time_watched(config):
    """The auto-mode ``vector_s`` of Mandelbrot, KMeans and NW is a
    lower-better watch with a 1.5x band; records without it (older
    benches) simply do not compare it."""
    key = f"executor_tiers.apps.{config}.vector_s"
    prev = _record()
    assert key in extract_metrics(prev)
    assert compare_records(prev, _record(**{key: 0.0028})).status == "ok"
    result = compare_records(prev, _record(**{key: 0.0032}))
    assert result.status == "regression"
    assert [d.name for d in result.regressions] == [key]
    older = copy.deepcopy(prev)
    del older["executor_tiers"]["apps"][config]["vector_s"]
    assert key not in extract_metrics(older)
    assert compare_records(older, _record(**{key: 0.01})).status == "ok"
    # the other apps' vector times are recorded but not watched
    assert "executor_tiers.apps.LavaMD.vector_s" not in extract_metrics(prev)


def test_list_timings_reduced_with_min():
    prev = _record()
    metrics = extract_metrics(prev)
    assert metrics["nw_wavefront.warm_planned_s"] == 0.010
    # one noisy outlier trial does not regress the best-of summary
    noisy = copy.deepcopy(prev)
    noisy["nw_wavefront"]["warm_planned_s"] = [0.0101, 0.5]
    assert compare_records(prev, noisy).status == "ok"


# ---------------------------------------------------------------------------
# Comparability guards
# ---------------------------------------------------------------------------

def test_cross_machine_records_refused():
    prev = _record()
    other = copy.deepcopy(prev)
    other["environment"]["cpu_count"] = prev["environment"]["cpu_count"] + 8
    result = compare_records(prev, _scale_walls(other, 5.0))
    assert result.status == "skipped"
    assert "cpu_count" in result.reason
    assert result.exit_code == 0


def test_pre_environment_record_refused():
    legacy = _record()
    del legacy["environment"]
    result = compare_records(legacy, _record())
    assert result.status == "skipped"
    assert "environment" in result.reason


def test_schema_and_shape_guards():
    assert compare_records(_record(**{"schema": "repro-bench/0"}),
                           _record()).status == "skipped"
    assert compare_records(_record(), _record(quick=False)).status == "skipped"


# ---------------------------------------------------------------------------
# File-level entry point (the CLI path)
# ---------------------------------------------------------------------------

def _write_bench(path: Path, records: list) -> Path:
    path.write_text(json.dumps({"trajectory": records}, indent=2) + "\n")
    return path


def test_perfdiff_file_injected_regression(tmp_path):
    prev = _record()
    bad = _write_bench(tmp_path / "bad.json", [prev, _scale_walls(prev, 2.0)])
    result = perfdiff(bad)
    assert result.status == "regression" and result.exit_code == 1
    good = _write_bench(tmp_path / "good.json",
                        [prev, _scale_walls(prev, 1.03)])
    assert perfdiff(good).status == "ok"


def test_perfdiff_compares_like_with_like(tmp_path):
    """A quick run between two full runs does not hide a regression:
    the latest full record is compared against the earlier full one."""
    full = _record(quick=False)
    quick = _record()
    path = _write_bench(tmp_path / "mixed.json",
                        [full, quick, _scale_walls(full, 2.0)])
    result = perfdiff(path)
    assert result.status == "regression", render_perfdiff(result)
    ok = _write_bench(tmp_path / "mixed_ok.json",
                      [full, quick, _scale_walls(full, 1.03)])
    assert perfdiff(ok).status == "ok"
    # nothing comparable before the latest record: skipped, with the
    # nearest record's reason
    lone = _write_bench(tmp_path / "lone.json", [full, quick])
    result = perfdiff(lone)
    assert result.status == "skipped" and "quick" in result.reason


def test_perfdiff_file_degenerate_inputs(tmp_path):
    assert perfdiff(tmp_path / "missing.json").status == "skipped"
    short = _write_bench(tmp_path / "one.json", [_record()])
    assert perfdiff(short).status == "skipped"
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{not json")
    assert perfdiff(corrupt).status == "skipped"


def test_perfdiff_real_trajectory_passes():
    """The acceptance criterion: perfdiff on the repo's real trajectory
    exits 0 (its seed record predates the environment stamp, so the
    comparison is skipped rather than failed)."""
    result = perfdiff(REPO_BENCH)
    assert result.exit_code == 0


def test_cli_perfdiff_exit_codes(tmp_path, capsys):
    from repro.harness.cli import main

    prev = _record()
    bad = _write_bench(tmp_path / "bad.json", [prev, _scale_walls(prev, 2.0)])
    assert main(["perfdiff", "--bench", str(bad)]) == 1
    assert "REGRESSED" in capsys.readouterr().out
    assert main(["perfdiff", "--bench", str(REPO_BENCH)]) == 0


def test_render_perfdiff_mentions_every_metric():
    prev = _record()
    result = compare_records(prev, _scale_walls(prev, 2.0))
    text = render_perfdiff(result)
    for watched in DEFAULT_TOLERANCES:
        assert ".".join(watched.path) in text
    assert "REGRESSED" in text


def test_bench_record_carries_environment_and_timestamp(tmp_path):
    """run_bench stamps the environment and honors a caller timestamp
    (tested through the record plumbing, not a full bench run)."""
    from repro.harness.bench import append_trajectory

    env = bench_environment()
    assert {"python", "platform", "machine", "cpu_count"} <= set(env)
    assert env == bench_environment()  # stable within a process
    rec = _record(timestamp="2026-01-01T00:00:00Z")
    path = tmp_path / "b.json"
    append_trajectory(rec, path)
    append_trajectory(rec, path)
    data = json.loads(path.read_text())
    assert len(data["trajectory"]) == 2
    assert data["trajectory"][-1]["timestamp"] == "2026-01-01T00:00:00Z"
    assert data["trajectory"][-1]["environment"] == env
