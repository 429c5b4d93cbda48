"""Launch-plan compiler & warm-plan cache correctness.

The plan layer (:mod:`repro.sycl.plan`) must be invisible except for
speed: warm (cached) plans and cold plans (a capacity-0 cache compiles
one per launch) give byte-identical outputs across the whole registry,
identical :class:`ExecutionStats` and identical error behavior; faults
stay per-launch, memory stays bounded, and concurrent reuse is safe.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.altis import Variant
from repro.altis.registry import APP_FACTORIES, make_app
from repro.common.errors import InjectedFaultError, KernelLaunchError
from repro.sycl import KernelSpec, NdRange, Queue, Range
from repro.sycl.executor import run_grid_synchronized, run_nd_range
from repro.sycl.ndrange import FenceSpace
from repro.sycl.plan import (
    clear_plan_caches,
    plan_cache_info,
    set_plan_cache_limit,
)

#: decomposed paths interpret every work-group, so the registry sweep
#: uses the same reduced scales as the differential kernel-form tests
_SCALES = {
    "CFD FP32": 0.0005, "CFD FP64": 0.0005,
    "DWT2D": 0.03, "FDTD2D": 0.02, "KMeans": 0.005,
    "LavaMD": 0.25, "Mandelbrot": 0.008, "NW": 0.008,
    "PF Naive": 0.03, "PF Float": 0.03,
    "Raytracing": 0.02, "SRAD": 0.008, "Where": 0.0002,
}


@contextmanager
def _cold_plans():
    """Capacity-0 plan cache: every launch compiles a fresh plan and so
    runs the first-launch path."""
    previous = set_plan_cache_limit(0)
    try:
        yield
    finally:
        set_plan_cache_limit(previous)


def _run_config(config: str):
    app = make_app(config)
    workload = app.generate(1, seed=0, scale=_SCALES[config])
    queue = Queue("rtx2080")
    return app.run_sycl(queue, workload, Variant.SYCL_OPT)


@pytest.mark.parametrize("config", sorted(APP_FACTORIES))
def test_goldens_byte_identical_with_plans(config):
    """Every registry config: warm plans vs cold plans, byte-for-byte."""
    clear_plan_caches()
    _run_config(config)  # compile (and validate) every plan
    warm = _run_config(config)
    with _cold_plans():
        cold = _run_config(config)
    assert set(warm) == set(cold)
    for key in cold:
        a, b = np.asarray(warm[key]), np.asarray(cold[key])
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), (
            f"{config}: output {key!r} not byte-identical on warm plans")


# ---------------------------------------------------------------------------
# kernels for the targeted tests
# ---------------------------------------------------------------------------

def _add_item(item, out):
    out[item.get_global_linear_id()] += 1


def _add_group(group, out):
    wg = group.get_local_range(0)
    start = group.get_group_id(0) * wg
    out[start:start + wg] += 1


def _add_vector(nd_range, out):
    out[:nd_range.total_items()] += 1


def _barrier_group(group, out):
    wg = group.get_local_range(0)
    start = group.get_group_id(0) * wg
    out[start:start + wg] += 1
    yield group.barrier(FenceSpace.LOCAL)
    out[start:start + wg] *= 2


def _barrier_item(item, out):
    out[item.get_global_linear_id()] += 1
    yield item.barrier(FenceSpace.LOCAL)
    out[item.get_global_linear_id()] *= 2


def _grid_item(item, out, tot):
    out[item.get_global_linear_id()] = 1
    yield item.barrier()
    tot[item.get_global_linear_id()] = out.sum()


def _triple():
    return KernelSpec(name="triple", item_fn=_add_item, group_fn=_add_group,
                      vector_fn=_add_vector)


def _stats_tuple(stats):
    return (stats.path, stats.items, stats.groups, stats.barrier_phases,
            stats.gen_advances)


class TestStatsParity:
    @pytest.mark.parametrize("mode", ["vector", "group", "item"])
    def test_plain_paths(self, mode):
        clear_plan_caches()
        nd = NdRange(Range(16), Range(4))
        out_p = np.zeros(16)
        out_l = np.zeros(16)
        # two cached runs: the warm (cache-hit) launch must report the
        # same stats as the compile launch and a cold plan
        run_nd_range(_triple(), nd, (out_p,), mode=mode)
        warm = run_nd_range(_triple(), nd, (out_p,), mode=mode)
        with _cold_plans():
            cold = run_nd_range(_triple(), nd, (out_l,), mode=mode)
        assert _stats_tuple(warm) == _stats_tuple(cold)
        assert plan_cache_info()["hits"] >= 1

    @pytest.mark.parametrize("kernel", [
        KernelSpec(name="bg", group_fn=_barrier_group),
        KernelSpec(name="bi", item_fn=_barrier_item),
    ], ids=["group-generator", "item-generator"])
    def test_barrier_paths(self, kernel):
        clear_plan_caches()
        nd = NdRange(Range(12), Range(4))
        run_nd_range(kernel, nd, (np.zeros(12),), force_item=True)
        out_p = np.zeros(12)
        out_l = np.zeros(12)
        warm = run_nd_range(kernel, nd, (out_p,), force_item=True)
        with _cold_plans():
            cold = run_nd_range(kernel, nd, (out_l,), force_item=True)
        assert _stats_tuple(warm) == _stats_tuple(cold)
        assert out_p.tobytes() == out_l.tobytes()
        np.testing.assert_array_equal(out_p, 2)

    def test_grid_synchronized(self):
        clear_plan_caches()
        k = KernelSpec(name="grid", item_fn=_grid_item)
        nd = NdRange(Range(8), Range(4))
        tot_p = np.zeros(8)
        tot_l = np.zeros(8)
        run_grid_synchronized(k, nd, (np.zeros(8), np.zeros(8)))
        warm = run_grid_synchronized(k, nd, (np.zeros(8), tot_p))
        with _cold_plans():
            cold = run_grid_synchronized(k, nd, (np.zeros(8), tot_l))
        assert _stats_tuple(warm) == _stats_tuple(cold)
        # the grid barrier interlocks all items: every cell sees the full
        # phase-one sum
        assert tot_p.tobytes() == tot_l.tobytes()
        np.testing.assert_array_equal(tot_p, 8)
        assert plan_cache_info()["hits"] >= 1


class TestCacheBehavior:
    def test_counters_and_clear(self):
        clear_plan_caches()
        info = plan_cache_info()
        assert (info["hits"], info["compiles"], info["size"]) == (0, 0, 0)
        nd = NdRange(Range(8), Range(4))
        out = np.zeros(8)
        for _ in range(3):
            run_nd_range(_triple(), nd, (out,))
        info = plan_cache_info()
        assert info["compiles"] == 1
        assert info["hits"] == 2
        assert info["size"] == 1
        clear_plan_caches()
        assert plan_cache_info()["size"] == 0

    def test_app_cells_share_one_plan_across_seeds(self):
        """Raytracing's vector form is a module-level function, not a
        per-call closure over the app, so two cells with different
        seeds (same launch shape) reuse one plan."""
        from repro.harness.runner import run_functional

        clear_plan_caches()
        assert run_functional("Raytracing", seed=0).verified
        first = plan_cache_info()
        assert run_functional("Raytracing", seed=1).verified
        second = plan_cache_info()
        assert second["compiles"] == first["compiles"] == 1
        assert second["size"] == 1 and second["hits"] == first["hits"] + 1

    def test_lru_bounded_under_distinct_ranges(self):
        clear_plan_caches()
        previous = set_plan_cache_limit(4)
        try:
            k = KernelSpec(name="many", vector_fn=_add_vector)
            for n in range(1, 13):
                run_nd_range(k, NdRange(Range(4 * n), Range(4)),
                             (np.zeros(4 * n),))
            info = plan_cache_info()
            assert info["size"] <= 4
            assert info["evictions"] >= 8
        finally:
            set_plan_cache_limit(previous)
            clear_plan_caches()

    def test_capacity_zero_compiles_every_launch(self):
        clear_plan_caches()
        nd = NdRange(Range(8), Range(4))
        with _cold_plans():
            out = np.zeros(8)
            run_nd_range(_triple(), nd, (out,))
            run_nd_range(_triple(), nd, (out,))
            info = plan_cache_info()
        assert info["size"] == 0 and info["hits"] == 0
        assert info["compiles"] == 2
        np.testing.assert_array_equal(out, 2)

    def test_mode_errors_identical_cold_and_warm(self):
        clear_plan_caches()
        k = KernelSpec(name="vonly", vector_fn=_add_vector)
        nd = NdRange(Range(8), Range(4))
        messages = []
        for _ in range(2):
            with pytest.raises(KernelLaunchError, match="has no group_fn") \
                    as excinfo:
                run_nd_range(k, nd, (np.zeros(8),), mode="group")
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]

    def test_divergence_detected_on_warm_plans(self):
        def diverge(item, out):
            if item.get_local_id(0) < 2:
                yield item.barrier()
            out[item.get_global_linear_id()] = 1

        clear_plan_caches()
        k = KernelSpec(name="div", item_fn=diverge)
        nd = NdRange(Range(8), Range(4))
        for _ in range(3):  # cold, then warm — same divergence error
            with pytest.raises(KernelLaunchError,
                               match="divergent barrier - only 2 of 4"):
                run_nd_range(k, nd, (np.zeros(8),), force_item=True)

    @pytest.mark.parametrize("form", ["item", "group"])
    def test_barrier_token_checked_on_warm_plans(self, form):
        """A generator that yields something other than a barrier token
        is rejected on every launch, not only on the plan's first."""
        def item_fn(item, out, bad):
            out[item.get_global_linear_id()] += 1
            yield "not a barrier" if bad else item.barrier()

        def group_fn(group, out, bad):
            yield "not a barrier" if bad else group.barrier()

        clear_plan_caches()
        k = KernelSpec(name="token",
                       **{f"{form}_fn": item_fn if form == "item"
                          else group_fn})
        nd = NdRange(Range(8), Range(4))
        stats = run_nd_range(k, nd, (np.zeros(8), False), force_item=True)
        assert (stats.path, stats.barrier_phases) == (form, 2)
        for _ in range(2):  # warm plan, bad token: same error as cold
            with pytest.raises(KernelLaunchError,
                               match="must `yield item.barrier"):
                run_nd_range(k, nd, (np.zeros(8), True), force_item=True)
        assert plan_cache_info()["hits"] == 2


class TestFaultsStayPerLaunch:
    def test_warm_plan_does_not_bypass_fault_injection(self):
        from repro.resilience import FaultPlan, fault_injection

        clear_plan_caches()
        nd = NdRange(Range(8), Range(4))
        out = np.zeros(8)
        run_nd_range(_triple(), nd, (out,))
        run_nd_range(_triple(), nd, (out,))
        assert plan_cache_info()["hits"] >= 1  # plan is warm

        plan = FaultPlan.parse("launch:exception:1.0", seed=3)
        with fault_injection(plan):
            # every launch is polled, warm plan or not
            for _ in range(2):
                with pytest.raises(InjectedFaultError):
                    run_nd_range(_triple(), nd, (out,))
        # plan survives the faults; next launch is a clean warm hit
        hits = plan_cache_info()["hits"]
        run_nd_range(_triple(), nd, (out,))
        assert plan_cache_info()["hits"] == hits + 1


# ---------------------------------------------------------------------------
# concurrent reuse through pool_map (thread and process workers)
# ---------------------------------------------------------------------------

def _pool_launch(seed: int) -> bytes:
    """One steady-state launch pair; module-level so process pools can
    pickle it."""
    out = np.zeros(16)
    nd = NdRange(Range(16), Range(4))
    k = KernelSpec(name="pool", item_fn=_add_item, group_fn=_add_group,
                   vector_fn=_add_vector)
    run_nd_range(k, nd, (out,), force_item=True)
    run_nd_range(k, nd, (out,), force_item=True)
    return out.tobytes()


class TestConcurrentReuse:
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_pool_map_shares_plans_safely(self, mode):
        from repro.harness import pool_map

        clear_plan_caches()
        expected = np.full(16, 2.0).tobytes()
        results = pool_map(_pool_launch, range(8), workers=4, mode=mode)
        assert results == [expected] * 8
        if mode == "thread":
            # 8 cells x 2 launches share one compiled plan
            info = plan_cache_info()
            assert info["compiles"] >= 1
            assert info["hits"] >= 8
