"""Executor fast paths: path selection, memoized index lattices, the
group-vectorized kernel form, and the shared barrier-phase engine at
multi-group scale."""

import numpy as np
import pytest

from repro.common.errors import KernelLaunchError
from repro.sycl import KernelSpec, NdRange, Range
from repro.sycl.executor import (
    clear_execution_caches,
    execution_cache_info,
    run_grid_synchronized,
    run_nd_range,
)
from repro.sycl.ndrange import FenceSpace


def _add_item(item, out):
    out[item.get_global_linear_id()] += 1


def _add_group(group, out):
    wg = group.get_local_range(0)
    start = group.get_group_id(0) * wg
    out[start:start + wg] += 1


def _add_vector(nd_range, out):
    out[:nd_range.total_items()] += 1


def _triple_kernel():
    return KernelSpec(name="triple", item_fn=_add_item, group_fn=_add_group,
                      vector_fn=_add_vector)


class TestPathSelection:
    def test_vector_preferred_by_default(self):
        out = np.zeros(8)
        stats = run_nd_range(_triple_kernel(), NdRange(Range(8), Range(4)),
                             (out,))
        assert stats.path == "vector"
        np.testing.assert_array_equal(out, 1)

    def test_force_item_prefers_group_fn(self):
        out = np.zeros(8)
        stats = run_nd_range(_triple_kernel(), NdRange(Range(8), Range(4)),
                             (out,), force_item=True)
        assert stats.path == "group"
        assert stats.groups == 2 and stats.items == 8
        np.testing.assert_array_equal(out, 1)

    def test_force_item_without_group_fn_runs_items(self):
        k = KernelSpec(name="pair", item_fn=_add_item, vector_fn=_add_vector)
        out = np.zeros(8)
        stats = run_nd_range(k, NdRange(Range(8), Range(4)), (out,),
                             force_item=True)
        assert stats.path == "item"
        np.testing.assert_array_equal(out, 1)

    @pytest.mark.parametrize("mode", ["vector", "group", "item"])
    def test_explicit_mode_pins_path(self, mode):
        out = np.zeros(8)
        stats = run_nd_range(_triple_kernel(), NdRange(Range(8), Range(4)),
                             (out,), mode=mode)
        assert stats.path == mode
        np.testing.assert_array_equal(out, 1)

    def test_mode_missing_impl_raises(self):
        k = KernelSpec(name="vonly", vector_fn=_add_vector)
        with pytest.raises(KernelLaunchError, match="has no group_fn"):
            run_nd_range(k, NdRange(Range(8), Range(4)), (np.zeros(8),),
                         mode="group")

    def test_unknown_mode_raises(self):
        with pytest.raises(KernelLaunchError, match="unknown execution mode"):
            run_nd_range(_triple_kernel(), NdRange(Range(8), Range(4)),
                         (np.zeros(8),), mode="warp")

    def test_force_item_without_any_decomposed_impl_raises(self):
        k = KernelSpec(name="vonly", vector_fn=_add_vector)
        with pytest.raises(KernelLaunchError, match="has no item_fn"):
            run_nd_range(k, NdRange(Range(8), Range(4)), (np.zeros(8),),
                         force_item=True)


class TestMemoizedLattices:
    def test_repeat_launches_hit_the_cache(self):
        # Cold launches (a capacity-0 plan cache compiles a plan per
        # launch) re-look the lattice up per launch and must hit the lru
        # cache; warm launches go one better — the cached plan holds the
        # lattice reference, so repeats hit the plan cache and touch no
        # lru at all.
        from repro.sycl.plan import (clear_plan_caches, plan_cache_info,
                                     set_plan_cache_limit)

        clear_execution_caches()
        clear_plan_caches()
        k = KernelSpec(name="items", item_fn=_add_item)
        out = np.zeros(16)
        nd = NdRange(Range(16), Range(4))
        previous = set_plan_cache_limit(0)
        try:
            run_nd_range(k, nd, (out,))
            before = execution_cache_info()["nd_lattice"].hits
            run_nd_range(k, nd, (out,))
            run_nd_range(k, NdRange(Range(16), Range(4)), (out,))
            after = execution_cache_info()["nd_lattice"].hits
        finally:
            set_plan_cache_limit(previous)
        assert after >= before + 2
        lattice_hits = execution_cache_info()["nd_lattice"].hits
        run_nd_range(k, nd, (out,))
        # plan compilation consults the lattice lru a bounded number of
        # times (the plan itself, the compiled tier's lane-array build,
        # and the one-shot shadow-validation interpreter run)
        after_compile = execution_cache_info()["nd_lattice"].hits
        assert lattice_hits + 1 <= after_compile <= lattice_hits + 3
        run_nd_range(k, NdRange(Range(16), Range(4)), (out,))
        run_nd_range(k, nd, (out,))
        assert plan_cache_info()["hits"] >= 2
        # warm planned launches hold the lattice reference: zero lru traffic
        assert execution_cache_info()["nd_lattice"].hits == after_compile
        np.testing.assert_array_equal(out, 6)

    def test_memoized_grid_2d_correctness(self):
        seen = []

        def probe(item, _):
            seen.append((item.get_global_id(0), item.get_global_id(1),
                         item.get_local_id(0), item.get_local_id(1)))

        k = KernelSpec(name="probe", item_fn=probe)
        for _ in range(2):  # second launch served from the cache
            seen.clear()
            run_nd_range(k, NdRange(Range(4, 4), Range(2, 2)), (None,))
            assert len(seen) == 16
            assert len(set(seen)) == 16
            assert all(g0 % 2 == l0 and g1 % 2 == l1
                       for g0, g1, l0, l1 in seen)


def _barrier_group(group, out):
    wg = group.get_local_range(0)
    start = group.get_group_id(0) * wg
    out[start:start + wg] += 1
    yield group.barrier(FenceSpace.LOCAL)
    out[start:start + wg] *= 2


def _divergent_item(item, out):
    # only the first half of each work-group reaches the barrier
    if item.get_local_id(0) < 4:
        yield item.barrier()
    out[item.get_global_linear_id()] = 1


class TestBarrierPhaseEngine:
    def test_group_generator_counts_phases(self):
        out = np.zeros(12)
        k = KernelSpec(name="gb", group_fn=_barrier_group)
        stats = run_nd_range(k, NdRange(Range(12), Range(4)), (out,),
                             force_item=True)
        assert stats.path == "group"
        assert stats.barrier_phases == 3  # one per group
        assert stats.gen_advances == 6    # two resumptions per group
        np.testing.assert_array_equal(out, 2)

    def test_divergent_barrier_multi_group(self):
        k = KernelSpec(name="div", item_fn=_divergent_item)
        with pytest.raises(KernelLaunchError,
                           match="divergent barrier - only 4 of 8"):
            run_nd_range(k, NdRange(Range(16), Range(8)),
                         (np.zeros(16),), force_item=True)

    def test_divergent_grid_barrier_multi_group(self):
        def diverge(item, out):
            if item.get_global_linear_id() < 12:
                yield item.barrier()
            out[item.get_global_linear_id()] = 1

        k = KernelSpec(name="gdiv", item_fn=diverge)
        with pytest.raises(KernelLaunchError,
                           match="divergent grid barrier - only 12 of 16"):
            run_grid_synchronized(k, NdRange(Range(16), Range(4)),
                                  (np.zeros(16),))

    def test_non_barrier_yield_rejected_on_group_path(self):
        def bad(group, out):
            yield "oops"

        k = KernelSpec(name="bad", group_fn=bad)
        with pytest.raises(KernelLaunchError, match="yield item.barrier"):
            run_nd_range(k, NdRange(Range(4), Range(4)), (np.zeros(4),),
                         force_item=True)

    def test_grid_sync_prefers_generator_group_fn(self):
        phase = []

        def gsync(group, out):
            phase.append(("a", group.get_group_id(0)))
            yield group.barrier()
            phase.append(("b", group.get_group_id(0)))

        k = KernelSpec(name="gs", group_fn=gsync)
        stats = run_grid_synchronized(k, NdRange(Range(8), Range(4)),
                                      (np.zeros(8),))
        assert stats.path == "group"
        assert stats.barrier_phases == 1
        # all groups reach phase a before any enters phase b
        assert [p[0] for p in phase] == ["a", "a", "b", "b"]


class TestQueueCounters:
    def test_counters_accumulate_and_reset(self):
        from repro.sycl import Queue

        q = Queue("rtx2080")
        out = np.zeros(8)
        q.parallel_for(NdRange(Range(8), Range(4)), _triple_kernel(), out)
        q.parallel_for(NdRange(Range(8), Range(4)), _triple_kernel(), out,
                       force_item=True)
        q.parallel_for(NdRange(Range(8), Range(4)), _triple_kernel(), out,
                       mode="item")
        c = q.counters
        assert c.kernel_launches == 3
        assert c.items == 24 and c.groups == 6
        assert c.path_counts == {"vector": 1, "group": 1, "item": 1}
        q.reset_timeline()
        assert q.counters.kernel_launches == 0
        assert q.counters.path_counts == {}

    def test_memcpy_counters(self):
        from repro.sycl import Queue

        q = Queue("rtx2080")
        dst = np.zeros(8, dtype=np.float32)
        src = np.ones(8, dtype=np.float32)
        q.memcpy(dst, src)
        assert q.counters.memcpy_ops == 1
        assert q.counters.h2d_bytes == 32


class TestLocalAccessorOnGroupPath:
    def test_reset_between_groups(self):
        from repro.sycl.buffer import LocalAccessor

        def accumulate(group, acc, out):
            acc[0] += 1.0  # fresh zeros each group, so always becomes 1
            out[group.get_group_id(0)] = acc[0]

        k = KernelSpec(name="lacc", group_fn=accumulate)
        acc = LocalAccessor(1, np.float64)
        out = np.zeros(3)
        run_nd_range(k, NdRange(Range(12), Range(4)), (acc, out),
                     force_item=True)
        np.testing.assert_array_equal(out, 1.0)
