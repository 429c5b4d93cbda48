"""Unit tests for the compiled (batched-numpy) execution tier.

The tier's contract has three parts, each exercised here:

* **translation** — which kernels lift into a batched program and,
  for the ones that do not, a precise reason;
* **execution** — batched results are byte-identical to the per-item
  interpreter, barrier generators split into array phases, and the
  plan's first compiled launch shadow-validates before promoting;
* **fallback** — every ineligible or diverging kernel lands back on its
  reference interpreter form with the ``vectorize.fallback`` metric
  incremented and the output buffers exactly as the interpreter left
  them.

All kernels live in this file (module scope) so ``inspect.getsource``
sees real source — the translator's one hard environmental requirement.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.sycl import (
    KernelKind,
    KernelSpec,
    NdRange,
    Queue,
    Range,
    compile_batched,
    eligible_form,
    vectorize_disabled,
)
from repro.sycl.executor import run_nd_range
from repro.sycl.plan import clear_plan_caches, get_plan, plan_cache_info
from repro.trace.metrics import registry


@pytest.fixture(autouse=True)
def _fresh_plans():
    clear_plan_caches()
    yield
    clear_plan_caches()


def _fallback_count() -> float:
    return registry.counter("vectorize.fallback").value


# ---------------------------------------------------------------------------
# Dialect kernels (module scope: the translator reads their source)
# ---------------------------------------------------------------------------

def _scale_item(item, out, src, n, factor):
    i = item.get_global_linear_id()
    if i >= n:
        return
    out[i] = src[i] * factor + 1.0


def _select_item(item, out, src, n, threshold):
    i = item.get_global_linear_id()
    if i >= n:
        return
    v = src[i]
    out[i] = v if v < threshold else threshold


def _branch_item(item, out, src, n):
    i = item.get_global_linear_id()
    if i >= n:
        return
    if src[i] > 0.5:
        out[i] = src[i] * 2.0
    else:
        out[i] = -src[i]


def _stencil_item(item, out, src, n):
    i = item.get_global_linear_id()
    if i >= n:
        return
    left = src[np.maximum(i - 1, 0)]
    right = src[np.minimum(i + 1, n - 1)]
    out[i] = left + right - 2.0 * src[i]


def _loop_item(item, out, src, n):
    i = item.get_global_linear_id()
    if i >= n:
        return
    acc = 0.0
    for k in range(3):
        acc = acc + src[i] * k
    out[i] = acc


def _min_builtin_item(item, out, src, n):
    i = item.get_global_linear_id()
    if i >= n:
        return
    out[i] = min(src[i], 1.0)


def _math_item(item, out, src, n):
    # math.* lowers to numpy through a float() promotion, so the
    # interpreter's Python-double arithmetic and the batched float64
    # lanes are IEEE-identical
    i = item.get_global_linear_id()
    if i >= n:
        return
    out[i] = math.sqrt(float(src[i]) + 1.0) * math.fabs(float(src[i]) - 0.5)


def _while_item(item, out, src, n):
    i = item.get_global_linear_id()
    if i >= n:
        return
    acc = 0.0
    k = 0
    while k < 3:
        acc = acc + src[i] * k
        k = k + 1
    out[i] = acc


def _continue_item(item, out, src, n):
    i = item.get_global_linear_id()
    if i >= n:
        return
    acc = 0.0
    for k in range(3):
        if k == 2:
            continue
        acc = acc + src[i]
    out[i] = acc


def _break_item(item, out, src, n):
    # lane-divergent exit: each lane stops at its own k, and both names
    # of the tuple rebind freeze there
    i = item.get_global_linear_id()
    if i >= n:
        return
    acc = 0.0
    prev = 0.0
    for k in range(8):
        acc, prev = acc + src[i], acc
        if acc > 2.0:
            break
        acc = acc * 1.5
    out[i] = acc - prev


def _break_arm_item(item, out, src, n):
    # a break arm that stores and rebinds (the CDF-search shape), and
    # two exits in one body
    i = item.get_global_linear_id()
    if i >= n:
        return
    target = src[i]
    chosen = n - 1
    for j in range(n):
        if src[j] * 0.5 >= target:
            chosen = j
            out[i] = src[j]
            break
        if src[j] > 0.97:
            chosen = -j
            break
    if chosen < 0:
        out[i] = chosen * 1.0
    if chosen == n - 1:
        out[i] = -0.5


def _nested_exit_item(item, out, src, n):
    # a break loop inside a break loop inside a plain loop: each break
    # exits only its own loop
    i = item.get_global_linear_id()
    if i >= n:
        return
    total = 0.0
    for r in range(3):
        steps = 0
        for a in range(6):
            inner = 0.0
            for b in range(5):
                inner = inner + src[(i + a + b) % n]
                if inner > 1.5:
                    break
            total = total + inner * (r + 1)
            if total > 4.0 + r:
                steps = steps + a
                break
            steps = steps + 1
        total = np.where(steps > 3, total * 0.5, total)
    out[i] = total


def _carried_exit_item(item, out, src, n):
    # a name carried across the enclosing loop but read only inside the
    # break loop: exited lanes must keep it for the next outer pass
    i = item.get_global_linear_id()
    if i >= n:
        return
    x = 0.0
    for r in range(2):
        for a in range(4):
            x = x + src[i]
            out[i] = x
            if x > 1.0:
                break


def _carried_unbound_item(item, out, src, n):
    # `t` flows from one pass of the break loop into the next one's
    # first iteration, but has no value before it: nothing to keep
    i = item.get_global_linear_id()
    if i >= n:
        return
    for r in range(2):
        for a in range(4):
            if r > 0 and a == 0:
                out[i] = t
            t = src[i] * a
            if t > 1.0:
                break


def _early_exit_item(item, out, stops, n):
    i = item.get_global_linear_id()
    if i >= n:
        return
    k = 0
    for j in range(1_000_000):
        if j >= stops[i]:
            break
        k += 1
    out[i] = k


def _nested_break_item(item, out, src, n):
    i = item.get_global_linear_id()
    if i >= n:
        return
    acc = 0.0
    for k in range(3):
        if src[i] > 0.5:
            if k == 2:
                break
        acc = acc + src[i]
    out[i] = acc


def _exit_var_item(item, out, src, n):
    i = item.get_global_linear_id()
    if i >= n:
        return
    for k in range(8):
        if src[i] * k > 1.0:
            break
    out[i] = k


def _unbound_rebind_item(item, out, src, n):
    i = item.get_global_linear_id()
    if i >= n:
        return
    for k in range(8):
        last = src[i] * k
        if last > 1.0:
            break
    out[i] = last


def _break_barrier_item(item, out, src, n):
    i = item.get_global_linear_id()
    acc = 0.0
    for k in range(4):
        acc = acc + src[i]
        if acc > 1.0:
            break
        yield item.barrier()
    out[i] = acc


def _lane_trip_item(item, out, src, n):
    i = item.get_global_linear_id()
    if i >= n:
        return
    acc = 0.0
    for k in range(i):
        acc = acc + 1.0
    out[i] = acc


def _len_builtin_item(item, out, src, n):
    i = item.get_global_linear_id()
    if i >= n:
        return
    out[i] = src[i] * len(src)


def _tile_item(item, out, src, tile, n, block):
    # LocalAccessor tile threaded through a barrier-per-iteration loop:
    # the compiled tier shadows it as a per-group (groups, block) array
    t = item.get_local_id(0)
    i = item.get_global_linear_id()
    tile[t] = src[i] * 2.0
    yield item.barrier()
    acc = 0.0
    for k in range(block):
        acc = acc + tile[k]
        yield item.barrier()
    out[i] = acc + tile[t]


def _barrier_item(item, data, scratch, n):
    # phase 2 reads only within the lane's own work-group: a barrier
    # synchronizes one group, so cross-group reads would be racy in both
    # the interpreter and the batched program
    i = item.get_global_linear_id()
    if i < n:
        scratch[i] = data[i] * 2.0
    yield item.barrier()
    base = i - item.get_local_id(0)
    if i < n:
        data[i] = scratch[base] + scratch[i]


def _accumulate_item(item, out, n):
    i = item.get_global_linear_id()
    if i >= n:
        return
    out[0] += 1.0


def _group_sum(group, out, src, n):
    g = group.get_group_linear_id()
    out[g] = src[g] * 3.0


def _spec(fn, name="k", **kw):
    return KernelSpec(name=name, kind=KernelKind.ND_RANGE, item_fn=fn, **kw)


def _nd(n=64, wg=16):
    return NdRange(Range(n), Range(wg))


# ---------------------------------------------------------------------------
# Eligibility
# ---------------------------------------------------------------------------

def test_eligible_forms():
    for fn in (_scale_item, _select_item, _branch_item, _stencil_item,
               _loop_item, _min_builtin_item, _math_item, _break_item,
               _break_arm_item, _nested_exit_item, _carried_exit_item,
               _early_exit_item):
        assert eligible_form(_spec(fn)) == ("item", None)
    form, reason = eligible_form(
        KernelSpec(name="g", kind=KernelKind.ND_RANGE, group_fn=_group_sum))
    assert (form, reason) == ("group", None)


def test_ineligible_reasons_are_precise():
    form, reason = eligible_form(_spec(_while_item))
    assert form is None and "while loop" in reason
    form, reason = eligible_form(_spec(_continue_item))
    assert form is None and "continue" in reason
    form, reason = eligible_form(_spec(_lane_trip_item))
    assert form is None and "launch-invariant" in reason and "'i'" in reason
    form, reason = eligible_form(_spec(_len_builtin_item))
    assert form is None and "len()" in reason


@pytest.mark.parametrize("fn, fragment", [
    (_nested_break_item, "break below the loop-body top level"),
    (_exit_var_item, "loop variable 'k' is read after a loop with break"),
    (_unbound_rebind_item, "'last' is rebound in a loop with break but "
                           "not bound before it"),
    (_carried_unbound_item, "'t' is rebound in a loop with break but "
                            "not bound before it"),
    (_break_barrier_item, "barrier inside a loop with break"),
])
def test_break_outside_the_exit_form_is_ineligible(fn, fragment):
    form, reason = eligible_form(_spec(fn))
    assert form is None and fragment in reason, reason


def test_no_vectorize_feature_opts_out():
    spec = _spec(_scale_item, features={"no_vectorize": True})
    form, reason = eligible_form(spec)
    assert form is None and "no_vectorize" in reason


def test_reference_form_only():
    """A kernel with both forms is judged on item_fn alone: the
    compiled program must validate against the exact path a
    vectorize-disabled run would take."""
    spec = KernelSpec(name="both", kind=KernelKind.ND_RANGE,
                      item_fn=_while_item, group_fn=_group_sum)
    form, reason = eligible_form(spec)
    assert form is None and reason.startswith("item_fn:")


# ---------------------------------------------------------------------------
# Compiled execution: byte-identity, plan tier, stats
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fn", [_scale_item, _select_item, _branch_item,
                                _stencil_item, _loop_item, _min_builtin_item,
                                _math_item, _break_item, _break_arm_item,
                                _nested_exit_item, _carried_exit_item])
def test_compiled_matches_interpreter_bitwise(fn):
    n = 50  # not a multiple of the work-group: exercises the guard
    rng = np.random.default_rng(3)
    src = rng.random(n).astype(np.float32)
    args = {
        _scale_item: lambda o: (o, src, n, np.float32(1.5)),
        _select_item: lambda o: (o, src, n, np.float32(0.5)),
        _branch_item: lambda o: (o, src, n),
        _stencil_item: lambda o: (o, src, n),
        _loop_item: lambda o: (o, src, n),
        _min_builtin_item: lambda o: (o, src, n),
        _math_item: lambda o: (o, src, n),
        _break_item: lambda o: (o, src, n),
        _break_arm_item: lambda o: (o, src, n),
        _nested_exit_item: lambda o: (o, src, n),
        _carried_exit_item: lambda o: (o, src, n),
    }[fn]
    ref = np.zeros(n, dtype=np.float32)
    run_nd_range(_spec(fn), _nd(64), args(ref), mode="item")
    out = np.zeros(n, dtype=np.float32)
    spec = _spec(fn)
    run_nd_range(spec, _nd(64), args(out), mode="compiled")  # validation run
    stats = run_nd_range(spec, _nd(64), args(out), mode="compiled")  # hot
    assert out.tobytes() == ref.tobytes()
    assert stats.path == "compiled"
    plan = get_plan(spec, _nd(64), mode="compiled")
    assert plan.path == "compiled"
    assert plan.compiled is not None and plan.compiled.validated


class _ReadCounter(np.ndarray):
    """An ndarray that counts its subscript reads."""

    reads = 0

    def __getitem__(self, key):
        type(self).reads += 1
        return np.asarray(self)[key]


def test_break_loop_stops_once_every_lane_exited():
    """The batched loop of a break kernel runs only until the last lane
    exits, not the full (here 10^6) trip count: ``stops[i]`` is read
    once per batched iteration, so the read count is the iteration
    count."""
    n = 50
    stops = np.random.default_rng(5).integers(0, 6, n)
    spec = _spec(_early_exit_item)
    ref = np.zeros(n, dtype=np.int64)
    run_nd_range(spec, _nd(64), (ref, stops, n), mode="item")
    assert np.array_equal(ref, stops)

    compiled, reason = compile_batched(spec, _nd(64))
    assert reason is None
    out = np.zeros(n, dtype=np.int64)
    _ReadCounter.reads = 0
    compiled.execute((out, stops.view(_ReadCounter), n))
    assert out.tobytes() == ref.tobytes()
    assert _ReadCounter.reads == stops.max() + 1


def test_mandelbrot_break_form_matches_reference_on_every_tier():
    """Mandelbrot's escape loop in its break form: per-item interpreter,
    compiled tier and the numpy reference agree bit for bit, at a width
    that leaves over-provisioned lanes in the last work-group."""
    from repro.altis.base import Workload
    from repro.altis.mandelbrot import Mandelbrot, mandelbrot_reference

    width, height = 37, 11
    assert width % 16
    app = Mandelbrot()

    def run(mode):
        wl = Workload(app="Mandelbrot", size=1,
                      arrays={"out": np.zeros((height, width), np.int32)},
                      params={"width": width, "height": height,
                              "max_iters": 256})
        q = Queue("rtx2080", default_mode=mode)
        return app.run_sycl(q, wl)["out"], q

    ref = mandelbrot_reference(width, height)
    item, _ = run("item")
    run("compiled")  # compile + shadow-validate
    compiled, q = run("compiled")
    assert item.tobytes() == ref.tobytes()
    assert compiled.tobytes() == ref.tobytes()
    assert q.counters.path_counts == {"compiled": 1}


def test_plan_cache_reports_tiers():
    run_nd_range(_spec(_scale_item, name="a"), _nd(),
                 (np.zeros(64, np.float32), np.ones(64, np.float32), 64,
                  np.float32(2.0)), mode="compiled")
    run_nd_range(_spec(_while_item, name="b"), _nd(),
                 (np.zeros(64, np.float32), np.ones(64, np.float32), 64),
                 mode="compiled")
    tiers = plan_cache_info()["tiers"]
    assert tiers["compiled"]["count"] >= 1
    assert tiers["compiled"]["fallbacks"] == {}
    # the while-loop kernel's fallback plan carries its demotion reason
    assert tiers["item"]["count"] >= 1
    assert "while loop" in tiers["item"]["fallbacks"]["b"]


# ---------------------------------------------------------------------------
# Barrier-phase splitting
# ---------------------------------------------------------------------------

def test_barrier_generator_splits_into_phases():
    n = 32
    data_ref = np.arange(n, dtype=np.float32)
    scratch_ref = np.zeros(n, dtype=np.float32)
    run_nd_range(_spec(_barrier_item), _nd(n, 8),
                 (data_ref, scratch_ref, n), mode="item")

    spec = _spec(_barrier_item)
    data = np.arange(n, dtype=np.float32)
    scratch = np.zeros(n, dtype=np.float32)
    run_nd_range(spec, _nd(n, 8), (data, scratch, n), mode="compiled")
    assert data.tobytes() == data_ref.tobytes()

    data2 = np.arange(n, dtype=np.float32)
    scratch2 = np.zeros(n, dtype=np.float32)
    stats = run_nd_range(spec, _nd(n, 8), (data2, scratch2, n),
                         mode="compiled")
    assert data2.tobytes() == data_ref.tobytes()
    assert stats.path == "compiled"
    # one barrier -> one phase boundary, reported in interpreter units
    # (phases x work-groups) so profiles stay comparable across tiers
    assert stats.barrier_phases == 1 * (n // 8)
    assert stats.gen_advances == 2


def test_local_tile_with_barrier_loop():
    """A LocalAccessor tile written and read across barrier phases —
    including a barrier inside a static loop — batches bitwise: the
    compiled tier shadows the tile as one per-group array and the loop
    contributes one array phase per iteration."""
    from repro.sycl.buffer import LocalAccessor

    n, wg = 32, 8
    rng = np.random.default_rng(7)
    src = rng.random(n).astype(np.float32)
    tile = LocalAccessor((wg,), np.float32)
    spec = _spec(_tile_item)
    assert eligible_form(spec) == ("item", None)

    ref = np.zeros(n, dtype=np.float32)
    run_nd_range(spec, _nd(n, wg), (ref, src, tile, n, wg), mode="item")
    out = np.zeros(n, dtype=np.float32)
    run_nd_range(spec, _nd(n, wg), (out, src, tile, n, wg), mode="compiled")
    stats = run_nd_range(spec, _nd(n, wg), (out, src, tile, n, wg),
                         mode="compiled")
    assert out.tobytes() == ref.tobytes()
    assert stats.path == "compiled"
    # staging barrier + one per loop iteration, in interpreter units
    assert stats.barrier_phases == (1 + wg) * (n // wg)


# ---------------------------------------------------------------------------
# Fallback: static, runtime, and validation-mismatch demotion
# ---------------------------------------------------------------------------

def test_static_fallback_runs_interpreter_and_counts():
    n = 64
    src = np.ones(n, dtype=np.float32)
    ref = np.zeros(n, dtype=np.float32)
    run_nd_range(_spec(_while_item), _nd(), (ref, src, n), mode="item")
    before = _fallback_count()
    out = np.zeros(n, dtype=np.float32)
    spec = _spec(_while_item)
    stats = run_nd_range(spec, _nd(), (out, src, n), mode="compiled")
    assert out.tobytes() == ref.tobytes()
    assert stats.path == "item"
    assert _fallback_count() == before + 1
    # warm relaunches reuse the demoted plan: no re-counting
    run_nd_range(spec, _nd(), (out, src, n), mode="compiled")
    assert _fallback_count() == before + 1


def test_runtime_fallback_on_unsupported_argument():
    """A statically eligible kernel whose *arguments* the batched
    runtime cannot represent demotes at bind time — before anything
    executes — and the interpreter result stands."""
    n = 64
    src = np.ones(n, dtype=np.float32)
    factor = [2.0]  # a list argument: bind() refuses it

    def by_mode(mode):
        out = np.zeros(n, dtype=np.float32)
        spec = _spec(_list_factor_item)
        stats = run_nd_range(spec, _nd(), (out, src, n, factor), mode=mode)
        return out, stats

    ref, _ = by_mode("item")
    before = _fallback_count()
    clear_plan_caches()
    out, stats = by_mode("compiled")
    assert out.tobytes() == ref.tobytes()
    assert stats.path == "item"
    assert _fallback_count() == before + 1


def _list_factor_item(item, out, src, n, factor):
    i = item.get_global_linear_id()
    if i >= n:
        return
    out[i] = src[i] * factor[0]


def test_validation_mismatch_demotes_with_interpreter_result():
    """Cross-lane accumulation translates but cannot batch correctly;
    shadow validation catches the divergence, the interpreter result is
    what lands in the buffer, and the plan permanently demotes."""
    n = 16
    assert eligible_form(_spec(_accumulate_item))[0] == "item"
    spec = _spec(_accumulate_item)
    out = np.zeros(4, dtype=np.float32)
    before = _fallback_count()
    stats = run_nd_range(spec, _nd(n, 4), (out, n), mode="compiled")
    assert out[0] == n  # interpreter semantics, not last-writer-wins
    assert stats.path == "item"
    assert _fallback_count() == before + 1
    stats = run_nd_range(spec, _nd(n, 4), (out, n), mode="compiled")
    assert out[0] == 2 * n
    assert stats.path == "item"
    plan = get_plan(spec, _nd(n, 4), mode="compiled")
    assert plan.path == "item" and plan.compiled is None


# ---------------------------------------------------------------------------
# Process-wide disable + Queue integration
# ---------------------------------------------------------------------------

def test_vectorize_disabled_round_trip():
    n = 64
    src = np.linspace(0, 1, n, dtype=np.float32)
    spec = _spec(_scale_item)
    on = np.zeros(n, dtype=np.float32)
    run_nd_range(spec, _nd(), (on, src, n, np.float32(3.0)), mode="compiled")
    run_nd_range(spec, _nd(), (on, src, n, np.float32(3.0)), mode="compiled")
    with vectorize_disabled():
        off = np.zeros(n, dtype=np.float32)
        run_nd_range(spec, _nd(), (off, src, n, np.float32(3.0)),
                     mode="compiled")
        plan = get_plan(spec, _nd(), mode="compiled")
        assert plan.path == "item"  # disabled: plans never compile batched
    assert on.tobytes() == off.tobytes()
    assert compile_batched(spec, _nd())[0] is not None  # re-enabled


def test_group_form_batches():
    spec = KernelSpec(name="gsum", kind=KernelKind.ND_RANGE,
                      group_fn=_group_sum)
    src = np.arange(8, dtype=np.float32)
    ref = np.zeros(8, dtype=np.float32)
    run_nd_range(spec, _nd(64, 8), (ref, src, 8), mode="group")
    out = np.zeros(8, dtype=np.float32)
    run_nd_range(spec, _nd(64, 8), (out, src, 8), mode="compiled")
    stats = run_nd_range(spec, _nd(64, 8), (out, src, 8), mode="compiled")
    assert out.tobytes() == ref.tobytes()
    assert stats.path == "compiled"
    ck, reason = compile_batched(spec, _nd(64, 8))
    assert reason is None and ck.form == "group"


def test_queue_compiled_default_mode():
    q = Queue("rtx2080", default_mode="compiled")
    n = 64
    src = np.full(n, 2.0, dtype=np.float32)
    out = np.zeros(n, dtype=np.float32)
    spec = _spec(_scale_item)
    q.parallel_for(_nd(), spec, out, src, n, np.float32(2.0))
    q.parallel_for(_nd(), spec, out, src, n, np.float32(2.0))
    assert np.all(out == 5.0)
    assert q.counters.path_counts.get("compiled", 0) >= 1
