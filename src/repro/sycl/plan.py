"""Launch-plan compilation and the warm-plan cache.

The paper attributes most of the optimized-SYCL win to restructuring
*launch* work, not arithmetic (§4, Fig. 1's non-kernel time), and Altis
deliberately measures the repeated-launch steady state.  The executor
used to re-derive the same launch-invariant facts on every
:func:`~repro.sycl.executor.run_nd_range` call: attribute validation,
path selection, ``inspect`` generator probing, lattice lookups, and
fresh :class:`~repro.sycl.ndrange.Group` construction.

This module compiles all of that **once per launch shape**.  The first
launch of a ``(kernel, nd_range, path-pins, device limit)`` tuple builds
an immutable :class:`LaunchPlan`:

* the selected execution path and the validated work-group limits;
* references to the memoized point grid / group lattice of the range;
* ``inspect``-derived facts — whether the chosen form is a generator,
  and its argument arity (the binding order of ``(index, *args)``).

Subsequent launches of the same tuple execute through the plan with
zero re-inspection; plans also keep a **thread-local pool** of ``Group``
objects, so the per-group index state (and, for kernels that declare
the ``local_mem_reuse`` feature, their staged local tiles) is not
rebuilt on every launch of a steady-state wavefront.

Plans live in a process-wide LRU cache mirroring the executor's lattice
caches — :func:`plan_cache_info` / :func:`clear_plan_caches` — and are
shared by every ``Queue`` and every harness ``pool_map`` worker thread.
A plan is the only way a kernel runs: at cache capacity 0
(:func:`set_plan_cache_limit`) every launch compiles a throwaway plan,
which is the cold first-launch path.
With a tracer installed, compilation emits a ``plan.compile`` span,
warm launches emit ``plan.hit`` spans, and the ``plan.*`` metrics show
the amortization (see ``docs/performance.md``).

Plan reuse is observable through the cache counters:

>>> import numpy as np
>>> from repro.sycl import KernelSpec, NdRange, Range
>>> from repro.sycl.executor import run_nd_range
>>> from repro.sycl.plan import clear_plan_caches, plan_cache_info
>>> doubler = KernelSpec(name="doubler",
...                      vector_fn=lambda nd, a: np.multiply(a, 2, out=a))
>>> clear_plan_caches()
>>> a = np.ones(16)
>>> for _ in range(4):
...     stats = run_nd_range(doubler, NdRange(Range(16), Range(8)), (a,))
>>> stats.path
'vector'
>>> info = plan_cache_info()
>>> (info["compiles"], info["hits"], info["size"])
(1, 3, 1)
>>> float(a[0])
16.0
"""

from __future__ import annotations

import inspect
import threading
from collections import OrderedDict

from ..common.errors import KernelLaunchError
from ..trace.metrics import registry as _metrics
from ..trace.spans import current_tracer
from .buffer import LocalAccessor
from .executor import (
    ExecutionStats,
    _advance_barrier_phases,
    _nd_lattice,
    _note_execution_metrics,
    _point_grid,
    validate_launch,
)
from .kernel import KernelSpec
from .ndrange import Group, NdItem, NdRange
from .vectorize import (
    VectorizeFallback,
    compile_batched,
    eligible_form,
    note_fallback as _note_vectorize_fallback,
    vectorize_enabled,
)

__all__ = [
    "LaunchPlan",
    "get_plan",
    "compile_plan",
    "plan_cache_info",
    "clear_plan_caches",
    "set_plan_cache_limit",
    "plan_pool_stats",
]


# ---------------------------------------------------------------------------
# The process-wide plan cache
# ---------------------------------------------------------------------------

_CACHE: "OrderedDict[tuple, LaunchPlan]" = OrderedDict()
_LOCK = threading.Lock()
_MAXSIZE = 256
_HITS = 0
_MISSES = 0
_COMPILES = 0
_EVICTIONS = 0


def plan_cache_info() -> dict:
    """Counters of the process-wide plan cache (mirrors
    :func:`~repro.sycl.executor.execution_cache_info`)."""
    with _LOCK:
        tiers: dict = {}
        for plan in _CACHE.values():
            entry = tiers.setdefault(plan.path,
                                     {"count": 0, "fallbacks": {}})
            entry["count"] += 1
            if plan.fallback_reason is not None:
                entry["fallbacks"][plan.kernel.name] = plan.fallback_reason
        return {
            "hits": _HITS,
            "misses": _MISSES,
            "compiles": _COMPILES,
            "evictions": _EVICTIONS,
            "size": len(_CACHE),
            "maxsize": _MAXSIZE,
            # per-plan execution tier (compiled / vector / group / item)
            # so tier regressions are visible without tracing.  Each
            # entry carries a plan count plus, for plans that *missed*
            # the compiled tier while it was requested, the per-kernel
            # fallback reason (static ineligibility or the runtime
            # demotion message) — a demoted compiled plan shows up
            # under its interpreter tier with the reason it fell.
            "tiers": tiers,
        }


def clear_plan_caches() -> None:
    """Drop every compiled plan and zero the cache counters."""
    global _HITS, _MISSES, _COMPILES, _EVICTIONS
    with _LOCK:
        _CACHE.clear()
        _HITS = _MISSES = _COMPILES = _EVICTIONS = 0


def plan_pool_stats() -> dict:
    """Work-group-pool footprint of the live plan cache.

    Walks the cached plans and reports how many have materialized their
    *calling thread's* pooled ``Group`` objects (pools are thread-local,
    so other workers' pools are invisible here by design), how many
    pooled groups that is in total, and how many plans opted into
    ``local_mem_reuse``.  Used by the ``repro profile`` report.
    """
    with _LOCK:
        plans = list(_CACHE.values())
    pooled_plans = 0
    poolable_groups = 0
    materialized_groups = 0
    local_mem_reuse_plans = 0
    for plan in plans:
        poolable_groups += plan.num_groups
        if plan.local_mem_reuse:
            local_mem_reuse_plans += 1
        pairs = getattr(plan._tls, "pairs", None)
        if pairs is not None:
            pooled_plans += 1
            materialized_groups += len(pairs)
    return {
        "plans": len(plans),
        "pooled_plans": pooled_plans,
        "poolable_groups": poolable_groups,
        "materialized_groups": materialized_groups,
        "local_mem_reuse_plans": local_mem_reuse_plans,
    }


def set_plan_cache_limit(maxsize: int) -> int:
    """Bound the LRU cache at ``maxsize`` plans; returns the old bound.

    ``0`` turns caching off: every launch then compiles a plan that is
    never inserted, so every launch takes the first-launch path.
    """
    global _MAXSIZE
    with _LOCK:
        previous = _MAXSIZE
        _MAXSIZE = max(0, int(maxsize))
        while len(_CACHE) > _MAXSIZE:
            _evict_oldest_locked()
    return previous


def _evict_oldest_locked() -> None:
    global _EVICTIONS
    _CACHE.popitem(last=False)
    _EVICTIONS += 1


def _normalize_mode(mode: str | None) -> str | None:
    return None if mode in (None, "auto", "") else mode


def _plan_key(kernel: KernelSpec, nd_range: NdRange, force_item: bool,
              device_max_wg: int | None, mode: str | None,
              grid: bool) -> tuple:
    # Content-based, not id(kernel)-based: apps may rebuild equal
    # KernelSpec copies per launch (``with_attributes``); two specs with
    # the same implementation functions and attributes launch the same.
    return (
        kernel.item_fn, kernel.group_fn, kernel.vector_fn, kernel.name,
        kernel.attributes,
        nd_range.global_range.dims, nd_range.local_range.dims,
        force_item, mode, device_max_wg, grid,
        # a vectorize_disabled() block must never reuse a plan compiled
        # to the batched tier (and vice versa) — the flag splits the key
        vectorize_enabled(),
    )


def get_plan(kernel: KernelSpec, nd_range: NdRange, *,
             force_item: bool = False, device_max_wg: int | None = None,
             mode: str | None = None, grid: bool = False) -> "LaunchPlan":
    """The cached plan for one launch shape, compiling it on first use.

    Invalid launch configurations raise
    :class:`~repro.common.errors.KernelLaunchError` — and are never
    cached, so every launch of a bad shape keeps failing loudly.
    """
    global _HITS, _MISSES
    mode = _normalize_mode(mode)
    key = _plan_key(kernel, nd_range, force_item, device_max_wg, mode, grid)
    with _LOCK:
        plan = _CACHE.get(key)
        if plan is not None:
            _CACHE.move_to_end(key)
            _HITS += 1
        else:
            _MISSES += 1
    if plan is not None:
        tracer = current_tracer()
        if tracer is not None:
            tracer.complete("plan.hit", "plan", tracer.now_us(), 0.0,
                            kernel=kernel.name, path=plan.path)
            _metrics.counter("plan.hits").inc()
        return plan
    return _compile_and_insert(kernel, nd_range, key, force_item,
                               device_max_wg, mode, grid)


def compile_plan(kernel: KernelSpec, nd_range: NdRange, *,
                 force_item: bool = False, device_max_wg: int | None = None,
                 mode: str | None = None, grid: bool = False) -> "LaunchPlan":
    """Compile a plan without touching the cache (introspection aid)."""
    return LaunchPlan(kernel, nd_range, _normalize_mode(mode),
                      force_item=force_item, device_max_wg=device_max_wg,
                      grid=grid)


def _compile_and_insert(kernel, nd_range, key, force_item, device_max_wg,
                        mode, grid) -> "LaunchPlan":
    global _COMPILES
    tracer = current_tracer()
    if tracer is None:
        plan = compile_plan(kernel, nd_range, force_item=force_item,
                            device_max_wg=device_max_wg, mode=mode, grid=grid)
    else:
        with tracer.span("plan.compile", "plan", kernel=kernel.name,
                         grid=grid):
            plan = compile_plan(kernel, nd_range, force_item=force_item,
                                device_max_wg=device_max_wg, mode=mode,
                                grid=grid)
        _metrics.counter("plan.compiles").inc()
    with _LOCK:
        # capacity 0: the plan serves this launch only
        winner = _CACHE.setdefault(key, plan) if _MAXSIZE else plan
        if winner is plan:
            _COMPILES += 1
            while len(_CACHE) > _MAXSIZE:
                _evict_oldest_locked()
        if tracer is not None:
            _metrics.gauge("plan.cache_size").set(len(_CACHE))
    return winner


# ---------------------------------------------------------------------------
# Path selection
# ---------------------------------------------------------------------------

_MODES = ("vector", "group", "item", "compiled")


def _select_path(kernel: KernelSpec, force_item: bool, mode: str | None,
                 grid: bool) -> tuple:
    """The execution path of one launch shape: ``(path, fallback_reason)``.

    Grid-synchronized launches take the generator ``group_fn`` when
    present, else the generator ``item_fn``.  ``mode`` pins a path;
    ``mode="compiled"`` takes the batched tier when the kernel is
    eligible, else its reference interpreter form with the reason it
    fell (``fallback_reason``, ``None`` otherwise).  Auto mode picks the
    fastest form: the whole-range vector form unless ``force_item``,
    then the compiled tier when its batched form is exactly the
    interpreter form auto would otherwise run (so shadow validation
    compares against auto's own reference path), then the group form,
    then per-item.
    """
    if grid:
        if (kernel.group_fn is not None
                and inspect.isgeneratorfunction(kernel.group_fn)):
            return "group", None
        if kernel.item_fn is None:
            raise KernelLaunchError(
                f"kernel {kernel.name!r} needs an item_fn for grid sync")
        if not inspect.isgeneratorfunction(kernel.item_fn):
            raise KernelLaunchError(
                f"kernel {kernel.name!r} never synchronizes; use run_nd_range")
        return "item", None
    if mode == "compiled":
        if kernel.item_fn is not None:
            fallback = "item"
        elif kernel.group_fn is not None:
            fallback = "group"
        else:
            raise KernelLaunchError(
                f"kernel {kernel.name!r} has no item_fn or group_fn "
                "(mode='compiled' requested)")
        if not vectorize_enabled():
            # deliberate vectorize_disabled() block: not a coverage miss
            return fallback, "vectorizer disabled"
        form, reason = eligible_form(kernel)
        if form is None:
            _note_vectorize_fallback(kernel.name, reason, "static")
            return fallback, reason
        return "compiled", None
    if mode is not None:
        if mode not in _MODES:
            raise KernelLaunchError(
                f"unknown execution mode {mode!r}; expected one of {_MODES}")
        if getattr(kernel, f"{mode}_fn") is None:
            raise KernelLaunchError(
                f"kernel {kernel.name!r} has no {mode}_fn "
                f"(mode={mode!r} requested)")
        return mode, None
    if kernel.vector_fn is not None and not force_item:
        return "vector", None
    if not force_item and vectorize_enabled():
        form, _reason = eligible_form(kernel)
        interp = "group" if kernel.group_fn is not None else "item"
        if form is not None and form == interp:
            return "compiled", None
    # force_item pins the faithful decomposed execution (no whole-range
    # shortcut); within it the executor prefers the group-vectorized form.
    if kernel.group_fn is not None:
        return "group", None
    if kernel.item_fn is not None:
        return "item", None
    raise KernelLaunchError(
        f"kernel {kernel.name!r} has no item_fn (force_item requested)"
    )


# ---------------------------------------------------------------------------
# The compiled plan
# ---------------------------------------------------------------------------

class LaunchPlan:
    """Everything launch-invariant about one ``(kernel, nd_range)`` shape.

    Compilation validates the launch (work-group attributes and device
    limit), selects the execution path, resolves the memoized index
    lattices, and probes the chosen kernel form with :mod:`inspect`.
    The compiled facts are immutable except for the compiled tier's
    one-way demotion (:meth:`_demote`).

    ``execute`` runs one launch through the plan, traced or not, on the
    plan's thread-local pool of ``Group``/``NdItem`` objects.  Every
    generator form runs through the executor's barrier-phase engine, so
    barrier tokens and divergence are checked on every launch.
    """

    __slots__ = (
        "kernel", "nd_range", "path", "form", "grid", "is_generator",
        "arity", "run_fn", "group_ids", "lattice", "group_size",
        "num_groups", "total_items", "local_mem_reuse", "compiled",
        "fallback_reason", "_tls",
    )

    def __init__(self, kernel: KernelSpec, nd_range: NdRange,
                 mode: str | None, *, force_item: bool = False,
                 device_max_wg: int | None = None, grid: bool = False):
        validate_launch(kernel, nd_range, device_max_wg)
        self.kernel = kernel
        self.nd_range = nd_range
        self.grid = grid
        self.compiled = None
        #: why this plan is not (or no longer) on the compiled tier:
        #: the static ineligibility reason when compiled mode was
        #: requested, or the runtime demotion message after ``_demote``;
        #: ``None`` for compiled plans and paths that never tried
        self.path, self.fallback_reason = _select_path(
            kernel, force_item, mode, grid)
        if self.path == "compiled":
            self.compiled, _reason = compile_batched(kernel, nd_range)
            if self.compiled is None:  # defensive: eligibility raced
                self.path = "item" if kernel.item_fn is not None else "group"
                self.fallback_reason = _reason
        #: the interpreter form behind the plan: for a compiled plan the
        #: validation reference / demotion target
        self.form = (self.compiled.fallback_path
                     if self.compiled is not None else self.path)
        self.run_fn = getattr(kernel, f"{self.form}_fn")
        self.is_generator = inspect.isgeneratorfunction(self.run_fn)
        code = getattr(self.run_fn, "__code__", None)
        #: positional binding order of the kernel call: the index object
        #: (nd_range / group / nd_item) plus this many launch arguments
        self.arity = (code.co_argcount - 1) if code is not None else None
        self.group_size = nd_range.group_size()
        self.num_groups = nd_range.num_groups()
        self.total_items = nd_range.total_items()
        # resolved references into the executor's memoized lattices
        self.group_ids = _point_grid(nd_range.group_range().dims)
        self.lattice = (_nd_lattice(nd_range.global_range.dims,
                                    nd_range.local_range.dims)
                        if self.form == "item" else None)
        self.local_mem_reuse = bool(kernel.feature("local_mem_reuse"))
        self._tls = threading.local()

    def __repr__(self) -> str:
        return (f"LaunchPlan({self.kernel.name!r}, path={self.path!r}, "
                f"groups={self.num_groups}, items={self.total_items}, "
                f"grid={self.grid})")

    # -- work-group pooling ------------------------------------------------

    def _pairs(self) -> tuple:
        """This thread's pooled ``(group, members)`` pairs.

        ``members`` are the index objects the kernel form is called
        with: ``(group,)`` for the group form, the group's ``NdItem``
        objects for the per-item form.  Pools are thread-local, so
        concurrent ``pool_map`` workers reusing one plan never share
        mutable group state.  Unless the kernel declares the
        ``local_mem_reuse`` feature (a promise that every local-memory
        cell is written before it is read, as NW's tile wavefront
        does), each launch sees freshly cleared local memory —
        indistinguishable from a brand-new ``Group``.
        """
        pairs = getattr(self._tls, "pairs", None)
        if pairs is None:
            groups = [Group(gid, self.nd_range) for gid in self.group_ids]
            if self.lattice is None:
                pairs = tuple((group, (group,)) for group in groups)
            else:
                pairs = tuple(
                    (group, tuple(NdItem(glob, lid, group)
                                  for glob, lid in coords))
                    for group, (_, coords) in zip(groups, self.lattice))
            self._tls.pairs = pairs
        elif not self.local_mem_reuse:
            for group, _ in pairs:
                if group._local_mem:
                    group._local_mem.clear()
        return pairs

    # -- execution ---------------------------------------------------------

    def execute(self, args: tuple) -> ExecutionStats:
        """Run one launch through the plan.

        The caller remains responsible for the per-launch duties that
        must *not* amortize — the executor polls the fault-injection /
        deadline hook before looking the plan up, so faults and retries
        stay per-launch even on a fully warm cache.
        """
        stats = ExecutionStats()
        path = stats.path = self.path
        ck = self.compiled if path == "compiled" else None
        if path == "compiled" and ck is None:
            # demoted by a concurrent launch (GIL-ordered: _demote
            # writes path before compiled, so path is final here)
            path = stats.path = self.path
        tracer = current_tracer()
        if tracer is None:
            self._run(ck, args, stats, None)
            return stats
        if ck is not None:
            attrs = {"batched_form": ck.form, "validated": ck.validated}
        else:
            attrs = {"grid": True} if self.grid else {}
        with tracer.span(f"{self.kernel.name}:{path}", "kernel-form",
                         kernel=self.kernel.name, path=path, **attrs):
            self._run(ck, args, stats, tracer)
        _note_execution_metrics(stats)
        return stats

    def _run(self, ck, args: tuple, stats: ExecutionStats, tracer) -> None:
        """One launch: the batched tier with ``ck``, else the interpreter.

        First batched launch (``validated`` False): the batched program
        runs on buffer *copies* while the interpreter reference form
        runs on the real buffers; a bitwise match promotes the plan,
        anything else permanently demotes it — the interpreter result is
        authoritative either way, so the launch's outputs are
        byte-identical to the interpreter by construction.  Validated
        launches run the batched program directly; argument types the
        batched runtime cannot represent demote *before* any buffer is
        touched.  Data-dependent numpy errors on a validated plan (e.g.
        an out-of-bounds indirect store) propagate, exactly as the
        interpreter's would mid-loop.
        """
        if ck is None:
            self._run_interp(args, stats, tracer)
            return
        if ck.validated:
            try:
                bound = ck.bind(args)
            except VectorizeFallback as exc:
                self._demote(str(exc))
                stats.path = self.path
                self._run_interp(args, stats, tracer)
                return
            phases = ck.run(bound, tracer)
            stats.groups = self.num_groups
            stats.items = self.total_items
            if ck.is_generator:
                # one batched phase = one barrier phase in every group
                stats.barrier_phases = phases * self.num_groups
                stats.gen_advances = phases + 1
            return
        try:
            shadow_args = ck.shadow_run(args)
        except Exception as exc:  # noqa: BLE001 — any failure demotes
            self._demote(f"{type(exc).__name__}: {exc}")
            stats.path = self.path
            self._run_interp(args, stats, tracer)
            return
        # authoritative interpreter run on the real buffers
        self._run_interp(args, stats, tracer)
        if ck.buffers_match(shadow_args, args):
            ck.validated = True  # stats.path stays "compiled"
            # a promoted plan never runs its interpreter form again:
            # free the reference run's pooled work-groups and items
            del self._tls.pairs
        else:
            self._demote("batched result diverged from the interpreter")
            stats.path = self.path

    def _demote(self, reason: str) -> None:
        """Permanently fall this plan back to its interpreter form."""
        ck = self.compiled
        if ck is None:  # concurrent launch demoted first
            return
        _note_vectorize_fallback(self.kernel.name, reason, "runtime")
        self.fallback_reason = reason
        self.path = ck.fallback_path
        self.compiled = None

    def _run_interp(self, args: tuple, stats: ExecutionStats,
                    tracer) -> None:
        """One launch of the plan's interpreter form.

        Generator forms run through the barrier-phase engine: one phase
        set per work-group, or one over the whole grid for
        grid-synchronized plans (local memory is then one grid-wide
        instance).
        """
        fn = self.run_fn
        kernel = self.kernel
        stats.groups = self.num_groups
        stats.items = self.total_items
        if self.form == "vector":
            fn(self.nd_range, *args)
            return
        locals_ = [a for a in args if isinstance(a, LocalAccessor)]
        pairs = self._pairs()
        if self.grid:
            for acc in locals_:
                acc._begin_group()
            _advance_barrier_phases(
                kernel,
                [fn(m, *args) for _, members in pairs for m in members],
                stats, grid=True, tracer=tracer)
            for acc in locals_:
                acc._end_group()
            return
        is_generator = self.is_generator
        for _, members in pairs:
            for acc in locals_:
                acc._begin_group()
            if is_generator:
                _advance_barrier_phases(
                    kernel, [fn(m, *args) for m in members], stats,
                    tracer=tracer)
            else:
                for m in members:
                    fn(m, *args)
            for acc in locals_:
                acc._end_group()
