"""Functional execution of SYCL kernels.

Three execution paths, fastest first:

* **vectorized** — the kernel's ``vector_fn`` is invoked once for the
  whole range (numpy fast path, the idiomatic HPC-Python form);
* **group-vectorized** — the kernel's ``group_fn`` is invoked once per
  work-group with the :class:`~repro.sycl.ndrange.Group` as its index
  argument.  A generator ``group_fn`` yields ``group.barrier(...)``
  between phases, each phase vectorized over the whole group — the
  phase-by-phase barrier contract of the per-item path at a fraction of
  the interpreter cost;
* **per-item** — the kernel's ``item_fn`` is run for every work-item.
  Kernels that synchronize are generator functions; the executor runs all
  items of a work-group *phase by phase*: it advances every generator to
  its next ``yield item.barrier(...)`` before any generator continues.
  This is exactly the SIMT barrier contract — every work-item of the
  group reaches barrier *k* before any proceeds past it.

Two performance layers keep the decomposed paths cheap:

* index-point grids and the per-group (global id, local id) lattices are
  memoized per ``(global_range, local_range)`` with ``lru_cache``
  (immutable tuples only, so concurrent launches from a harness worker
  pool can share them safely);
* all barrier-phase scheduling — work-group and grid scope, cold and
  warm, traced or not — runs through one phase engine that checks
  barrier tokens and divergence on every phase.

A third layer, :mod:`repro.sycl.plan`, compiles everything
launch-invariant (validation, path selection, generator inspection,
lattice references) into a :class:`~repro.sycl.plan.LaunchPlan` on
first launch of a shape; repeated launches — the steady state Altis
measures — re-inspect nothing.  Every launch runs through a plan: the
entry points below only poll the fault hook and look the plan up.

The executor validates work-group limits against kernel attributes,
reproducing the runtime errors the paper hit when Altis' default
work-group sizes exceeded the FPGA compiler's preconfigured maxima (§4).
"""

from __future__ import annotations

import inspect
import itertools
from contextlib import nullcontext as _null_context
from functools import lru_cache
from typing import Sequence

from ..common.errors import KernelLaunchError
from ..resilience.faults import poll as _fault_poll
from ..trace.metrics import registry as _metrics
from ..trace.spans import current_tracer
from .kernel import KernelSpec
from .ndrange import BarrierToken, NdRange

__all__ = [
    "validate_launch",
    "run_nd_range",
    "run_grid_synchronized",
    "run_single_task",
    "ExecutionStats",
    "execution_cache_info",
    "clear_execution_caches",
]


class ExecutionStats:
    """Counters the executor produces for one launch (functional layer)."""

    __slots__ = ("groups", "items", "barrier_phases", "path", "gen_advances")

    def __init__(self) -> None:
        self.groups = 0
        self.items = 0
        self.barrier_phases = 0
        #: which execution path ran: vector / group / item / single_task
        self.path = ""
        #: generator resumptions performed by the phase engine (scheduler
        #: work; 0 on the vectorized paths)
        self.gen_advances = 0

    def __repr__(self) -> str:
        return (
            f"ExecutionStats(path={self.path!r}, groups={self.groups}, "
            f"items={self.items}, barrier_phases={self.barrier_phases}, "
            f"gen_advances={self.gen_advances})"
        )


def validate_launch(kernel: KernelSpec, nd_range: NdRange,
                    device_max_wg: int | None = None) -> None:
    """Check the launch configuration against kernel attributes.

    Raises :class:`KernelLaunchError` when the work-group shape violates
    ``reqd_work_group_size`` or exceeds ``max_work_group_size`` or the
    device limit — the error class the paper saw on FPGAs before adding
    the attributes.
    """
    attrs = kernel.attributes
    local = tuple(nd_range.local_range)
    if attrs.reqd_work_group_size is not None:
        # SYCL attribute order matches the range dimensions used at launch;
        # compare trailing dims so (1,1,B) matches a 1-D launch of B.
        reqd = tuple(d for d in attrs.reqd_work_group_size if d != 1) or (1,)
        got = tuple(d for d in local if d != 1) or (1,)
        if reqd != got:
            raise KernelLaunchError(
                f"kernel {kernel.name!r} requires work-group "
                f"{attrs.reqd_work_group_size}, launched with {local}"
            )
    if attrs.max_work_group_size is not None:
        limit = 1
        for d in attrs.max_work_group_size:
            limit *= d
        if nd_range.group_size() > limit:
            raise KernelLaunchError(
                f"kernel {kernel.name!r} work-group size {nd_range.group_size()} "
                f"exceeds max_work_group_size {limit}"
            )
    if device_max_wg is not None and nd_range.group_size() > device_max_wg:
        # Without an explicit max_work_group_size attribute the device's
        # preconfigured limit applies (128 on the modeled FPGAs, §4).
        if attrs.max_work_group_size is None:
            raise KernelLaunchError(
                f"work-group size {nd_range.group_size()} exceeds the device "
                f"limit {device_max_wg}; add reqd/max_work_group_size "
                f"attributes (paper §4 'Default work-group sizes')"
            )


# ---------------------------------------------------------------------------
# Memoized index-space lattices
# ---------------------------------------------------------------------------

@lru_cache(maxsize=512)
def _point_grid(extents: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All index points of a rectangular extent, row-major."""
    return tuple(itertools.product(*(range(e) for e in extents)))


@lru_cache(maxsize=256)
def _nd_lattice(global_dims: tuple[int, ...], local_dims: tuple[int, ...]
                ) -> tuple[tuple[tuple[int, ...], tuple], ...]:
    """The (group id, ((global id, local id), ...)) lattice of an nd_range.

    Only immutable coordinate tuples are cached — ``Group``/``NdItem``
    objects carry per-launch state (local memory) and are built fresh —
    so reuse across launches and across harness worker threads is safe.
    """
    local_points = _point_grid(local_dims)
    lattice = []
    group_extents = tuple(g // l for g, l in zip(global_dims, local_dims))
    for gid in _point_grid(group_extents):
        base = tuple(g * l for g, l in zip(gid, local_dims))
        items = tuple(
            (tuple(b + p for b, p in zip(base, lid)), lid)
            for lid in local_points
        )
        lattice.append((gid, items))
    return tuple(lattice)


def execution_cache_info() -> dict:
    """lru_cache statistics of the memoized index grids and lattices."""
    return {
        "point_grid": _point_grid.cache_info(),
        "nd_lattice": _nd_lattice.cache_info(),
    }


def clear_execution_caches() -> None:
    _point_grid.cache_clear()
    _nd_lattice.cache_clear()


# ---------------------------------------------------------------------------
# The shared barrier-phase engine
# ---------------------------------------------------------------------------

#: ``next(gen, _DONE)`` marks a finished generator without raising
#: ``StopIteration``
_DONE = object()


def _bad_token(kernel: KernelSpec, token, grid: bool) -> KernelLaunchError:
    kind = "grid-sync" if grid else "barrier"
    return KernelLaunchError(
        f"kernel {kernel.name!r} yielded {token!r}; {kind} "
        "kernels must `yield item.barrier(...)`"
    )


def _divergent(kernel: KernelSpec, reached: int, size: int,
               grid: bool) -> KernelLaunchError:
    scope = "grid barrier" if grid else "barrier"
    return KernelLaunchError(
        f"kernel {kernel.name!r}: divergent {scope} - only "
        f"{reached} of {size} work-items reached it"
    )


def _advance_each(kernel: KernelSpec, gens: Sequence, grid: bool) -> int:
    """Advance every generator once, in order; how many reached a
    barrier (each yield must be a barrier token)."""
    reached = 0
    for gen in gens:
        token = next(gen, _DONE)
        if token is _DONE:
            continue
        if not isinstance(token, BarrierToken):
            raise _bad_token(kernel, token, grid)
        reached += 1
    return reached


def _phase_span(tracer, kernel: KernelSpec, start: float, phase: int,
                size: int, reached: bool, grid: bool) -> float:
    """Record one ``barrier-phase`` span; returns the next phase's start."""
    now = tracer.now_us()
    tracer.complete(
        f"{kernel.name}:barrier-phase", "barrier-phase", start, now - start,
        phase=phase, participants=size, reached_barrier=reached, grid=grid,
    )
    return tracer.now_us()


def _advance_barrier_phases(kernel: KernelSpec, gens: Sequence,
                            stats: ExecutionStats, *, grid: bool = False,
                            tracer=None) -> None:
    """Run generator kernels phase by phase until all complete.

    The one barrier engine: every generator launch — work-group
    barriers (:func:`run_nd_range`, one call per group) and grid-wide
    barriers (:func:`run_grid_synchronized`, one call per launch),
    cold or warm, traced or not — advances through it.  Each phase
    advances every generator once, in order.  The first generator paces
    the phases: a ``for`` loop resumes it without a call per phase,
    which keeps the one-generator group form nearly as cheap as
    draining it.

    With a ``tracer`` each phase is recorded as a ``barrier-phase`` span
    under the caller's open kernel-form span; ``tracer=None`` adds one
    branch per phase and nothing else.

    Checked on every phase: each yield must be a barrier token, and
    either *every* participant reaches the barrier or every one runs to
    completion; any mix is the divergent-barrier error the SIMT
    contract forbids.
    """
    size = len(gens)
    if not size:
        return
    lead, rest = gens[0], gens[1:]
    phase = 0
    phase_start = tracer.now_us() if tracer is not None else 0.0
    for token in lead:
        if not isinstance(token, BarrierToken):
            raise _bad_token(kernel, token, grid)
        reached = 1 + _advance_each(kernel, rest, grid) if rest else 1
        if reached != size:
            raise _divergent(kernel, reached, size, grid)
        if tracer is not None:
            phase_start = _phase_span(tracer, kernel, phase_start, phase,
                                      size, True, grid)
        phase += 1
    # the first generator finished: every other one must finish in the
    # same phase
    reached = _advance_each(kernel, rest, grid) if rest else 0
    if reached:
        raise _divergent(kernel, reached, size, grid)
    if tracer is not None:
        _phase_span(tracer, kernel, phase_start, phase, size, False, grid)
    stats.gen_advances += size * (phase + 1)
    stats.barrier_phases += phase


# ---------------------------------------------------------------------------
# Launch entry points
# ---------------------------------------------------------------------------

# populated on the first launch (the plan module imports this one, so
# the executor reaches back lazily)
_get_plan = None


def _lookup_plan(kernel, nd_range, force_item, device_max_wg, mode,
                 grid=False):
    global _get_plan
    if _get_plan is None:
        from .plan import get_plan

        _get_plan = get_plan
    return _get_plan(kernel, nd_range, force_item=force_item,
                     device_max_wg=device_max_wg, mode=mode, grid=grid)


def run_grid_synchronized(kernel: KernelSpec, nd_range: NdRange,
                          args: tuple) -> ExecutionStats:
    """Execute an ND-range kernel with **grid-level synchronization**.

    Altis exercises CUDA cooperative groups' grid sync (paper §2.2);
    SYCL has no portable equivalent, so migrated kernels restructure —
    but the reproduction keeps the primitive for the CUDA side.  Every
    ``yield item.barrier(...)`` synchronizes across the *entire grid*,
    not just the work-group: all items of all groups reach barrier k
    before any proceeds.  A generator ``group_fn`` is preferred when
    present and synchronizes at group granularity (all groups reach
    barrier k before any continues).

    Grid barriers interlock every generator, so each launch runs the
    phase engine over the whole grid; the cached grid plan amortizes
    path selection, generator inspection, and group construction only.
    """
    plan = _lookup_plan(kernel, nd_range, False, None, None, grid=True)
    return plan.execute(args)


def run_nd_range(kernel: KernelSpec, nd_range: NdRange, args: tuple,
                 *, force_item: bool = False,
                 device_max_wg: int | None = None,
                 mode: str | None = None) -> ExecutionStats:
    """Execute an ND-range kernel functionally.

    ``mode`` pins an execution path explicitly (``"vector"``,
    ``"group"``, ``"item"`` or ``"compiled"`` — the batched-numpy tier
    of :mod:`repro.sycl.vectorize`, which falls back to the reference
    interpreter form when the kernel is not batchable); otherwise the
    fastest available path is selected — the whole-range vector form
    unless ``force_item``, then the compiled tier when it matches the
    reference form, then the group-vectorized form, then per-item.

    The launch goes through the plan cache (:mod:`repro.sycl.plan`):
    the first launch of a shape compiles a
    :class:`~repro.sycl.plan.LaunchPlan`, repeated launches execute
    warm with zero re-inspection.

    Each launch is a fault-injection / deadline checkpoint
    (:func:`repro.resilience.faults.poll` at site ``launch``) — polled
    *before* the plan lookup, so faults and retries stay per-launch
    even on a warm cache; free when no plan or deadline is active.
    """
    _fault_poll("launch", kernel.name)
    plan = _lookup_plan(kernel, nd_range, force_item, device_max_wg, mode)
    return plan.execute(args)


def _note_execution_metrics(stats: ExecutionStats) -> None:
    """Fold one launch's stats into the metrics registry (traced runs)."""
    _metrics.counter("executor.launches").inc()
    _metrics.counter("executor.items").inc(stats.items)
    _metrics.counter("executor.groups").inc(stats.groups)
    _metrics.counter("executor.barrier_phases").inc(stats.barrier_phases)
    _metrics.counter("executor.gen_advances").inc(stats.gen_advances)
    _metrics.counter(f"executor.path.{stats.path}").inc()


def run_single_task(kernel: KernelSpec, args: tuple) -> ExecutionStats:
    """Execute a single-task kernel (no index space).

    Pipe-blocking single-task kernels must be scheduled by the dataflow
    scheduler in :mod:`repro.sycl.pipes`; calling them here runs them to
    completion and will raise if a pipe read ever blocks.
    """
    _fault_poll("launch", kernel.name)
    stats = ExecutionStats()
    stats.path = "single_task"
    fn = kernel.vector_fn or kernel.item_fn
    tracer = current_tracer()
    with (tracer.span(f"{kernel.name}:single_task", "kernel-form",
                      kernel=kernel.name, path="single_task")
          if tracer is not None else _null_context()):
        result = fn(*args)
        if inspect.isgenerator(result):
            # Drain a generator-style kernel; any yield means it blocked
            # on a pipe with no co-scheduled producer.
            for _ in result:
                raise KernelLaunchError(
                    f"single-task kernel {kernel.name!r} blocked on a pipe; "
                    "submit it through a DataflowGraph instead"
                )
    if tracer is not None:
        _note_execution_metrics(stats)
    stats.groups = 1
    stats.items = 1
    return stats
