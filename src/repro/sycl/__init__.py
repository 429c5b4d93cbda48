"""A functional SYCL runtime model.

This package reproduces the SYCL 2020 surface the migrated Altis suite
uses — queues, buffers/accessors, USM, profiling events, ND-range
execution with work-group barriers and local memory, Single-Task kernels
with Intel FPGA pipes, and the oneDPL algorithms — executing kernels
functionally on the host while advancing a modeled device clock.
"""

from . import onedpl
from .buffer import AccessMode, Accessor, Buffer, LocalAccessor, no_init
from .device import (
    Aspect,
    Device,
    accelerator_selector,
    available_devices,
    cpu_selector,
    default_selector,
    device,
    fpga_selector,
    gpu_selector,
    select_device,
)
from .event import CommandKind, Event, ProfilingInfo
from .executor import (
    ExecutionStats,
    clear_execution_caches,
    execution_cache_info,
    run_nd_range,
    run_single_task,
    validate_launch,
)
from .kernel import KernelAttributes, KernelKind, KernelSpec, LoopSpec
from .local_memory import group_local_memory_for_overwrite
from .ndrange import BarrierToken, FenceSpace, Group, Id, NdItem, NdRange, Range
from .plan import (
    LaunchPlan,
    clear_plan_caches,
    compile_plan,
    get_plan,
    plan_cache_info,
    plan_pool_stats,
    set_plan_cache_limit,
)
from .pipes import DataflowGraph, Pipe, PipeBlocked
from .queue import Handler, LaunchCounters, Queue, SpecTiming, TimelineEntry
from .streams import OutOfOrderQueue, hyperq_speedup
from .usm import (
    MemAdvice,
    UsmKind,
    UsmPointer,
    free,
    malloc_device,
    malloc_host,
    malloc_shared,
    mem_advise,
)
from .vectorize import (
    CompiledKernel,
    VectorizeFallback,
    clear_vectorize_caches,
    compile_batched,
    eligible_form,
    vectorize_cache_info,
    vectorize_disabled,
    vectorize_enabled,
)

__all__ = [
    "onedpl",
    # buffer
    "AccessMode",
    "Accessor",
    "Buffer",
    "LocalAccessor",
    "no_init",
    # device
    "Aspect",
    "Device",
    "device",
    "select_device",
    "available_devices",
    "default_selector",
    "cpu_selector",
    "gpu_selector",
    "accelerator_selector",
    "fpga_selector",
    # events
    "Event",
    "ProfilingInfo",
    "CommandKind",
    # execution
    "ExecutionStats",
    "run_nd_range",
    "run_single_task",
    "validate_launch",
    "execution_cache_info",
    "clear_execution_caches",
    # launch plans
    "LaunchPlan",
    "get_plan",
    "compile_plan",
    "plan_cache_info",
    "plan_pool_stats",
    "clear_plan_caches",
    "set_plan_cache_limit",
    # compiled (batched-numpy) tier
    "CompiledKernel",
    "VectorizeFallback",
    "compile_batched",
    "eligible_form",
    "vectorize_enabled",
    "vectorize_disabled",
    "vectorize_cache_info",
    "clear_vectorize_caches",
    # kernels
    "KernelSpec",
    "KernelKind",
    "KernelAttributes",
    "LoopSpec",
    # index space
    "Range",
    "Id",
    "NdRange",
    "NdItem",
    "Group",
    "FenceSpace",
    "BarrierToken",
    # pipes
    "Pipe",
    "PipeBlocked",
    "DataflowGraph",
    # queue
    "Queue",
    "Handler",
    "SpecTiming",
    "TimelineEntry",
    "LaunchCounters",
    "OutOfOrderQueue",
    "hyperq_speedup",
    # local memory
    "group_local_memory_for_overwrite",
    # usm
    "UsmPointer",
    "UsmKind",
    "MemAdvice",
    "malloc_device",
    "malloc_host",
    "malloc_shared",
    "free",
    "mem_advise",
]
