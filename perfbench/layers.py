"""Traced-run instrumentation: the benchmark's own spans around public
calls into the program, and the self-time split of an operation.

The program already emits ``launch``, ``kernel-form``, ``barrier-phase``
and ``plan`` spans under ``repro.trace.tracing()``.  :func:`instrument`
adds ``bench`` spans around ``AltisApp.generate/run_sycl/reference/
verify``, ``run_functional`` and ``SweepJournal.append``, recorded into
whatever tracer ``get_tracer()`` returns (nothing when it returns
``None``).
"""

from __future__ import annotations

import functools
import statistics

from repro.altis.base import AltisApp
from repro.altis.registry import APP_FACTORIES
from repro.harness import runner
from repro.harness.resultdb import SweepJournal

#: span name or category -> the layer its self time belongs to
_LAYER_OF_NAME = {
    "altis.generate": "altis.generate",
    "altis.run_sycl": "altis.host",
    "altis.reference": "altis.reference",
    "altis.verify": "altis.verify",
    "harness.run_functional": "harness",
    "harness.journal_append": "harness.journal",
}
_LAYER_OF_CAT = {
    "app": "harness",
    "transfer": "transfer",
    "launch": "sycl.dispatch",
    "kernel-form": "sycl.kernel",
    "barrier-phase": "sycl.kernel",
    "plan": "sycl.plan",
    "vectorize": "sycl.plan",
}
_APP_METHODS = ("generate", "run_sycl", "reference", "verify")


def _wrap(fn, name: str, get_tracer, config_arg: bool = False):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer = get_tracer()
        if tracer is None:
            return fn(*args, **kwargs)
        extra = {"config": args[0]} if config_arg else {}
        with tracer.span(name, "bench", **extra):
            return fn(*args, **kwargs)
    return traced


def instrument(get_tracer) -> None:
    """Wrap the public layer entry points (once per process)."""
    classes = {AltisApp}
    for factory in APP_FACTORIES.values():
        classes.update(c for c in type(factory()).__mro__
                       if issubclass(c, AltisApp))
    for cls in classes:
        for method in _APP_METHODS:
            if method in vars(cls):
                setattr(cls, method, _wrap(vars(cls)[method],
                                           f"altis.{method}", get_tracer))
    runner.run_functional = _wrap(runner.run_functional,
                                  "harness.run_functional", get_tracer,
                                  config_arg=True)
    SweepJournal.append = _wrap(SweepJournal.append,
                                "harness.journal_append", get_tracer)


def _config_of(span, by_id) -> str | None:
    node = span
    while node is not None:
        config = node.args.get("config")
        if config is not None:
            return config
        node = by_id.get(node.parent_id)
    return None


def split_operation(events: list, op) -> dict:
    """Self-time split of one operation span ``op`` (microseconds).

    A span's self time is its duration minus its children's; over all
    descendants of ``op`` the self times add up to ``op``'s children
    exactly, so the per-layer sums are additive.  Spans outside the
    named layers land in ``other``.  Also returns per-config
    ``run_sycl`` time and each launch's wall time by plan shape, in
    launch order (for the cold-launch excess).
    """
    by_id = {ev.id: ev for ev in events}
    inside = {op.id}
    child_us: dict[int, float] = {}
    for ev in sorted(events, key=lambda e: e.id):
        if ev.parent_id in inside:
            inside.add(ev.id)
            child_us[ev.parent_id] = child_us.get(ev.parent_id, 0.0) \
                + ev.dur_us
    layers: dict[str, float] = {}
    run_sycl: dict[str, float] = {}
    launches: list[tuple] = []
    for ev in events:
        if ev.id not in inside or ev.id == op.id:
            continue
        layer = (_LAYER_OF_NAME.get(ev.name) or _LAYER_OF_CAT.get(ev.cat)
                 or "other")
        layers[layer] = layers.get(layer, 0.0) + ev.dur_us \
            - child_us.get(ev.id, 0.0)
        if ev.name == "altis.run_sycl":
            config = _config_of(ev, by_id)
            run_sycl[config] = run_sycl.get(config, 0.0) + ev.dur_us
        elif ev.cat == "launch":
            shape = (_config_of(ev, by_id), ev.args.get("kernel"),
                     ev.args.get("items"), ev.args.get("groups"))
            launches.append((ev.id, shape, ev.dur_us))
    launches.sort()
    return {"layers": layers, "op_us": op.dur_us, "run_sycl": run_sycl,
            "launches": [(shape, dur) for _, shape, dur in launches]}


def cold_launch_excess_ms(cold: list, warm: dict) -> float:
    """First launch of each plan shape in the cold operation minus that
    shape's steady median over the warm operations."""
    excess = 0.0
    seen = set()
    for shape, dur in cold:
        if shape in seen or shape not in warm:
            continue
        seen.add(shape)
        excess += dur - statistics.median(warm[shape])
    return excess / 1e3
