"""The compiled execution tier: batched numpy programs from kernel bodies.

The interpreter tiers (:mod:`repro.sycl.executor`) pay a Python-level
cost per work-item (``item_fn``) or per work-group (``group_fn``); warm
launch plans remove the *dispatch* cost but not the loop body itself —
BENCH_executor.json shows SRAD's group path gaining ~1.0x from warm
plans because the body dominates.  This module removes the body cost
for the (large) class of kernels whose per-item code is straight-line
array arithmetic: it lifts the ``item_fn`` / ``group_fn`` **source**
into a batched numpy program evaluated once per launch — or once per
barrier phase — over the index lattice already memoized by the plan
layer.  The restructuring mirrors how the paper's optimized-SYCL
variants (and the CRK-HACC / Reguly portability studies) close the gap
to the hardware: express the kernel over the whole index space instead
of per-item control flow.

How a kernel becomes a batched program
--------------------------------------

:func:`translate` parses the kernel's source (``inspect.getsource`` +
``ast``) and rewrites it into a new function ``<name>__batched`` taking
``(__lanes__, <index>, *args)``:

* every work-item is a **lane**; the ``<index>`` argument becomes a
  :class:`_BatchItem` / :class:`_BatchGroup` whose accessors return
  per-lane ``np.intp`` arrays in exact interpreter iteration order;
* ndarray arguments are wrapped in :class:`_BatchArray`, whose
  ``__getitem__`` gathers and ``__setitem__`` scatters under the
  current lane mask;
* a top-level ``if cond: return`` guard becomes ``__lanes__.refine``
  (dead lanes never store);
* any other ``if`` becomes a pair of masked regions — the condition is
  evaluated **once** into a temp, then the body runs under
  ``__lanes__.where(temp)`` and the else-arm under ``where_not`` —
  i.e. a ``select``-style conditional;
* ``x if c else y`` becomes ``np.where(c, x, y)``; ``and`` / ``or`` /
  ``not`` and chained comparisons become ``np.logical_*``;
* ``yield item.barrier(...)`` statements are kept verbatim, so a
  barrier kernel compiles to a batched *generator* whose resumptions
  are the array phases — barrier semantics survive as phase splits;
* ``for <name> in range(...)`` loops whose trip count is
  launch-invariant (constants, kernel scalar arguments, module
  globals, enclosing loop variables) unroll into one batched body
  execution per iteration — a barrier yield in the body becomes one
  array phase per iteration, matching the interpreter's schedule;
* a data-dependent exit ``if cond: [stores / rebinds]; break`` at the
  top level of such a loop's body retires the lanes that took it
  (``__lanes__.retire``, scoped to the loop by ``__lanes__.loop()``):
  later stores skip them, every name written in the loop and read
  after it — or, inside another loop, read by the loop's next pass
  before it is rebound — updates as ``np.where(live, new, old)``
  (``__lanes__.merge``), and the batched loop stops once no lane is
  left;
* ``LocalAccessor`` tiles become per-group ``(groups, *tile)`` shadow
  arrays (:class:`_BatchLocal`): every subscript is prefixed with the
  lane's group-linear id, so work-group locality survives batching;
* scalar builtins with an exact numpy lowering are rewritten in place:
  ``min``/``max`` → nested ``np.minimum``/``np.maximum``, ``float`` →
  ``np.float64``, ``abs`` stays, and ``math.*`` maps through
  :data:`_MATH_TO_NP` (``math.sqrt`` → ``np.sqrt`` …).

Anything still outside this dialect — ``while`` loops, data-dependent
trip counts, ``continue``, ``break`` anywhere but a top-level loop-body
``if``, remaining scalar builtins
(``len``/``sum``/``divmod`` …), calls into non-numpy modules,
non-constant slices, closures, value returns — makes the kernel
statically ineligible with a targeted reason.

Why this cannot change results
------------------------------

Static eligibility is necessary but not trusted: the first launch of a
compiled plan runs the batched program on **copies** of the buffers
while the interpreter runs on the real ones, and compares every output
byte (:meth:`CompiledKernel.shadow_run` in
:meth:`~repro.sycl.plan.LaunchPlan.execute`).  Only a bitwise match
promotes the plan to direct batched execution; any mismatch or
exception silently and permanently demotes the plan to the interpreter
path it was validated against.  Every fallback — static or runtime —
increments the ``vectorize.fallback`` counter and, when tracing is on,
emits a ``vectorize.fallback`` span, so tier coverage is observable in
``repro profile``.
"""

from __future__ import annotations

import ast
import copy as _copy
import inspect
import os
import textwrap
import threading
import types
from collections import Counter
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from ..trace.metrics import registry as _metrics
from ..trace.spans import current_tracer
from .buffer import LocalAccessor
from .executor import _nd_lattice, _point_grid
from .kernel import KernelKind, KernelSpec
from .ndrange import BarrierToken, FenceSpace, NdRange

__all__ = [
    "VectorizeFallback",
    "CompiledKernel",
    "compile_batched",
    "eligible_form",
    "translate",
    "vectorize_enabled",
    "vectorize_disabled",
    "note_fallback",
    "vectorize_cache_info",
    "clear_vectorize_caches",
]


class VectorizeFallback(Exception):
    """A batched program hit a construct it cannot execute.

    Raised before any real buffer is touched (argument wrapping, proxy
    misuse); the plan layer catches it and demotes to the interpreter.
    """


class _Ineligible(Exception):
    """Static analysis rejection; the message is the reason."""


# ---------------------------------------------------------------------------
# Process-wide enable switch
# ---------------------------------------------------------------------------

#: ``REPRO_VECTORIZE=0`` force-disables the compiled tier for the whole
#: process — the CI matrix leg that keeps the interpreter reference path
#: under first-class coverage (not only shadow-validation) uses it.
_ENABLED = os.environ.get("REPRO_VECTORIZE", "1").strip().lower() not in (
    "0", "false", "off", "no")


def vectorize_enabled() -> bool:
    """Whether eligible kernels may take the compiled tier."""
    return _ENABLED


@contextmanager
def vectorize_disabled():
    """Force the interpreter tiers for a block.

    Process-wide switch for benchmarks and the on/off differential
    suite; plans compiled inside the block carry the flag in their
    cache key, so a disabled run never reuses a compiled plan.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


def note_fallback(kernel_name: str, reason: str, stage: str) -> None:
    """Record one compiled-tier fallback (static or runtime).

    Always increments the ``vectorize.fallback`` counter; with a tracer
    installed also emits a zero-width ``vectorize.fallback`` span
    carrying the kernel, the reason, and the stage, so ``repro
    profile`` shows exactly which kernels missed the tier and why.
    """
    _metrics.counter("vectorize.fallback").inc()
    tracer = current_tracer()
    if tracer is not None:
        tracer.complete("vectorize.fallback", "vectorize", tracer.now_us(),
                        0.0, kernel=kernel_name, reason=reason, stage=stage)


# ---------------------------------------------------------------------------
# Static analysis + AST rewrite
# ---------------------------------------------------------------------------

_INDEX_METHODS = frozenset({
    "get_global_id", "get_local_id", "get_group", "get_global_linear_id",
    "get_local_linear_id", "get_global_range", "get_local_range",
    "get_group_range", "get_group_id", "get_group_linear_id",
})

_SCALAR_BUILTINS = frozenset({
    "int", "bool", "len", "range", "round", "sum", "any", "all",
    "sorted", "enumerate", "zip", "map", "filter", "divmod", "pow",
})

#: ``math.*`` functions with a bitwise-compatible numpy lowering.  Note
#: the compatibility caveat: for float32 operands the interpreter
#: computes through float64 (``math`` coerces) and the batched program
#: directly in float32 — identical for the correctly-rounded functions
#: (sqrt, fabs, floor, ceil, trunc, copysign) and for float64 kernels
#: throughout, ulp-divergent otherwise.  The shadow validator demotes
#: any kernel where the two disagree, so the mapping is safe to keep
#: liberal.
_MATH_TO_NP = {
    "sqrt": "sqrt", "exp": "exp", "expm1": "expm1", "log": "log",
    "log1p": "log1p", "log2": "log2", "log10": "log10", "fabs": "fabs",
    "floor": "floor", "ceil": "ceil", "trunc": "trunc", "sin": "sin",
    "cos": "cos", "tan": "tan", "asin": "arcsin", "acos": "arccos",
    "atan": "arctan", "atan2": "arctan2", "sinh": "sinh", "cosh": "cosh",
    "tanh": "tanh", "hypot": "hypot", "copysign": "copysign",
    "fmod": "fmod", "pow": "power",
}

_CMP_OK = (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _lanes_call(method: str, args: list) -> ast.Call:
    return ast.Call(
        func=ast.Attribute(value=ast.Name("__lanes__", ctx=ast.Load()),
                           attr=method, ctx=ast.Load()),
        args=args, keywords=[])


def _np_call(fn: str, args: list) -> ast.Call:
    return ast.Call(
        func=ast.Attribute(value=ast.Name("__vec_np__", ctx=ast.Load()),
                           attr=fn, ctx=ast.Load()),
        args=args, keywords=[])


def _name_loads(nodes) -> Counter:
    """How often each name is read in ``nodes`` (an augmented
    assignment reads its target too)."""
    loads = Counter()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads[node.id] += 1
            elif (isinstance(node, ast.AugAssign)
                  and isinstance(node.target, ast.Name)):
                loads[node.target.id] += 1
    return loads


def _read_before_bound(stmts, bound: set) -> set:
    """Names ``stmts`` (one loop iteration) may read before binding
    them in the same iteration, so their values flow in from the
    previous iteration or from before the loop.  Only an unconditional
    assignment at this level binds; anything under an ``if`` may not
    run, and an inner loop binds its target for its own body only."""
    reads = set()
    bound = set(bound)
    for s in stmts:
        if isinstance(s, ast.For):
            reads |= set(_name_loads([s.iter])) - bound
            targets = {n.id for n in ast.walk(s.target)
                       if isinstance(n, ast.Name)}
            reads |= _read_before_bound(s.body, bound | targets)
            continue
        reads |= set(_name_loads([s])) - bound
        if isinstance(s, ast.Assign):
            bound |= {n.id for t in s.targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)
                      and isinstance(n.ctx, ast.Store)}
    return reads


def _is_break_arm(s) -> bool:
    """``if <cond>: ...; break`` — a loop's data-dependent exit."""
    return (isinstance(s, ast.If) and not s.orelse
            and isinstance(s.body[-1], ast.Break))


class _ExitLoop:
    """Rewrite state of one loop with a break arm.

    ``live`` — names whose per-lane values must freeze when a lane
    exits (read outside the loop, or carried into its next pass by an
    enclosing loop); ``bound`` — names bound before the loop
    (the only ones a merge may fall back to); ``arm`` — set while a
    break arm is rewritten, where every rebind merges.
    """

    __slots__ = ("live", "bound", "arm")

    def __init__(self, live: set, bound: set):
        self.live = live
        self.bound = bound
        self.arm = False


class _Rewriter:
    """Rewrites one kernel body into the batched dialect, or raises
    :class:`_Ineligible` with the reason it cannot."""

    def __init__(self, index_name: str, glb: dict, is_generator: bool,
                 params: set, body: list):
        self.index = index_name
        self.glb = glb
        self.is_gen = is_generator
        self.params = params
        self.tmp_count = 0
        #: names bound inside the body — potentially lane-shaped, so a
        #: loop trip count may not depend on them (loop *targets* are
        #: uniform per-iteration scalars and deliberately excluded)
        self.assigned = set()
        #: name reads over the whole kernel; a loop's live-out set is
        #: the names read more often here than inside the loop
        self.loads = _name_loads(body)
        #: enclosing loops with a break arm, innermost last
        self.exits: list[_ExitLoop] = []
        #: how many loops enclose the statement being rewritten
        self.depth = 0

    def _tmp(self, kind: str) -> str:
        name = f"__vec_{kind}{self.tmp_count}__"
        self.tmp_count += 1
        return name

    def fail(self, reason: str):
        raise _Ineligible(reason)

    # -- statements --------------------------------------------------------

    def block(self, stmts, *, top: bool, predicated: bool,
              in_loop: bool = False) -> list:
        out = []
        for pos, s in enumerate(stmts):
            last = top and not in_loop and pos == len(stmts) - 1
            out.extend(self.stmt(s, top=top, predicated=predicated,
                                 last=last, in_loop=in_loop))
        if not out:
            out.append(ast.Pass())
        return out

    def stmt(self, s, *, top: bool, predicated: bool, last: bool,
             in_loop: bool = False) -> list:
        if isinstance(s, ast.Pass):
            return [s]
        if isinstance(s, ast.Expr):
            if isinstance(s.value, ast.Constant) and isinstance(
                    s.value.value, str):
                return [s]  # docstring
            if isinstance(s.value, ast.Yield):
                return [self.yield_stmt(s, top=top, predicated=predicated)]
            self.fail("expression statement with side effects")
        if isinstance(s, ast.Return):
            if s.value is not None:
                self.fail("kernels must not return a value")
            if last and not predicated:
                return []  # trailing bare return
            self.fail("early return outside a top-level guard")
        if isinstance(s, ast.Assign):
            return self.assign(s, predicated=predicated)
        if isinstance(s, ast.AugAssign):
            return [self.aug_assign(s, predicated=predicated)]
        if isinstance(s, ast.If):
            return self.if_stmt(s, top=top, predicated=predicated,
                                in_loop=in_loop)
        if isinstance(s, ast.For):
            return self.for_stmt(s, top=top, predicated=predicated)
        if isinstance(s, ast.Continue):
            self.fail("continue in a loop (lane-divergent skip of the "
                      "rest of the body)")
        if isinstance(s, ast.Break):
            self.fail("break below the loop-body top level (only `if "
                      "<cond>: ...; break` directly in a for body exits "
                      "lanes)")
        for cls, why in ((ast.While, "while loop"),
                         (ast.With, "with block"), (ast.Try, "try block"),
                         (ast.Raise, "raise"), (ast.Assert, "assert"),
                         (ast.AnnAssign, "annotated assignment"),
                         (ast.Delete, "del statement"),
                         (ast.FunctionDef, "nested function"),
                         (ast.ClassDef, "class definition")):
            if isinstance(s, cls):
                self.fail(f"{why} is not vectorizable")
        self.fail(f"unsupported statement {type(s).__name__}")

    def for_stmt(self, s: ast.For, *, top: bool, predicated: bool) -> list:
        """A ``for <name> in range(...)`` loop over a launch-invariant
        trip count.

        Every lane enters the same iterations (the trip count may only
        come from constants, kernel scalar arguments, module globals, or
        enclosing loop variables — all launch-invariant), so the loop
        unrolls at runtime into one batched body execution per
        iteration; a barrier yield inside the body becomes one array
        phase *per iteration*, which is exactly the interpreter's phase
        schedule.  A body with a break arm lowers through
        :meth:`exit_loop`; ``continue`` and a ``break`` anywhere else
        stay ineligible.
        """
        if predicated:
            self.fail("for loop inside a conditional (lane-divergent "
                      "trip count)")
        if s.orelse:
            self.fail("for/else is not vectorizable")
        if not isinstance(s.target, ast.Name):
            self.fail("loop target must be a plain name")
        it = s.iter
        if not (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                and it.func.id == "range" and not it.keywords
                and 1 <= len(it.args) <= 3):
            self.fail("only `for <name> in range(...)` loops have a "
                      "static trip count")
        for arg in it.args:
            for node in ast.walk(arg):
                if isinstance(node, ast.Name) and (
                        node.id == self.index or node.id in self.assigned):
                    self.fail(f"loop trip count depends on {node.id!r}, "
                              "which is not launch-invariant")
        rng = ast.Call(func=it.func, args=[self.expr(a) for a in it.args],
                       keywords=[])
        self.depth += 1
        if any(_is_break_arm(b) for b in s.body):
            out = self.exit_loop(s, rng, nested=self.depth > 1)
        else:
            body = self.block(s.body, top=top, predicated=False,
                              in_loop=True)
            out = [ast.For(target=s.target, iter=rng, body=body, orelse=[])]
        self.depth -= 1
        return out

    def exit_loop(self, s: ast.For, rng: ast.Call, *, nested: bool) -> list:
        """A loop whose body exits lanes through ``if <cond>: ...;
        break`` arms at its top level.

        Lowers to::

            with __lanes__.loop():          # restores the mask on exit
                for <target> in range(...):
                    <statements before the arm>
                    __vec_cN__ = <cond>
                    with __lanes__.where(__vec_cN__):
                        <arm stores; rebinds via __lanes__.merge>
                    if __lanes__.retire(__vec_cN__):  # no lane left
                        break
                    <statements after the arm>

        Exited lanes keep computing garbage for names nobody reads
        again; a name read after the loop is rebound as
        ``__lanes__.merge(new, old)`` so it freezes at the lane's exit
        value.  Inside another loop (``nested``) so is every name the
        body may read before binding it: the next pass of the enclosing
        loop starts with every lane live again and reads that value.  A
        merge needs a value before the loop, and loop variables (whose
        exit value differs per lane) must not be read after it.
        """
        for node in ast.walk(s):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                self.fail("barrier inside a loop with break (exited lanes "
                          "would skip it)")
            if isinstance(node, ast.Return):
                self.fail("return inside a loop with break")
        inside = _name_loads([s])
        live = {name for name, n in self.loads.items()
                if n > inside.get(name, 0)}
        if nested:
            live |= _read_before_bound(s.body, {s.target.id})
        for node in ast.walk(s):
            if (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
                    and node.target.id in live):
                self.fail(f"loop variable {node.target.id!r} is read after "
                          "a loop with break (its exit value differs per "
                          "lane)")
        frame = _ExitLoop(live, self.assigned | self.params)
        self.exits.append(frame)
        body = []
        for b in s.body:
            if not _is_break_arm(b):
                body.extend(self.stmt(b, top=False, predicated=False,
                                      last=False, in_loop=True))
                continue
            cond = self._tmp("c")
            body.append(ast.Assign(
                targets=[ast.Name(cond, ctx=ast.Store())],
                value=self.expr(b.test)))
            arm = []
            frame.arm = True
            for a in b.body[:-1]:
                if not isinstance(a, (ast.Assign, ast.AugAssign)):
                    self.fail("a break arm may only store to arrays and "
                              "rebind names bound before the loop")
                arm.extend(self.stmt(a, top=False, predicated=False,
                                     last=False))
            frame.arm = False
            if arm:
                body.append(ast.With(
                    items=[ast.withitem(context_expr=_lanes_call(
                        "where", [ast.Name(cond, ctx=ast.Load())]))],
                    body=arm))
            body.append(ast.If(
                test=_lanes_call("retire", [ast.Name(cond, ctx=ast.Load())]),
                body=[ast.Break()], orelse=[]))
        self.exits.pop()
        loop = ast.For(target=s.target, iter=rng, body=body, orelse=[])
        return [ast.With(items=[ast.withitem(
            context_expr=_lanes_call("loop", []))], body=[loop])]

    def _merges(self, name: str) -> bool:
        """Whether a rebind of ``name`` must keep exited lanes' values."""
        if not self.exits:
            return False
        frame = self.exits[-1]
        if not (frame.arm or name in frame.live):
            return False
        if name not in frame.bound:
            self.fail(f"{name!r} is rebound in a loop with break but not "
                      "bound before it (exited lanes have no value to "
                      "keep)")
        return True

    @staticmethod
    def _merge(name: str, value) -> ast.Call:
        return _lanes_call("merge", [value, ast.Name(name, ctx=ast.Load())])

    def if_stmt(self, s: ast.If, *, top: bool, predicated: bool,
                in_loop: bool = False) -> list:
        guard = (len(s.body) == 1 and isinstance(s.body[0], ast.Return)
                 and s.body[0].value is None and not s.orelse)
        if guard:
            if not top or predicated:
                self.fail("guard return below the kernel top level")
            if self.is_gen:
                self.fail("guard return in a barrier kernel (lanes would "
                          "diverge at the barrier)")
            return [ast.Expr(_lanes_call("refine", [self.expr(s.test)]))]
        # Predicated conditional: the condition is evaluated exactly once
        # (body stores may mutate its operands), then each arm runs with
        # the lane mask narrowed — a select-style conditional.
        cond_name = self._tmp("c")
        out = [ast.Assign(targets=[ast.Name(cond_name, ctx=ast.Store())],
                          value=self.expr(s.test))]
        body = self.block(s.body, top=False, predicated=True)
        out.append(ast.With(
            items=[ast.withitem(context_expr=_lanes_call(
                "where", [ast.Name(cond_name, ctx=ast.Load())]))],
            body=body))
        if s.orelse:
            orelse = self.block(s.orelse, top=False, predicated=True)
            out.append(ast.With(
                items=[ast.withitem(context_expr=_lanes_call(
                    "where_not", [ast.Name(cond_name, ctx=ast.Load())]))],
                body=orelse))
        return out

    def yield_stmt(self, s: ast.Expr, *, top: bool, predicated: bool):
        if not top or predicated:
            self.fail("barrier inside a conditional (divergent)")
        value = s.value.value
        if value is None:
            self.fail("bare yield; barrier kernels yield "
                      "item.barrier(...)")
        if not (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and isinstance(value.func.value, ast.Name)
                and value.func.value.id == self.index
                and value.func.attr == "barrier"):
            self.fail("only `yield <index>.barrier(...)` is batchable")
        for arg in list(value.args) + [kw.value for kw in value.keywords]:
            if not isinstance(arg, (ast.Name, ast.Attribute, ast.Constant)):
                self.fail("barrier argument must be a fence-space constant")
        return s  # kept verbatim: one yield = one array phase

    def assign(self, s: ast.Assign, *, predicated: bool) -> list:
        if len(s.targets) != 1:
            self.fail("chained assignment")
        merges = []
        orig = s.targets[0]
        target = self.store_target(orig, predicated, merges)
        value = self.expr(s.value)
        if merges and isinstance(orig, ast.Name):
            return [ast.Assign(targets=[orig],
                               value=self._merge(orig.id, value))]
        # tuple targets unpack into temps, then merge one by one
        return [ast.Assign(targets=[target], value=value)] + [
            ast.Assign(targets=[ast.Name(name, ctx=ast.Store())],
                       value=self._merge(name, ast.Name(tmp, ctx=ast.Load())))
            for name, tmp in merges]

    def store_target(self, t, predicated: bool, merges: list):
        if isinstance(t, ast.Name):
            if predicated:
                self.fail(f"assignment to name {t.id!r} inside a "
                          "conditional (lane-divergent binding)")
            self.assigned.add(t.id)
            if self._merges(t.id):
                tmp = self._tmp("t")
                merges.append((t.id, tmp))
                return ast.Name(tmp, ctx=ast.Store())
            return t
        if isinstance(t, ast.Subscript):
            return ast.Subscript(value=self.expr(t.value),
                                 slice=self.subscript_key(t.slice),
                                 ctx=ast.Store())
        if isinstance(t, ast.Tuple):
            return ast.Tuple(
                elts=[self.store_target(e, predicated, merges)
                      for e in t.elts],
                ctx=ast.Store())
        self.fail(f"unsupported assignment target {type(t).__name__}")

    def aug_assign(self, s: ast.AugAssign, *, predicated: bool):
        if isinstance(s.target, ast.Name):
            if predicated:
                self.fail(f"augmented assignment to name {s.target.id!r} "
                          "inside a conditional")
            self.assigned.add(s.target.id)
            if self._merges(s.target.id):
                name = s.target.id
                new = ast.BinOp(left=ast.Name(name, ctx=ast.Load()),
                                op=s.op, right=self.expr(s.value))
                return ast.Assign(targets=[ast.Name(name, ctx=ast.Store())],
                                  value=self._merge(name, new))
            target = s.target
        elif isinstance(s.target, ast.Subscript):
            target = ast.Subscript(value=self.expr(s.target.value),
                                   slice=self.subscript_key(s.target.slice),
                                   ctx=ast.Store())
        else:
            self.fail("unsupported augmented-assignment target")
        return ast.AugAssign(target=target, op=s.op, value=self.expr(s.value))

    # -- expressions -------------------------------------------------------

    def expr(self, e):
        if isinstance(e, (ast.Constant, ast.Name)):
            return e
        if isinstance(e, ast.BinOp):
            return ast.BinOp(left=self.expr(e.left), op=e.op,
                             right=self.expr(e.right))
        if isinstance(e, ast.UnaryOp):
            if isinstance(e.op, ast.Not):
                return _np_call("logical_not", [self.expr(e.operand)])
            return ast.UnaryOp(op=e.op, operand=self.expr(e.operand))
        if isinstance(e, ast.BoolOp):
            fn = "logical_and" if isinstance(e.op, ast.And) else "logical_or"
            node = self.expr(e.values[0])
            for v in e.values[1:]:
                node = _np_call(fn, [node, self.expr(v)])
            return node
        if isinstance(e, ast.Compare):
            return self.compare(e)
        if isinstance(e, ast.IfExp):
            return _np_call("where", [self.expr(e.test), self.expr(e.body),
                                      self.expr(e.orelse)])
        if isinstance(e, ast.Subscript):
            return ast.Subscript(value=self.expr(e.value),
                                 slice=self.subscript_key(e.slice),
                                 ctx=ast.Load())
        if isinstance(e, ast.Attribute):
            return self.attribute(e)
        if isinstance(e, ast.Call):
            return self.call(e)
        if isinstance(e, ast.Tuple):
            return ast.Tuple(elts=[self.expr(x) for x in e.elts],
                             ctx=ast.Load())
        self.fail(f"unsupported expression {type(e).__name__}")

    def compare(self, e: ast.Compare):
        for op in e.ops:
            if not isinstance(op, _CMP_OK):
                self.fail(f"comparison {type(op).__name__} is not batchable")
        if len(e.comparators) == 1:
            return ast.Compare(left=self.expr(e.left), ops=e.ops,
                               comparators=[self.expr(e.comparators[0])])
        # a < b < c  ->  logical_and(a < b, b < c); the shared middle
        # operand is deep-copied so the tree stays a tree
        operands = [self.expr(x) for x in [e.left, *e.comparators]]
        node = None
        for i, op in enumerate(e.ops):
            left = operands[i] if i == 0 else _copy.deepcopy(operands[i])
            pair = ast.Compare(left=left, ops=[op],
                               comparators=[operands[i + 1]])
            node = pair if node is None else _np_call("logical_and",
                                                      [node, pair])
        return node

    def subscript_key(self, k):
        if isinstance(k, ast.Tuple):
            return ast.Tuple(elts=[self.key_elt(e) for e in k.elts],
                             ctx=ast.Load())
        return self.key_elt(k)

    def key_elt(self, e):
        if isinstance(e, ast.Slice):
            for bound in (e.lower, e.upper, e.step):
                if bound is not None and not self._const_like(bound):
                    self.fail("slice with non-constant bounds (work-group "
                              "tiles index with scalar group ids)")
            return e
        return self.expr(e)

    @staticmethod
    def _const_like(e) -> bool:
        if isinstance(e, ast.Constant):
            return True
        return (isinstance(e, ast.UnaryOp) and isinstance(e.op, ast.USub)
                and isinstance(e.operand, ast.Constant))

    def attribute(self, e: ast.Attribute):
        root = e
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(root, ast.Name):
            return e  # pure name-rooted chain, e.g. np.float32
        if isinstance(root, ast.Call):
            # e.g. np.iinfo(np.int32).max — validate the inner call
            return ast.Attribute(value=self.expr(e.value), attr=e.attr,
                                 ctx=ast.Load())
        self.fail(f"attribute access on {type(root).__name__}")

    def call(self, e: ast.Call):
        for a in e.args:
            if isinstance(a, ast.Starred):
                self.fail("*args in a call")
        func = e.func
        if isinstance(func, ast.Name):
            if e.keywords:
                self.fail(f"keyword arguments to {func.id}()")
            if func.id == "abs":
                return ast.Call(func=func,
                                args=[self.expr(a) for a in e.args],
                                keywords=[])
            if func.id in ("min", "max"):
                # min(a, b, ...) lowers to nested np.minimum/np.maximum;
                # the one-argument (iterable) form has no array shape
                if len(e.args) < 2:
                    self.fail(f"builtin {func.id}() over an iterable is "
                              "scalar-only; pass two or more operands")
                fn = "minimum" if func.id == "min" else "maximum"
                node = self.expr(e.args[0])
                for a in e.args[1:]:
                    node = _np_call(fn, [node, self.expr(a)])
                return node
            if func.id == "float":
                # float(x) promotes to IEEE double exactly like the
                # interpreter's Python float does
                if len(e.args) != 1:
                    self.fail("float() takes exactly one argument")
                return _np_call("float64", [self.expr(e.args[0])])
            if func.id in _SCALAR_BUILTINS:
                self.fail(f"builtin {func.id}() is scalar-only")
            self.fail(f"call to {func.id}() (only numpy and the index API "
                      "are batchable)")
        if not isinstance(func, ast.Attribute):
            self.fail("unsupported call form")
        root = func.value
        while isinstance(root, ast.Attribute):
            root = root.value
        if not isinstance(root, ast.Name):
            self.fail("method call on a computed object")
        if root.id == self.index:
            if func.value is not root:
                self.fail("chained index-object access")
            if func.attr not in _INDEX_METHODS:
                self.fail(f"index method {func.attr}() is not batchable")
            if e.keywords:
                self.fail(f"keyword arguments to {func.attr}()")
            return ast.Call(func=func, args=[self.expr(a) for a in e.args],
                            keywords=[])
        if root.id in self.params:
            self.fail(f"method call on kernel argument {root.id!r}")
        target = self.glb.get(root.id)
        if isinstance(target, types.ModuleType):
            modname = getattr(target, "__name__", "")
            if modname == "numpy" or modname.startswith("numpy."):
                return ast.Call(
                    func=func, args=[self.expr(a) for a in e.args],
                    keywords=[ast.keyword(arg=kw.arg,
                                          value=self.expr(kw.value))
                              for kw in e.keywords])
            if modname == "math" or modname.startswith("math."):
                np_name = _MATH_TO_NP.get(func.attr)
                if np_name is None or func.value is not root:
                    self.fail(f"math.{func.attr}() has no numpy lowering")
                if e.keywords:
                    self.fail(f"keyword arguments to math.{func.attr}()")
                return _np_call(np_name,
                                [self.expr(a) for a in e.args])
            self.fail(f"call into module {modname!r}")
        self.fail(f"call to {ast.unparse(func)}() is not batchable")


def _translate(fn) -> tuple:
    if getattr(fn, "__closure__", None):
        raise _Ineligible("kernel closes over free variables")
    try:
        src = inspect.getsource(fn)
    except (OSError, TypeError) as exc:
        raise _Ineligible(f"source unavailable ({exc})")
    try:
        tree = ast.parse(textwrap.dedent(src))
    except SyntaxError as exc:
        raise _Ineligible(f"source does not parse standalone ({exc})")
    if not tree.body or not isinstance(tree.body[0], ast.FunctionDef):
        raise _Ineligible("not a plain function definition")
    fdef = tree.body[0]
    if fdef.decorator_list:
        raise _Ineligible("decorated kernels are not traceable")
    a = fdef.args
    if (a.vararg or a.kwarg or a.kwonlyargs or a.defaults or a.kw_defaults
            or a.posonlyargs):
        raise _Ineligible("only plain positional parameters are supported")
    params = [arg.arg for arg in a.args]
    if not params:
        raise _Ineligible("kernel takes no index argument")
    glb = dict(fn.__globals__)
    glb["__vec_np__"] = np
    is_gen = inspect.isgeneratorfunction(fn)
    rewriter = _Rewriter(params[0], glb, is_gen, set(params), fdef.body)
    body = rewriter.block(fdef.body, top=True, predicated=False)
    new_name = fdef.name + "__batched"
    new_def = ast.FunctionDef(
        name=new_name,
        args=ast.arguments(
            posonlyargs=[],
            args=[ast.arg(arg="__lanes__")] + [ast.arg(arg=p)
                                               for p in params],
            vararg=None, kwonlyargs=[], kw_defaults=[], kwarg=None,
            defaults=[]),
        body=body, decorator_list=[], returns=None)
    module = ast.Module(body=[new_def], type_ignores=[])
    ast.fix_missing_locations(module)
    code = compile(module, f"<vectorize:{fn.__module__}.{fn.__qualname__}>",
                   "exec")
    exec(code, glb)
    return glb[new_name], None


@lru_cache(maxsize=256)
def translate(fn) -> tuple:
    """Lift one kernel function into its batched form.

    Returns ``(batched_fn, None)`` on success or ``(None, reason)`` when
    the source falls outside the batchable dialect.  Memoized per
    function object — translation happens once per kernel per process.
    """
    try:
        return _translate(fn)
    except _Ineligible as exc:
        return None, str(exc)


# ---------------------------------------------------------------------------
# Lane runtime
# ---------------------------------------------------------------------------

_BOOL = np.dtype(bool)


class _LaneCtx:
    """The live-lane mask of one batched launch.

    ``mask is None`` means every lane is live (the fast path — no
    boolean array is ever materialized for unguarded kernels).
    ``refine`` retires the lanes a top-level guard returned for,
    ``retire`` the lanes a break arm took out of a ``loop``; ``where``
    / ``where_not`` narrow the mask for one predicated region.
    ``loop`` / ``where`` / ``where_not`` are used as ``with`` and
    restore the mask they found on exit (a plain-class context
    manager: these run once per loop iteration, where a generator-based
    one would cost more than the masking itself).
    """

    __slots__ = ("n", "mask", "_saved")

    def __init__(self, n: int):
        self.n = n
        self.mask = None
        self._saved = []

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        self.mask = self._saved.pop()
        return False

    def _as_lanes(self, cond) -> np.ndarray:
        """``cond`` as an ``(n,)`` bool array (lane conditions — the
        common case inside loops — pass through without a broadcast)."""
        if (isinstance(cond, np.ndarray) and cond.dtype is _BOOL
                and cond.shape == (self.n,)):
            return cond
        return np.broadcast_to(np.asarray(cond, dtype=bool), (self.n,))

    def refine(self, cond) -> None:
        keep = np.logical_not(self._as_lanes(cond))
        self.mask = (keep if self.mask is None
                     else np.logical_and(self.mask, keep))

    def loop(self) -> "_LaneCtx":
        """Scope of a loop with break arms: lanes retired by ``refine``
        inside it are live again after it."""
        self._saved.append(self.mask)
        return self

    def retire(self, cond) -> bool:
        """Retire the lanes leaving a loop; True once none is left."""
        self.refine(cond)
        return not np.count_nonzero(self.mask)

    def merge(self, new, old):
        """``new`` on live lanes, ``old`` on retired ones."""
        return new if self.mask is None else np.where(self.mask, new, old)

    def where(self, cond) -> "_LaneCtx":
        return self._narrow(self._as_lanes(cond))

    def where_not(self, cond) -> "_LaneCtx":
        return self._narrow(np.logical_not(self._as_lanes(cond)))

    def _narrow(self, cond: np.ndarray) -> "_LaneCtx":
        saved = self.mask
        self._saved.append(saved)
        self.mask = (cond.copy() if saved is None
                     else np.logical_and(saved, cond))
        return self


class _BatchArray:
    """A per-launch ndarray wrapper that gathers/scatters under the mask.

    Loads neutralize dead-lane index components to 0 (always in
    bounds); stores compress lane-shaped keys and values down to the
    live lanes.  An all-scalar store from a lane-shaped value keeps the
    interpreter's last-writer-wins order because lanes are laid out in
    exact interpreter iteration order.
    """

    __slots__ = ("_arr", "_ctx")

    def __init__(self, arr: np.ndarray, ctx: _LaneCtx):
        self._arr = arr
        self._ctx = ctx

    def _is_lane(self, c) -> bool:
        return isinstance(c, np.ndarray) and c.ndim >= 1 \
            and c.shape[0] == self._ctx.n

    def __getitem__(self, key):
        mask = self._ctx.mask
        if mask is None:
            return self._arr[key]
        def fix(c):
            if isinstance(c, np.ndarray) and c.shape == (self._ctx.n,):
                return np.where(mask, c, 0)
            return c
        if isinstance(key, tuple):
            return self._arr[tuple(fix(c) for c in key)]
        return self._arr[fix(key)]

    def __setitem__(self, key, value) -> None:
        ctx = self._ctx
        mask = ctx.mask
        comps = key if isinstance(key, tuple) else (key,)
        lane_key = any(isinstance(c, np.ndarray) and c.shape == (ctx.n,)
                       for c in comps)
        lane_val = self._is_lane(value)
        if mask is None:
            if lane_key or not lane_val:
                self._arr[key] = value
            else:
                self._arr[key] = value[-1]  # last lane wins
            return
        if not mask.any():
            return
        if lane_key:
            def fix(c):
                if isinstance(c, np.ndarray) and c.shape == (ctx.n,):
                    return c[mask]
                return c
            new_key = tuple(fix(c) for c in comps)
            if not isinstance(key, tuple):
                new_key = new_key[0]
            self._arr[new_key] = value[mask] if lane_val else value
        else:
            self._arr[key] = value[mask][-1] if lane_val else value


class _BatchLocal:
    """Per-group shadow of one :class:`LocalAccessor` tile.

    The interpreter gives each work-group its own zeroed tile
    (``_begin_group``); the batched program mirrors that with one
    ``(num_groups, *tile_shape)`` shadow array and prepends every
    lane's group-linear id to every subscript — lane ``l`` can only
    ever see its own group's slice, so barrier-phase tile traffic
    keeps exact work-group locality.
    """

    __slots__ = ("_batch", "_groups")

    def __init__(self, acc: LocalAccessor, ctx: _LaneCtx,
                 group_linear: np.ndarray, num_groups: int):
        shadow = np.zeros((num_groups,) + tuple(acc.shape),
                          dtype=acc.dtype)
        self._batch = _BatchArray(shadow, ctx)
        self._groups = group_linear

    def _key(self, key) -> tuple:
        comps = key if isinstance(key, tuple) else (key,)
        return (self._groups,) + tuple(comps)

    def __getitem__(self, key):
        return self._batch[self._key(key)]

    def __setitem__(self, key, value) -> None:
        self._batch[self._key(key)] = value


def _linear(mat: np.ndarray, extents) -> np.ndarray:
    idx = np.zeros(len(mat), dtype=np.intp)
    for d, e in enumerate(extents):
        idx = idx * e + mat[:, d]
    return idx


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=128)
def _item_lanes(global_dims: tuple, local_dims: tuple) -> dict:
    """Per-lane id arrays in exact interpreter iteration order."""
    glob_rows, loc_rows, grp_rows = [], [], []
    for gid, coords in _nd_lattice(global_dims, local_dims):
        for glob, lid in coords:
            glob_rows.append(glob)
            loc_rows.append(lid)
            grp_rows.append(gid)
    glob = np.array(glob_rows, dtype=np.intp)
    loc = np.array(loc_rows, dtype=np.intp)
    grp = np.array(grp_rows, dtype=np.intp)
    group_extents = tuple(g // l for g, l in zip(global_dims, local_dims))
    ndim = len(global_dims)
    return {
        "n": len(glob_rows),
        "global": tuple(_freeze(glob[:, d]) for d in range(ndim)),
        "local": tuple(_freeze(loc[:, d]) for d in range(ndim)),
        "group": tuple(_freeze(grp[:, d]) for d in range(ndim)),
        "global_linear": _freeze(_linear(glob, global_dims)),
        "local_linear": _freeze(_linear(loc, local_dims)),
        "group_linear": _freeze(_linear(grp, group_extents)),
    }


@lru_cache(maxsize=128)
def _group_lanes(group_extents: tuple) -> dict:
    """One lane per work-group, row-major (interpreter group order)."""
    grid = np.array(_point_grid(group_extents), dtype=np.intp)
    ndim = len(group_extents)
    return {
        "n": len(grid),
        "group": tuple(_freeze(grid[:, d]) for d in range(ndim)),
        "group_linear": _freeze(_linear(grid, group_extents)),
    }


class _BatchItem:
    """The ``nd_item`` proxy: accessors return per-lane index arrays."""

    __slots__ = ("_lanes", "_nd_range", "_group_range")

    def __init__(self, lanes: dict, nd_range: NdRange):
        self._lanes = lanes
        self._nd_range = nd_range
        self._group_range = nd_range.group_range()

    def get_global_id(self, i=None):
        if i is None:
            raise VectorizeFallback("get_global_id() without a dimension "
                                    "is not batchable")
        return self._lanes["global"][i]

    def get_local_id(self, i=None):
        if i is None:
            raise VectorizeFallback("get_local_id() without a dimension "
                                    "is not batchable")
        return self._lanes["local"][i]

    def get_group(self, i=None):
        if i is None:
            raise VectorizeFallback("get_group() without a dimension "
                                    "is not batchable")
        return self._lanes["group"][i]

    def get_global_linear_id(self):
        return self._lanes["global_linear"]

    def get_local_linear_id(self):
        return self._lanes["local_linear"]

    def get_global_range(self, i=None):
        rng = self._nd_range.global_range
        return rng if i is None else rng[i]

    def get_local_range(self, i=None):
        rng = self._nd_range.local_range
        return rng if i is None else rng[i]

    def get_group_range(self, i=None):
        return self._group_range if i is None else self._group_range[i]

    def barrier(self, fence_space: FenceSpace = FenceSpace.GLOBAL_AND_LOCAL
                ) -> BarrierToken:
        return BarrierToken(fence_space)


class _BatchGroup:
    """The ``group`` proxy: one lane per work-group."""

    __slots__ = ("_lanes", "_nd_range")

    def __init__(self, lanes: dict, nd_range: NdRange):
        self._lanes = lanes
        self._nd_range = nd_range

    def get_group_id(self, i=None):
        if i is None:
            raise VectorizeFallback("get_group_id() without a dimension "
                                    "is not batchable")
        return self._lanes["group"][i]

    def get_group_linear_id(self):
        return self._lanes["group_linear"]

    def get_local_range(self, i=None):
        rng = self._nd_range.local_range
        return rng if i is None else rng[i]

    def barrier(self, fence_space: FenceSpace = FenceSpace.GLOBAL_AND_LOCAL
                ) -> BarrierToken:
        return BarrierToken(fence_space)


# ---------------------------------------------------------------------------
# The compiled kernel object (held by LaunchPlan)
# ---------------------------------------------------------------------------

_SCALAR_ARGS = (int, float, complex, bool, str, bytes, np.generic)


class CompiledKernel:
    """One kernel's batched program, bound to one launch shape.

    ``validated`` starts False: the plan's first compiled launch runs
    :meth:`shadow_run` on buffer copies and promotes only on a bitwise
    match with the interpreter (see :mod:`repro.sycl.plan`).
    ``fallback_path`` is the interpreter form the program was compiled
    from — the path validation compares against and demotion returns to.
    """

    __slots__ = ("kernel_name", "form", "fn", "is_generator", "nd_range",
                 "n", "proxy", "fallback_path", "validated",
                 "group_linear", "num_groups")

    def __init__(self, kernel_name: str, form: str, fn, is_generator: bool,
                 nd_range: NdRange):
        self.kernel_name = kernel_name
        self.form = form
        self.fn = fn
        self.is_generator = is_generator
        self.nd_range = nd_range
        if form == "item":
            lanes = _item_lanes(nd_range.global_range.dims,
                                nd_range.local_range.dims)
            self.proxy = _BatchItem(lanes, nd_range)
            self.num_groups = int(np.prod(nd_range.group_range().dims))
        else:
            lanes = _group_lanes(nd_range.group_range().dims)
            self.proxy = _BatchGroup(lanes, nd_range)
            self.num_groups = lanes["n"]
        self.n = lanes["n"]
        self.group_linear = lanes["group_linear"]
        self.fallback_path = form
        self.validated = False

    def __repr__(self) -> str:
        return (f"CompiledKernel({self.kernel_name!r}, form={self.form!r}, "
                f"lanes={self.n}, validated={self.validated})")

    def bind(self, args: tuple) -> tuple:
        """Wrap launch arguments for the batched program.

        Raises :class:`VectorizeFallback` — before anything executes —
        for argument types the batched runtime cannot represent.
        ``LocalAccessor`` tiles get a fresh per-group shadow array
        (:class:`_BatchLocal`) per bind, mirroring the interpreter's
        zeroed per-group tile.
        """
        ctx = _LaneCtx(self.n)
        wrapped = []
        for a in args:
            if isinstance(a, np.ndarray):
                wrapped.append(_BatchArray(a, ctx))
            elif isinstance(a, LocalAccessor):
                wrapped.append(_BatchLocal(a, ctx, self.group_linear,
                                           self.num_groups))
            elif a is None or isinstance(a, _SCALAR_ARGS):
                wrapped.append(a)
            else:
                raise VectorizeFallback(
                    f"unsupported argument type {type(a).__name__}")
        return ctx, tuple(wrapped)

    def run(self, bound: tuple, tracer=None) -> int:
        """Execute the batched program; returns the barrier-phase count.

        Dead lanes may evaluate garbage operands (their stores are
        masked off), so numpy's floating-point warnings are suppressed
        for the duration — results are unaffected.
        """
        ctx, wrapped = bound
        with np.errstate(all="ignore"):
            if not self.is_generator:
                self.fn(ctx, self.proxy, *wrapped)
                return 0
            gen = self.fn(ctx, self.proxy, *wrapped)
            phases = 0
            while True:
                start = tracer.now_us() if tracer is not None else 0.0
                try:
                    token = next(gen)
                except StopIteration:
                    break
                if not isinstance(token, BarrierToken):
                    raise VectorizeFallback(
                        f"kernel {self.kernel_name!r} yielded {token!r}")
                if tracer is not None:
                    tracer.complete(
                        f"{self.kernel_name}:barrier-phase", "barrier-phase",
                        start, tracer.now_us() - start, phase=phases,
                        batched=True)
                phases += 1
            return phases

    def execute(self, args: tuple, tracer=None) -> int:
        """Bind and run on the real buffers (validated plans only)."""
        return self.run(self.bind(args), tracer)

    def shadow_run(self, args: tuple) -> tuple:
        """Run the batched program on *copies* of the buffers.

        Returns the copies for :meth:`buffers_match`; the real buffers
        are untouched no matter what the program does.
        """
        copies = tuple(a.copy() if isinstance(a, np.ndarray) else a
                       for a in args)
        self.execute(copies)
        return copies

    @staticmethod
    def buffers_match(shadow_args: tuple, real_args: tuple) -> bool:
        """Bitwise comparison of every ndarray argument."""
        for shadow, real in zip(shadow_args, real_args):
            if isinstance(real, np.ndarray):
                if shadow.tobytes() != real.tobytes():
                    return False
        return True


def eligible_form(kernel: KernelSpec) -> tuple:
    """Whether a kernel's *reference form* is batchable.

    Returns ``("item" | "group", None)`` or ``(None, reason)``.  Only
    the strictest available interpreter form is considered (``item_fn``
    when present, else ``group_fn``): validation and fallback must
    target one specific interpreter path, and that path must be the
    same one a vectorize-disabled run would take, so on/off runs stay
    byte-identical by construction.
    """
    if kernel.kind != KernelKind.ND_RANGE:
        return None, "not an nd-range kernel"
    if kernel.feature("no_vectorize"):
        return None, "kernel opted out (no_vectorize feature)"
    if kernel.item_fn is not None:
        batched, reason = translate(kernel.item_fn)
        return ("item", None) if batched is not None \
            else (None, f"item_fn: {reason}")
    if kernel.group_fn is not None:
        batched, reason = translate(kernel.group_fn)
        return ("group", None) if batched is not None \
            else (None, f"group_fn: {reason}")
    return None, "no item_fn or group_fn"


def compile_batched(kernel: KernelSpec, nd_range: NdRange) -> tuple:
    """Compile one kernel's batched program for one launch shape.

    Returns ``(CompiledKernel, None)`` or ``(None, reason)``.  The
    translation itself is memoized per function; only the (cheap) lane
    arrays are per-shape — and those are lru-cached too.
    """
    form, reason = eligible_form(kernel)
    if form is None:
        return None, reason
    fn = kernel.item_fn if form == "item" else kernel.group_fn
    batched, reason = translate(fn)
    if batched is None:
        return None, reason
    return CompiledKernel(kernel.name, form, batched,
                          inspect.isgeneratorfunction(fn), nd_range), None


def vectorize_cache_info() -> dict:
    """lru_cache statistics of the translation and lane-array caches."""
    return {
        "translate": translate.cache_info(),
        "item_lanes": _item_lanes.cache_info(),
        "group_lanes": _group_lanes.cache_info(),
    }


def clear_vectorize_caches() -> None:
    translate.cache_clear()
    _item_lanes.cache_clear()
    _group_lanes.cache_clear()
