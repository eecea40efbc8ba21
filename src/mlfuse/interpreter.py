"""Baseline runtime: execute a model bundle directly, phase by phase.

The interpreter is the reference deployment. It keeps the parsed model
representation in memory, resolves each operator to a computing unit, reads
unknown unit settings from the table shipped with the kernels, and executes
the plan in topological order.

Configure also runs every kernel's prepare step once, binding its views of
the plan's buffers and allocating its scratch; invoke then only calls each
kernel's run step on that state.

Memory accounting covers plan-managed allocations only: the serialized graph
text and weight arrays at load, tensor buffers and weight reorder copies at
configure. Kernel scratch, whether prepared at configure or temporary in a
run, and the output copies handed back by invoke are not tracked. A plan
owns its buffers and scratch, so concurrent invoke calls on one plan are not
supported.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from . import graphir
from .graphir import GraphError, ModelBundle
from .kernels import (
    DeviceInfo,
    ParamError,
    PrepareError,
    RegistryError,
    StatusError,
    check_unit_params,
    default_registry,
    layout_weight_arrays,
    validate_status,
)
from .kernels.live_status import hidden_status_for


class InterpreterError(Exception):
    pass


_PHASES = ("load", "configure", "invoke")


class PhaseTracker:
    """Thread-safe allocation counter tagged by deployment phase."""

    def __init__(self):
        self._lock = threading.Lock()
        self._phase = "load"
        self.totals = {p: 0 for p in _PHASES}
        self.live = 0
        self.peak = 0

    def set_phase(self, phase: str) -> None:
        if phase not in _PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        with self._lock:
            self._phase = phase

    def alloc(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("negative allocation")
        with self._lock:
            self.totals[self._phase] += nbytes
            self.live += nbytes
            if self.live > self.peak:
                self.peak = self.live


@dataclass(frozen=True)
class PhaseCounters:
    load_bytes: int
    configure_bytes: int
    invoke_bytes: int
    peak_bytes: int


@dataclass
class PlanStep:
    op_index: int
    kind: str
    unit: object
    params: object
    status: dict
    state: tuple  # the unit's prepared state: invoke calls unit.fn(*state)


@dataclass
class ExecutablePlan:
    graph: graphir.ComputationalGraph
    device: DeviceInfo
    steps: list[PlanStep]
    buffers: dict[int, np.ndarray]
    input_ids: tuple[int, ...]
    output_ids: tuple[int, ...]
    tracker: PhaseTracker
    invocations: int = 0
    shapes: dict = field(default_factory=dict)


def load(bundle: ModelBundle, device: DeviceInfo | None = None,
         registry=None) -> ExecutablePlan:
    """Build an executable plan: load weights, then configure every unit."""
    device = device or DeviceInfo()
    registry = registry or default_registry()
    tracker = PhaseTracker()

    tracker.set_phase("load")
    problems = graphir.validate(bundle, custom_rules=registry.custom_shape_rules())
    if problems:
        raise GraphError("invalid bundle: " + "; ".join(problems))
    graph = bundle.graph
    graph_text = graphir.graph_to_json(graph)
    tracker.alloc(len(graph_text.encode("utf-8")))
    canonical: dict[int, np.ndarray] = {}
    for key in sorted(bundle.weights.entries):
        arr = bundle.weights.as_array(key)
        canonical[key] = arr
        tracker.alloc(arr.nbytes)

    shapes = graphir.infer_shapes(graph, custom_rules=registry.custom_shape_rules())
    weight_ids = {t.id: t.weight_ref for t in graph.tensors
                  if t.weight_ref is not None}

    tracker.set_phase("configure")
    buffers: dict[int, np.ndarray] = {}
    for t in graph.tensors:
        if t.id in weight_ids:
            continue
        count = 1
        for d in shapes[t.id]:
            count *= d
        buf = np.empty(count, dtype=t.dtype.np_dtype)
        buffers[t.id] = buf
        tracker.alloc(buf.nbytes)

    steps: list[PlanStep] = []
    for i, node in enumerate(graph.operators):
        try:
            dtype = graph.tensors[node.inputs[0]].dtype
            unit = registry.lookup(node.op_id, dtype, device)
            params = registry.map_options_to_params(node, shapes,
                                                    weight_ids=weight_ids)
            if unit.key.variant == "tiled":
                params.values["threads"] = device.threads
            check_unit_params(unit, params)
            computed = registry.prepare(
                unit, params, [shapes[t] for t in node.inputs])
            declared = [shapes[t] for t in node.outputs]
            if [tuple(s) for s in computed] != [tuple(s) for s in declared]:
                raise PrepareError(f"unit shapes {computed} contradict graph "
                                   f"shapes {declared}")
            status = hidden_status_for(unit.key)
            arg_kwargs = validate_status(unit, params, status)
            arrays = [canonical[weight_ids[t]] for t in node.inputs
                      if t in weight_ids]
            flats, copied = layout_weight_arrays(params, status, arrays)
            tracker.alloc(copied)
            act_ids = [t for t in node.inputs if t not in weight_ids]
            if not act_ids:
                raise ParamError("every operator needs at least one "
                                 "non-constant input")
            state = unit.prep([buffers[t] for t in act_ids], flats,
                              [buffers[t] for t in node.outputs],
                              **{**params.values, **arg_kwargs})
            steps.append(PlanStep(
                op_index=i, kind=params.op_kind, unit=unit, params=params,
                status=status, state=state))
        except (RegistryError, ParamError, PrepareError, StatusError,
                GraphError) as e:
            raise type(e)(f"operator {i}: {e}") from None

    return ExecutablePlan(
        graph=graph, device=device, steps=steps, buffers=buffers,
        input_ids=tuple(graph.inputs), output_ids=tuple(graph.outputs),
        tracker=tracker, shapes=shapes)


def invoke(plan: ExecutablePlan, inputs) -> list[np.ndarray]:
    """Run one inference; returns fresh copies of the graph output tensors."""
    if isinstance(inputs, np.ndarray):
        inputs = [inputs]
    if len(inputs) != len(plan.input_ids):
        raise InterpreterError(f"expected {len(plan.input_ids)} input(s), "
                               f"got {len(inputs)}")
    plan.tracker.set_phase("invoke")
    for tid, arr in zip(plan.input_ids, inputs):
        buf = plan.buffers[tid]
        arr = np.asarray(arr)
        if arr.size != buf.size or arr.dtype != buf.dtype:
            raise InterpreterError(
                f"input tensor {tid}: got {arr.dtype} x{arr.size}, "
                f"expected {buf.dtype} x{buf.size}")
        np.copyto(buf, np.ascontiguousarray(arr).reshape(-1))
    for step in plan.steps:
        try:
            step.unit.fn(*step.state)
        except Exception as e:
            raise InterpreterError(
                f"operator {step.op_index} ({step.kind}) failed: {e}") from e
    plan.invocations += 1
    out = []
    for tid in plan.output_ids:
        out.append(plan.buffers[tid].reshape(plan.shapes[tid]).copy())
    return out


def counters(plan: ExecutablePlan) -> PhaseCounters:
    """Phase-tagged allocation totals; only defined once invoke has run."""
    if plan.invocations == 0:
        raise InterpreterError("counters requested before the first invoke")
    t = plan.tracker
    return PhaseCounters(
        load_bytes=t.totals["load"],
        configure_bytes=t.totals["configure"],
        invoke_bytes=t.totals["invoke"],
        peak_bytes=t.peak,
    )
