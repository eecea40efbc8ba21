"""Baseline runtime: execute a model bundle directly, phase by phase.

The interpreter is the reference deployment. Load validates the bundle and
lowers it (lowering.py): one computing unit per operator with its resolved
parameters, and one buffer per tensor. Configure allocates the buffers and
calls lowering.configure with the layouts the table shipped with the
kernels names: that lays every operator's weight out and runs each
kernel's prepare step once, binding its views of the buffers and allocating
its scratch. Invoke then only calls each kernel's run step on that state,
in topological order.

Memory accounting covers plan-managed allocations only: the serialized graph
text and weight arrays at load, tensor buffers and weight reorder copies at
configure. Kernel scratch, whether prepared at configure or temporary in a
run, and the output copies handed back by invoke are not tracked. A plan
owns its buffers and scratch, so concurrent invoke calls on one plan are not
supported.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import graphir
from .graphir import GraphError, ModelBundle
from .kernels import DeviceInfo, default_registry
from .kernels.live_status import hidden_status_for
from .lowering import Lowering, configure, lower


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
    state: tuple  # the unit's prepared state: invoke calls unit.fn(*state)


@dataclass
class ExecutablePlan:
    lowered: Lowering
    steps: list[PlanStep]
    buffers: dict[int, np.ndarray]  # one flat buffer per lowered tensor
    tracker: PhaseTracker
    invocations: int = 0


def load(bundle: ModelBundle, device: DeviceInfo | None = None,
         registry=None) -> ExecutablePlan:
    """Build an executable plan: validate, lower, allocate, configure."""
    registry = registry or default_registry()
    tracker = PhaseTracker()

    tracker.set_phase("load")
    problems = graphir.validate(bundle, custom_rules=registry.custom_shape_rules())
    if problems:
        raise GraphError("invalid bundle: " + "; ".join(problems))
    tracker.alloc(len(graphir.graph_to_json(bundle.graph).encode("utf-8")))
    lowered = lower(bundle, device, registry)
    for arr in lowered.weights.values():
        tracker.alloc(arr.nbytes)

    tracker.set_phase("configure")
    buffers = lowered.allocate()
    for buf in buffers.values():
        tracker.alloc(buf.nbytes)
    _, states, copied = configure(
        lowered, [hidden_status_for(op.unit.key) for op in lowered.ops],
        buffers)
    tracker.alloc(copied)
    steps = [PlanStep(op_index=op.op_index, kind=op.kind, unit=op.unit,
                      state=state)
             for op, state in zip(lowered.ops, states)]
    return ExecutablePlan(lowered=lowered, steps=steps, buffers=buffers,
                          tracker=tracker)


def invoke(plan: ExecutablePlan, inputs) -> list[np.ndarray]:
    """Run one inference; returns fresh copies of the graph output tensors."""
    lowered = plan.lowered
    if isinstance(inputs, np.ndarray):
        inputs = [inputs]
    if len(inputs) != len(lowered.input_ids):
        raise InterpreterError(f"expected {len(lowered.input_ids)} input(s), "
                               f"got {len(inputs)}")
    plan.tracker.set_phase("invoke")
    for tid, arr in zip(lowered.input_ids, inputs):
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
    for tid in lowered.output_ids:
        out.append(plan.buffers[tid].reshape(lowered.tensors[tid].shape).copy())
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
