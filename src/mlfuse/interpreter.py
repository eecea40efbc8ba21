"""Baseline runtime: execute a model bundle directly, phase by phase.

The interpreter is the reference deployment. Load lowers the bundle
(lowering.py), which validates it first: one computing unit per operator
with its resolved parameters, and one buffer per tensor, but for a
RESHAPE's output, which shares its input's buffer. Plan, which the status
search calls on the build's own lowering, allocates the buffers, lays
every operator's weights out in one blob in the layouts the table shipped
with the kernels names (lowering.lay_out), and prepares the plan over them
(lowering.configure), as the search does for its candidates: each kernel's
prepare step binds its views of the buffers, of the blob and of the plan's
one scratch arena and returns the operator's numpy calls. Invoke then only
runs each operator's calls through its unit's run step, ops.run_calls, in
topological order; a RESHAPE's step makes none, but it stays a step, so an
error or a search breach names its operator. A plan runs one sample a call
unless it is made for more: its buffers then stack that many along axis 0,
as the program's batched plan does, and its kernels read the count from
them.

Memory accounting covers plan-managed allocations only: the serialized graph
text and weight arrays at load, tensor buffers (Lowering.buffer_bytes) and
the weights blob at configure. Kernel scratch, whether prepared at
configure or temporary in a run, and the output copies handed back by
invoke are not tracked here; harness.interpreter_scratch counts the
prepared scratch. A plan owns its buffers and scratch, so concurrent
invoke calls on one plan are not supported.
"""

from __future__ import annotations

from dataclasses import dataclass

from numpy._core import _multiarray_umath as np

from . import graphir
from .graphir import ModelBundle
from .kernels import DeviceInfo
from .kernels.live_status import hidden_status_for
from .lowering import Lowering, LoweredOp, configure, lay_out, lower


class InterpreterError(Exception):
    pass


@dataclass(frozen=True)
class PhaseCounters:
    load_bytes: int
    configure_bytes: int
    invoke_bytes: int
    peak_bytes: int


@dataclass
class ExecutablePlan:
    lowered: Lowering
    # (op, its unit's prepared calls) per lowered op, paired once here so
    # that invoke, which runs op.unit.fn(calls), zips nothing per call
    steps: list[tuple[LoweredOp, list]]
    # a flat buffer per lowered tensor; an alias has its tensor's buffer
    buffers: dict[int, np.ndarray]
    blob: np.ndarray  # every op's weights in the runtime's layouts (lay_out)
    load_bytes: int  # graph text and canonical weights
    configure_bytes: int  # tensor buffers (Lowering.buffer_bytes) and blob
    # graph output id -> its shape at the plan's samples a call, which
    # stack along axis 0
    shapes: dict[int, tuple]
    invocations: int = 0


def load(bundle: ModelBundle, device: DeviceInfo | None = None,
         registry=None, samples: int = 1) -> ExecutablePlan:
    """Build an executable plan of samples samples a call: lower (which
    validates), then plan the lowering."""
    return plan(lower(bundle, device, registry), samples,
                len(graphir.graph_to_json(bundle.graph).encode("utf-8")))


def plan(lowered: Lowering, samples: int = 1,
         graph_bytes: int = 0) -> ExecutablePlan:
    """Allocate and configure a plan of lowered, samples samples a call,
    in the runtime's layouts; graph_bytes is its graph text's size."""
    buffers = lowered.allocate(samples)
    blob, views = lay_out(
        lowered, [hidden_status_for(op.unit.key) for op in lowered.ops])
    calls, _ = configure(lowered, views, buffers)
    return ExecutablePlan(
        lowered=lowered, steps=list(zip(lowered.ops, calls)), buffers=buffers,
        blob=blob, load_bytes=graph_bytes
        + sum(arr.nbytes for arr in lowered.weights.values()),
        configure_bytes=lowered.buffer_bytes * samples + blob.nbytes,
        shapes={
            t: (-1, *lowered.tensors[t].shape[1:]) if samples > 1
            else lowered.tensors[t].shape for t in lowered.output_ids})


def invoke(plan: ExecutablePlan, inputs) -> list[np.ndarray]:
    """Run one inference of the plan's samples a call; returns fresh copies
    of the graph output tensors, their samples stacked along axis 0."""
    lowered = plan.lowered
    if isinstance(inputs, np.ndarray):
        inputs = [inputs]
    if len(inputs) != len(lowered.input_ids):
        raise InterpreterError(f"expected {len(lowered.input_ids)} input(s), "
                               f"got {len(inputs)}")
    for tid, arr in zip(lowered.input_ids, inputs):
        buf = plan.buffers[tid]
        arr = np.asarray(arr)
        if arr.size != buf.size or arr.dtype != buf.dtype:
            raise InterpreterError(
                f"input tensor {tid}: got {arr.dtype.str} x{arr.size}, "
                f"expected {buf.dtype.str} x{buf.size}")
        np.copyto(buf, np.ascontiguousarray(arr).reshape(-1))
    for op, calls in plan.steps:
        try:
            op.unit.fn(calls)
        except Exception as e:
            raise InterpreterError(
                f"operator {op.op_index} ({op.kind}) failed: {e}") from e
    plan.invocations += 1
    out = []
    for tid in lowered.output_ids:
        out.append(plan.buffers[tid].reshape(plan.shapes[tid]).copy())
    return out


def counters(plan: ExecutablePlan) -> PhaseCounters:
    """Plan-managed bytes per phase; only defined once invoke has run.

    Invoke allocates nothing the plan manages, and nothing is freed, so the
    peak is the load and configure bytes together.
    """
    if plan.invocations == 0:
        raise InterpreterError("counters requested before the first invoke")
    return PhaseCounters(plan.load_bytes, plan.configure_bytes, 0,
                         plan.load_bytes + plan.configure_bytes)
