"""One lowering from a validated bundle to resolved operators and buffers.

The interpreter, the status search and the emitter all consume it, and
nothing else derives shapes, weight ids, buffer sizes or kernel parameters.
For each operator, in graph order, it resolves the computing unit, the
known parameters (checked against the unit) and the activation, weight and
output ids. For the model it lists every non-weight tensor's buffer and the
canonical weights.

One buffer serves each tensor, but for a RESHAPE's output: a RESHAPE
computes nothing, so its output shares its input's storage (aliases),
through chains of them too, and allocate gives both tensors one flat
buffer. Validation makes the two of one dtype and count, and every
tensor is written by one operator only, so no step can write over a value
that another still reads. The RESHAPE units' prepare step returns no
calls, so every consumer of the lowering, the interpreter, the search and
the emitter's call tables, gets the view without code of its own.

lower validates the bundle first: validation rejects any builtin option
graphir.OPTION_SCHEMAS does not allow, and any declared shape that
contradicts the one each operator's rule infers. lower then takes each
operator's kernel parameters from the same rule (graphir.apply_rule), over
the declared shapes. It reads no layout table, so the search may use it.

Every plan is made in two steps, by the interpreter and the search alike,
and a build's search plans its candidates and its runtime reference
(interpreter.plan) from the build's one lowering. lay_out writes every
operator's weights into one blob in the layouts it is given: the
runtime's table or a candidate's, and the program ships the accepted
candidate's blob. configure then prepares each kernel over the buffers
and views of that blob, and makes the plan's fills; the calls it binds do
not depend on the layouts.

Every shape and parameter it resolves is the graph's own, at one sample a
call. A caller that stacks samples along axis 0 only sizes the buffers for
them: each prepare step reads the sample count from its buffers (ops.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from numpy._core import _multiarray_umath as np

from . import graphir
from .graphir import RESHAPE, DataType, GraphError, ModelBundle
from .kernels import (
    ComputingUnit,
    DeviceInfo,
    ParamError,
    ParamRecord,
    RegistryError,
    StatusError,
    check_unit_params,
    default_registry,
)
from .kernels.ops import run_calls


@dataclass(frozen=True)
class BufferSpec:
    shape: tuple[int, ...]
    count: int  # elements
    dtype: DataType


@dataclass
class LoweredOp:
    op_index: int
    kind: str
    unit: ComputingUnit
    params: ParamRecord
    act_ids: tuple[int, ...]
    weight_keys: tuple[int, ...]
    output_ids: tuple[int, ...]


@dataclass
class Lowering:
    ops: list[LoweredOp]  # graph order
    tensors: dict[int, BufferSpec]  # every non-weight tensor, by id
    # canonical weight arrays, by key: read-only views of the bundle's bytes
    weights: dict[int, np.ndarray]
    input_ids: tuple[int, ...]
    output_ids: tuple[int, ...]
    # a RESHAPE output's id -> the id of the tensor whose buffer it shares,
    # one that no RESHAPE writes
    aliases: dict[int, int]

    def allocate(self, samples: int = 1) -> dict[int, np.ndarray]:
        """A flat buffer for every non-weight tensor, of samples samples
        stacked along axis 0: a fresh one, or for an alias the buffer of
        the tensor it shares."""
        buffers = {t: np.empty(b.count * samples, b.dtype.np_dtype)
                   for t, b in self.tensors.items() if t not in self.aliases}
        return {t: buffers[self.aliases.get(t, t)] for t in self.tensors}

    @property
    def buffer_bytes(self) -> int:
        """The tensor buffers of one sample, as BATCH, the program's
        BUFFER_BYTES and the interpreter's counters count them: every
        tensor's declared bytes, an alias's as well as the buffer it
        shares. Counting each buffer once would double identity's BATCH,
        to 16,384, and change which files a program pads. Measured memory
        is to replace this accounting."""
        return sum(b.count * b.dtype.byte_width
                   for b in self.tensors.values())


def lower(bundle: ModelBundle, device: DeviceInfo | None = None,
          registry=None) -> Lowering:
    """Validate the bundle, then resolve every operator and its buffers."""
    device = device or DeviceInfo()
    registry = registry or default_registry()
    rules = registry.custom_shape_rules()
    # through the module, so that a wrapper set on graphir.validate sees it
    problems = graphir.validate(bundle, custom_rules=rules)
    if problems:
        raise GraphError("invalid bundle: " + "; ".join(problems))
    graph = bundle.graph
    shapes = {t.id: t.shape for t in graph.tensors}
    weight_ids = {t.id: t.weight_ref for t in graph.tensors
                  if t.weight_ref is not None}
    ops, aliases = [], {}
    for i, node in enumerate(graph.operators):
        _, values = graphir.apply_rule(
            i, node, [shapes[t] for t in node.inputs],
            [t in weight_ids for t in node.inputs], rules)
        params = ParamRecord(graphir.op_kind(node), values)
        try:
            unit = registry.lookup(
                node.op_id, graph.tensors[node.inputs[0]].dtype, device)
            check_unit_params(unit, params)
        except (RegistryError, ParamError) as e:
            raise type(e)(f"operator {i}: {e}") from None
        ops.append(LoweredOp(
            op_index=i, kind=params.op_kind, unit=unit, params=params,
            act_ids=tuple(t for t in node.inputs if t not in weight_ids),
            weight_keys=tuple(weight_ids[t] for t in node.inputs
                              if t in weight_ids),
            output_ids=tuple(node.outputs)))
        if node.op_id == RESHAPE:
            x = node.inputs[0]
            aliases[node.outputs[0]] = aliases.get(x, x)
    return Lowering(
        ops=ops,
        tensors={t.id: BufferSpec(shapes[t.id], math.prod(shapes[t.id]),
                                  t.dtype)
                 for t in graph.tensors if t.weight_ref is None},
        weights={key: bundle.weights.as_array(key)
                 for key in sorted(bundle.weights.entries)},
        input_ids=tuple(graph.inputs), output_ids=tuple(graph.outputs),
        aliases=aliases)


def lay_out(lowered: Lowering, layouts) -> tuple[np.ndarray, list]:
    """Every operator's weights, laid out as layouts says, in one native
    float32 blob, by operator and slot, and each operator's weights again
    as flat views of it.

    layouts holds one layout name per operator, None for a unit that lists
    no layouts. Weight 0 is written through the transpose its layout names,
    the others as stored; an int32 weight's slice holds its bits.
    """
    arrays = [[lowered.weights[k] for k in op.weight_keys]
              for op in lowered.ops]
    blob = np.empty(sum(w.size for ws in arrays for w in ws), np.dtype("f4"))
    views, at = [], 0
    for op, layout, ws in zip(lowered.ops, layouts, arrays):
        table = op.unit.layouts or {None: None}
        if layout not in table:
            raise StatusError(
                f"operator {op.op_index}: {op.unit.template_id}: no weight "
                f"layout {layout!r}, expected one of {list(table)}")
        views.append([])
        for slot, w in enumerate(ws):
            flat = blob[at:at + w.size].view(w.dtype)
            at += w.size
            if slot == 0 and table[layout] is not None:
                w = w.transpose(table[layout])
            np.copyto(flat.reshape(w.shape), w)
            views[-1].append(flat)
    return blob, views


def configure(lowered: Lowering, views, buffers) -> tuple[list, list]:
    """Prepare every operator's kernel over buffers and its flat weights
    (views, as lay_out returns them), and make the plan's fills.

    Returns, per operator, the calls its unit's prepare step bound
    (unit.fn(calls) runs the operator), and the plan's fills, made
    (ops.py). A step gets those of the plan's keywords it declares with a
    default: arena, which every step shares, and fills. When the first
    pass grew the arena, a second binds every step to it as it grew, and
    only its fills count.
    """
    arena = [np.empty(0, "<f4")]
    for _ in 0, 1:
        plan = {"arena": arena, "fills": []}
        calls = [op.unit.prep([buffers[t] for t in op.act_ids], ws,
                              [buffers[t] for t in op.output_ids],
                              **op.params.values,
                              **{k: plan[k] for k in
                                 op.unit.prep.__kwdefaults__ or ()
                                 if k in plan})
                 for op, ws in zip(lowered.ops, views)]
        if not arena[0].size:
            break
    run_calls(plan["fills"])
    return calls, plan["fills"]
