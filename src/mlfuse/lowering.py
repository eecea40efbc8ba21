"""One lowering from a validated bundle to resolved operators and buffers.

The interpreter, the status search and the emitter all consume it, and
nothing else derives shapes, weight ids, buffer sizes or kernel parameters.
For each operator, in graph order, it resolves the computing unit, the
known parameters (checked against the unit) and the activation, weight and
output ids. For the model it lists every non-weight tensor's buffer and the
canonical weights.

It reads the declared tensor shapes and the node options as given: every
entry point validates the bundle first, and validation rejects any declared
shape that contradicts graphir.infer_shapes, the only shape math, and any
builtin option graphir.OPTION_SCHEMAS does not allow. It reads no layout
table, so the search may use it. Weight layouts come in only through
configure, which lays the weights out and prepares each kernel: the
interpreter passes the runtime's table, the search each candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphir import DataType, GraphError, ModelBundle
from .kernels import (
    ComputingUnit,
    DeviceInfo,
    ParamError,
    ParamRecord,
    RegistryError,
    StatusError,
    check_unit_params,
    default_registry,
    layout_weight_arrays,
)


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
    device: DeviceInfo
    ops: list[LoweredOp]  # graph order
    tensors: dict[int, BufferSpec]  # every non-weight tensor, by id
    weights: dict[int, np.ndarray]  # canonical weight arrays, by key
    input_ids: tuple[int, ...]
    output_ids: tuple[int, ...]

    def allocate(self) -> dict[int, np.ndarray]:
        """A fresh flat buffer for every non-weight tensor."""
        return {t: np.empty(b.count, b.dtype.np_dtype)
                for t, b in self.tensors.items()}


def lower(bundle: ModelBundle, device: DeviceInfo | None = None,
          registry=None) -> Lowering:
    """Resolve every operator of a validated bundle, and its buffers."""
    device = device or DeviceInfo()
    registry = registry or default_registry()
    graph = bundle.graph
    shapes = {t.id: t.shape for t in graph.tensors}
    weight_ids = {t.id: t.weight_ref for t in graph.tensors
                  if t.weight_ref is not None}
    ops = []
    for i, node in enumerate(graph.operators):
        try:
            unit = registry.lookup(
                node.op_id, graph.tensors[node.inputs[0]].dtype, device)
            params = registry.map_options_to_params(node, shapes,
                                                    weight_ids=weight_ids)
            check_unit_params(unit, params)
            act_ids = tuple(t for t in node.inputs if t not in weight_ids)
            if not act_ids:
                raise ParamError("every operator needs at least one "
                                 "non-constant input")
        except (RegistryError, ParamError, GraphError) as e:
            raise type(e)(f"operator {i}: {e}") from None
        ops.append(LoweredOp(
            op_index=i, kind=params.op_kind, unit=unit, params=params,
            act_ids=act_ids,
            weight_keys=tuple(weight_ids[t] for t in node.inputs
                              if t in weight_ids),
            output_ids=tuple(node.outputs)))
    return Lowering(
        device=device, ops=ops,
        tensors={t.id: BufferSpec(t.shape, math.prod(t.shape), t.dtype)
                 for t in graph.tensors if t.weight_ref is None},
        weights={key: bundle.weights.as_array(key)
                 for key in sorted(bundle.weights.entries)},
        input_ids=tuple(graph.inputs), output_ids=tuple(graph.outputs))


def configure(lowered: Lowering, layouts, buffers) -> tuple[list, list, int]:
    """Lay every operator's weights out and prepare its kernel over buffers.

    layouts holds one layout name per operator, None for a unit that lists
    no layouts. Returns, per operator, the flat weights and the unit's
    state (unit.fn(*state) runs the operator), and the bytes the layouts
    copied.
    """
    flats, states, copied = [], [], 0
    for op, layout in zip(lowered.ops, layouts):
        try:
            ws, n = layout_weight_arrays(
                op.unit, layout, [lowered.weights[k] for k in op.weight_keys])
        except StatusError as e:
            raise StatusError(f"operator {op.op_index}: {e}") from None
        flats.append(ws)
        states.append(op.unit.prep([buffers[t] for t in op.act_ids], ws,
                                   [buffers[t] for t in op.output_ids],
                                   **op.params.values))
        copied += n
    return flats, states, copied
