"""Computing-unit registry: per-operator kernels plus their configuration.

A computing unit binds one operator kind and one data type to a kernel
template: its prepare step, which returns the operator's numpy calls, and
the run step that makes them; one unit serves every device.
Known configuration is resolved from node options into a ParamRecord.
graphir.validate owns the rules of builtin options, so the registry reads
them as given; it checks only what validation cannot see, the options of
custom operators and each unit's own limits (param_check). The one setting
the container does not carry is the memory layout a conv or FC kernel
expects its weight in: a unit lists the layouts it may take, and the caller
names one, either from the table shipped with the runtime or by search.
lowering.lay_out lays the stored weight out in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import graphir
from ..graphir import (
    ADD, AVERAGE_POOL_2D, CONCATENATION, CONV_2D, DEPTHWISE_CONV_2D,
    FULLY_CONNECTED, MAX_POOL_2D, PAD, RELU, RESHAPE, SOFTMAX,
    DataType, OperatorNode, op_kind, same_padding,
)
from . import ops


class RegistryError(Exception):
    pass


class StatusError(Exception):
    pass


class ParamError(Exception):
    pass


@dataclass(frozen=True)
class DeviceInfo:
    """The build target. No unit depends on it; builds record threads in
    their manifest and plan digest."""
    threads: int = 1

    def __post_init__(self):
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")


@dataclass(frozen=True)
class UnitKey:
    op_id: int | str
    dtype: DataType


@dataclass
class ComputingUnit:
    key: UnitKey
    template_id: str
    fn: object  # run step: fn(calls), ops.run_calls for every unit
    prep: object  # prepare step: prep(inputs, weights, outputs, **params)
    # layout name -> the transpose that takes weight 0 into it (None: as
    # stored). Insertion order is the search order; empty means the unit
    # has nothing unknown.
    layouts: dict = field(default_factory=dict)
    param_check: object = None  # optional: values -> error string or None


@dataclass
class ParamRecord:
    """Resolved known configuration for one operator instance."""
    op_kind: str
    values: dict


# ---------------------------------------------------------------------------
# Option resolution, from options graphir.validate has checked

_ACT_CLAMPS = {
    "NONE": (None, None),
    "RELU": (0.0, None),
    "RELU6": (0.0, 6.0),
}


def _spatial_pads(o, in_hw, out_hw, eff_hw) -> tuple:
    if o["padding"] == "VALID":
        return 0, 0, 0, 0
    return (*same_padding(in_hw[0], out_hw[0], eff_hw[0], o["stride_h"]),
            *same_padding(in_hw[1], out_hw[1], eff_hw[1], o["stride_w"]))


def _map_conv(o, in_shapes, out_shape, depthwise: bool) -> dict:
    x, f = in_shapes[0], in_shapes[1]
    dh, dw = o["dilation_h"], o["dilation_w"]
    fh, fw = f[1], f[2]
    pbh, pah, pbw, paw = _spatial_pads(
        o, x[1:3], out_shape[1:3], ((fh - 1) * dh + 1, (fw - 1) * dw + 1))
    lo, hi = _ACT_CLAMPS[o["activation"]]
    values = {
        "in_shape": x[1:], "out_shape": out_shape[1:],
        "filter_h": fh, "filter_w": fw,
        "stride_h": o["stride_h"], "stride_w": o["stride_w"],
        "dilation_h": dh, "dilation_w": dw,
        "pad_before_h": pbh, "pad_after_h": pah,
        "pad_before_w": pbw, "pad_after_w": paw,
        "activation_min": lo, "activation_max": hi,
    }
    if depthwise:
        values["depth_multiplier"] = o["depth_multiplier"]
    return values


def _map_pool(o, in_shapes, out_shape) -> dict:
    x = in_shapes[0]
    fh, fw = o["filter_h"], o["filter_w"]
    pbh, pah, pbw, paw = _spatial_pads(o, x[1:3], out_shape[1:3], (fh, fw))
    lo, hi = _ACT_CLAMPS[o["activation"]]
    return {
        "in_shape": x[1:], "out_shape": out_shape[1:],
        "filter_h": fh, "filter_w": fw,
        "stride_h": o["stride_h"], "stride_w": o["stride_w"],
        "pad_before_h": pbh, "pad_after_h": pah,
        "pad_before_w": pbw, "pad_after_w": paw,
        "activation_min": lo, "activation_max": hi,
    }


# kinds whose kernel computes each slice along axis 0 of its activations on
# its own, whatever the options
_SPLIT_ALONG_AXIS_0 = {
    "CONV_2D", "DEPTHWISE_CONV_2D", "AVERAGE_POOL_2D", "MAX_POOL_2D",
    "FULLY_CONNECTED", "RELU", "RESHAPE", "SCALE_SHIFT",
}


def splits_along_axis_0(params: ParamRecord, weights: int) -> bool:
    """Whether an operator computes each slice along axis 0 on its own.

    Then samples stacked along axis 0 of every activation run through one
    kernel call as they would one at a time. weights counts the operator's
    inputs that are weights. SOFTMAX needs a class axis beside axis 0, ADD
    and CONCATENATION no weight operand sized for one sample, CONCATENATION
    an axis other than 0 and PAD nothing added along it. Any other kind,
    custom ones included, is taken as mixing its slices.
    """
    kind, v = params.op_kind, params.values
    if kind == "SOFTMAX":
        return len(v["in_shape"]) >= 2
    if kind == "ADD":
        return weights == 0
    if kind == "CONCATENATION":
        return v["axis"] != 0 and weights == 0
    if kind == "PAD":
        return v["paddings"][0] == (0, 0)
    return kind in _SPLIT_ALONG_AXIS_0


# ---------------------------------------------------------------------------
# Registry


class KernelRegistry:
    def __init__(self):
        self._units: dict[UnitKey, ComputingUnit] = {}
        self._custom_mappers: dict[str, object] = {}
        self._custom_shapes: dict[str, object] = {}

    def register_builtin(self, unit: ComputingUnit) -> None:
        if unit.key in self._units:
            raise RegistryError(f"duplicate registration for {unit.key}")
        self._units[unit.key] = unit

    def register_custom(self, name: str, unit: ComputingUnit, *,
                        param_mapper, shape_rule) -> None:
        if unit.key.op_id != name:
            raise RegistryError(f"unit key {unit.key} does not carry name {name!r}")
        self.register_builtin(unit)
        self._custom_mappers[name] = param_mapper
        self._custom_shapes[name] = shape_rule

    def lookup(self, op_id, dtype: DataType, device: DeviceInfo) -> ComputingUnit:
        """The unit for an operator kind and dtype; it serves any device."""
        unit = self._units.get(UnitKey(op_id, dtype))
        if unit is None:
            name = graphir.OPCODE_NAMES.get(op_id, op_id)
            raise RegistryError(f"unsupported operation: no unit for {name} "
                                f"{dtype.name}")
        return unit

    def units(self):
        return list(self._units.values())

    def custom_shape_rules(self) -> dict:
        return dict(self._custom_shapes)

    # -- known-parameter resolution

    def map_options_to_params(self, node: OperatorNode, shapes: dict,
                              weight_ids=frozenset()) -> ParamRecord:
        """Resolve a node's options plus shapes into the kernel's knowns."""
        kind = op_kind(node)
        in_shapes = [tuple(shapes[t]) for t in node.inputs]
        out_shape = tuple(shapes[node.outputs[0]])

        if node.is_custom:
            mapper = self._custom_mappers.get(kind)
            if mapper is None:
                raise ParamError(f"no parameter mapper for custom operator {kind!r}")
            return ParamRecord(kind, mapper(node, in_shapes, out_shape))

        op, o = node.op_id, node.options
        if op in (CONV_2D, DEPTHWISE_CONV_2D):
            values = _map_conv(o, in_shapes, out_shape,
                               depthwise=op == DEPTHWISE_CONV_2D)
        elif op in (AVERAGE_POOL_2D, MAX_POOL_2D):
            values = _map_pool(o, in_shapes, out_shape)
        elif op == FULLY_CONNECTED:
            lo, hi = _ACT_CLAMPS[o["activation"]]
            values = {"in_features": in_shapes[0][1],
                      "out_features": in_shapes[1][0],
                      "activation_min": lo, "activation_max": hi}
        elif op == SOFTMAX:
            values = {"in_shape": in_shapes[0], "beta": float(o["beta"])}
        elif op in (RESHAPE, RELU):
            values = {}
        elif op == ADD:
            lo, hi = _ACT_CLAMPS[o["activation"]]
            values = {"activation_min": lo, "activation_max": hi}
        elif op == CONCATENATION:
            values = {
                "axis": o["axis"], "in_shapes": tuple(in_shapes),
                "out_shape": out_shape,
                "weight_slots": tuple(k for k, t in enumerate(node.inputs)
                                      if t in weight_ids),
            }
        elif op == PAD:
            flat = o["paddings"]
            values = {
                "in_shape": in_shapes[0][1:], "out_shape": out_shape[1:],
                "paddings": tuple((flat[2 * i], flat[2 * i + 1])
                                  for i in range(len(flat) // 2)),
            }
        else:
            raise ParamError(f"no parameter mapping for opcode {op}")
        return ParamRecord(kind, values)


def check_unit_params(unit: ComputingUnit, params: ParamRecord) -> None:
    if unit.param_check is not None:
        problem = unit.param_check(params.values)
        if problem:
            raise ParamError(f"{params.op_kind}: {problem}")


# ---------------------------------------------------------------------------
# Default registry contents


def _add_i32_check(values):
    if values["activation_min"] is not None or values["activation_max"] is not None:
        return "I32 ADD supports only NONE activation"
    return None


def _scale_shift_mapper(node, in_shapes, out_shape) -> dict:
    for key in ("scale", "shift"):
        if key not in node.options:
            raise ParamError(f"SCALE_SHIFT: missing required option '{key}'")
        if type(node.options[key]) not in (int, float):
            raise ParamError(f"invalid option value: {key}")
    return {
        "scale": float(node.options["scale"]),
        "shift": float(node.options["shift"]),
    }


def _scale_shift_shape(node, in_shapes):
    if len(in_shapes) != 1:
        raise graphir.GraphError(f"expects 1 input(s), got {len(in_shapes)}")
    return [tuple(in_shapes[0])]


def build_default_registry() -> KernelRegistry:
    reg = KernelRegistry()
    f32, i32 = DataType.F32, DataType.I32

    def unit(op, dtype, template, **kw):
        reg.register_builtin(ComputingUnit(
            UnitKey(op, dtype), template, ops.KERNELS[template],
            ops.PREPS[template], **kw))

    unit(CONV_2D, f32, "conv2d_f32",
         layouts={"OHWI": None, "HWIO": (1, 2, 3, 0)})
    unit(DEPTHWISE_CONV_2D, f32, "depthwise_conv2d_f32")
    unit(AVERAGE_POOL_2D, f32, "avg_pool2d_f32")
    unit(MAX_POOL_2D, f32, "max_pool2d_f32")
    unit(FULLY_CONNECTED, f32, "fully_connected_f32",
         layouts={"row_major": None, "transposed": (1, 0)})
    unit(SOFTMAX, f32, "softmax_f32")
    unit(RELU, f32, "relu_f32")
    unit(RESHAPE, f32, "reshape")
    unit(RESHAPE, i32, "reshape")
    unit(ADD, f32, "add")
    unit(ADD, i32, "add", param_check=_add_i32_check)
    unit(CONCATENATION, f32, "concat_f32")
    unit(PAD, f32, "pad_f32")

    reg.register_custom(
        "SCALE_SHIFT",
        ComputingUnit(UnitKey("SCALE_SHIFT", f32),
                      "scale_shift_f32", ops.KERNELS["scale_shift_f32"],
                      ops.PREPS["scale_shift_f32"]),
        param_mapper=_scale_shift_mapper,
        shape_rule=_scale_shift_shape,
    )
    return reg
