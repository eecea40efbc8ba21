"""Computing-unit registry: per-operator kernels plus their configuration.

A computing unit binds one operator kind and one data type to a kernel
template: its prepare step, which returns the operator's numpy calls, and
the run step that makes them; one unit serves every device. An operator's
known parameters come from its kind's rule, with its output shapes:
graphir.RULES for a builtin, and for a custom kind the rule registered
with its unit. The registry checks only each unit's own limits
(param_check). The one setting the container does not carry is the memory
layout a conv or FC kernel expects its weight in: a unit lists the layouts
it may take, and the caller names one, either from the table shipped with
the runtime or by search. lowering.lay_out lays the stored weight out in
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import graphir
from ..graphir import (
    ADD, AVERAGE_POOL_2D, CONCATENATION, CONV_2D, DEPTHWISE_CONV_2D,
    FULLY_CONNECTED, MAX_POOL_2D, PAD, RELU, RESHAPE, SOFTMAX,
    DataType, GraphError,
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
        self._custom_rules: dict[str, object] = {}

    def register_builtin(self, unit: ComputingUnit) -> None:
        if unit.key in self._units:
            raise RegistryError(f"duplicate registration for {unit.key}")
        self._units[unit.key] = unit

    def register_custom(self, name: str, unit: ComputingUnit, *,
                        rule) -> None:
        """Register a custom kind's unit, and its rule in graphir's form."""
        if unit.key.op_id != name:
            raise RegistryError(f"unit key {unit.key} does not carry name {name!r}")
        self.register_builtin(unit)
        self._custom_rules[name] = rule

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
        """Each custom kind's rule, by name, as graphir takes them."""
        return dict(self._custom_rules)


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


_SCALE_SHIFT_OPTIONS = {"scale": graphir.is_number, "shift": graphir.is_number}


def _scale_shift_rule(options, in_shapes, consts):
    problems = graphir.option_problems(_SCALE_SHIFT_OPTIONS, options)
    if problems:
        raise GraphError("; ".join(problems))
    graphir.check_arity(in_shapes, 1)
    return [in_shapes[0]], {"scale": float(options["scale"]),
                            "shift": float(options["shift"])}


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
        rule=_scale_shift_rule,
    )
    return reg
