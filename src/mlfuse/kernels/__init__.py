"""Kernel library: computing units, their templates, and configuration."""

from .registry import (
    ComputingUnit,
    DeviceInfo,
    KernelRegistry,
    ParamError,
    ParamRecord,
    PrepareError,
    RegistryError,
    StatusAssignment,
    StatusError,
    StatusField,
    UnitKey,
    build_default_registry,
    check_unit_params,
    class_signature,
    layout_weight_arrays,
    validate_status,
)

_default = None


def default_registry() -> KernelRegistry:
    global _default
    if _default is None:
        _default = build_default_registry()
    return _default
