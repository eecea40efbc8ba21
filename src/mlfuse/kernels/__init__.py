"""Kernel library: computing units, their templates, and configuration."""

from .registry import (
    ComputingUnit,
    DeviceInfo,
    KernelRegistry,
    ParamError,
    ParamRecord,
    RegistryError,
    StatusError,
    UnitKey,
    build_default_registry,
    check_unit_params,
    splits_along_axis_0,
)

_default = None


def default_registry() -> KernelRegistry:
    global _default
    if _default is None:
        _default = build_default_registry()
    return _default
