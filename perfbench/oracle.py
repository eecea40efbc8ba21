"""Independent output reference: the scalar loop nests of tests/oracles.py,
composed over a model graph.

The oracles share no code with the kernels that both deployments run, so an
output that matches them bit for bit is evidence that a kernel is right, not
only that the program and the interpreter agree. SAME padding and output
extents are computed here from their definitions, not taken from the
package. Only the operators the fixture models use are composed; any other
operator raises.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np

from mlfuse.graphir import (
    CONV_2D, DEPTHWISE_CONV_2D, FULLY_CONNECTED, MAX_POOL_2D, RELU, RESHAPE,
    SOFTMAX,
)

_CLAMPS = {"NONE": (None, None), "RELU": (0.0, None), "RELU6": (0.0, 6.0)}


def load_oracles(root: Path):
    """Import tests/oracles.py by path, without putting tests/ on sys.path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pads(opts, in_hw, eff_hw):
    if opts["padding"] == "VALID":
        return 0, 0, 0, 0
    pads = []
    for in_dim, eff, stride in zip(in_hw, eff_hw,
                                   (opts["stride_h"], opts["stride_w"])):
        out_dim = math.ceil(in_dim / stride)
        total = max(0, (out_dim - 1) * stride + eff - in_dim)
        pads += [total // 2, total - total // 2]
    return tuple(pads)


def _conv_args(opts, x, fh, fw):
    dil = (opts["dilation_h"], opts["dilation_w"])
    eff = ((fh - 1) * dil[0] + 1, (fw - 1) * dil[1] + 1)
    return dict(stride=(opts["stride_h"], opts["stride_w"]), dilation=dil,
                pads=_pads(opts, x.shape[1:3], eff),
                clamp=_CLAMPS[opts["activation"]])


def reference_outputs(oracles, bundle, inputs) -> list[np.ndarray]:
    """Run one sample through the composed oracles; returns graph outputs."""
    graph = bundle.graph
    values = {}
    for t in graph.tensors:
        if t.weight_ref is not None:
            values[t.id] = bundle.weights.as_array(t.weight_ref)
    for tid, arr in zip(graph.inputs, inputs):
        values[tid] = np.asarray(arr, dtype=np.float32).reshape(
            graph.tensors[tid].shape)
    for i, node in enumerate(graph.operators):
        args = [values[t] for t in node.inputs]
        opts = node.options
        out_shape = graph.tensors[node.outputs[0]].shape
        x = args[0]
        bias = args[2] if len(args) > 2 else None
        if node.op_id == CONV_2D:
            y = oracles.conv2d(x, args[1], bias,
                               **_conv_args(opts, x, *args[1].shape[1:3]))
        elif node.op_id == DEPTHWISE_CONV_2D:
            y = oracles.depthwise_conv2d(
                x, args[1], bias, multiplier=opts["depth_multiplier"],
                **_conv_args(opts, x, *args[1].shape[1:3]))
        elif node.op_id == MAX_POOL_2D:
            kernel = (opts["filter_h"], opts["filter_w"])
            y = oracles.max_pool2d(
                x, kernel, (opts["stride_h"], opts["stride_w"]),
                pads=_pads(opts, x.shape[1:3], kernel),
                clamp=_CLAMPS[opts["activation"]])
        elif node.op_id == FULLY_CONNECTED:
            y = oracles.fully_connected(x.reshape(-1, args[1].shape[1]),
                                        args[1], bias,
                                        clamp=_CLAMPS[opts["activation"]])
        elif node.op_id == SOFTMAX:
            y = oracles.softmax(x.reshape(-1, x.shape[-1]), opts["beta"])
        elif node.op_id == RESHAPE:
            y = x.copy()
        elif node.op_id == RELU:
            y = oracles.relu(x)
        elif node.op_id == "SCALE_SHIFT":
            y = oracles.scale_shift(x, opts["scale"], opts["shift"])
        else:
            raise ValueError(f"operator {i}: no oracle composed for "
                             f"{node.op_id!r}")
        values[node.outputs[0]] = y.reshape(out_shape)
    return [values[t] for t in graph.outputs]
