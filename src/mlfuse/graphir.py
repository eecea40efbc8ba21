"""On-device model container: graph description plus weight store.

A model bundle is two files. The graph side (.mlg) is strict JSON naming
tensors, operators, and the graph inputs/outputs. The weight side (.mlw) is a
little-endian binary keyed by integer ids. Loading is strict: unknown fields,
bad references, or shape contradictions are hard errors, never warnings.

Each operator kind has one rule, rule(options, in_shapes, consts) ->
(output shapes, kernel parameters at one sample a call); consts flags the
inputs that are weights. RULES holds the builtins'. A custom kind's rule,
registered with its unit, checks its own options and arity, as validate
checks a builtin's against OPTION_SCHEMAS. validate infers every shape
through the rules, and lowering.lower takes the parameters from them.
"""

from __future__ import annotations

import enum
import functools
import json
import math
import struct
from dataclasses import dataclass, field

from numpy._core import _multiarray_umath as np


class GraphError(Exception):
    """Raised for malformed containers and failed validation."""


# Builtin operator codes. The numeric values are part of the container format.
ADD = 0
AVERAGE_POOL_2D = 1
CONCATENATION = 2
CONV_2D = 3
DEPTHWISE_CONV_2D = 4
FULLY_CONNECTED = 9
MAX_POOL_2D = 17
RELU = 19
RESHAPE = 22
SOFTMAX = 25
PAD = 34

OPCODE_NAMES = {
    ADD: "ADD",
    AVERAGE_POOL_2D: "AVERAGE_POOL_2D",
    CONCATENATION: "CONCATENATION",
    CONV_2D: "CONV_2D",
    DEPTHWISE_CONV_2D: "DEPTHWISE_CONV_2D",
    FULLY_CONNECTED: "FULLY_CONNECTED",
    MAX_POOL_2D: "MAX_POOL_2D",
    RELU: "RELU",
    RESHAPE: "RESHAPE",
    SOFTMAX: "SOFTMAX",
    PAD: "PAD",
}


class DataType(enum.Enum):
    F32 = 0
    I32 = 2

    @property
    def code(self) -> int:
        return self.value

    @property
    def byte_width(self) -> int:
        return 4

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype("=f4" if self is DataType.F32 else "=i4")

    @property
    def le_dtype(self) -> np.dtype:
        # explicit little-endian form for container IO
        return np.dtype("<f4" if self is DataType.F32 else "<i4")


_DTYPE_BY_CODE = {dt.code: dt for dt in DataType}
_DTYPE_BY_NAME = {dt.name: dt for dt in DataType}


@dataclass(frozen=True)
class TensorSpec:
    id: int
    name: str
    dtype: DataType
    shape: tuple[int, ...]
    weight_ref: int | None = None


@dataclass
class OperatorNode:
    op_id: int | str  # builtin opcode, or custom operator name
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    options: dict

    @property
    def is_custom(self) -> bool:
        return isinstance(self.op_id, str)


def op_kind(node: OperatorNode) -> str:
    """Stable name for a node's operation (builtin name or custom name)."""
    if node.is_custom:
        return node.op_id
    name = OPCODE_NAMES.get(node.op_id)
    if name is None:
        raise GraphError(f"unknown opcode {node.op_id}")
    return name


@dataclass
class ComputationalGraph:
    tensors: list[TensorSpec]
    operators: list[OperatorNode]
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    version: int = 1


@dataclass(frozen=True)
class WeightEntry:
    dtype: DataType
    shape: tuple[int, ...]
    data: bytes


@dataclass
class WeightStore:
    entries: dict[int, WeightEntry] = field(default_factory=dict)

    def put_array(self, key: int, arr: np.ndarray) -> None:
        if key in self.entries:
            raise GraphError(f"duplicate weight key {key}")
        if arr.dtype == "=f4":
            dt = DataType.F32
        elif arr.dtype == "=i4":
            dt = DataType.I32
        else:
            raise GraphError(f"unsupported weight dtype {arr.dtype.str}")
        data = np.ascontiguousarray(arr).astype(dt.le_dtype, copy=False).tobytes()
        self.entries[key] = WeightEntry(dt, tuple(int(d) for d in arr.shape), data)

    def as_array(self, key: int) -> np.ndarray:
        entry = self.entries[key]
        flat = np.frombuffer(entry.data, dtype=entry.dtype.le_dtype)
        return flat.astype(entry.dtype.np_dtype, copy=False).reshape(entry.shape)


@dataclass
class ModelBundle:
    graph: ComputationalGraph
    weights: WeightStore


# Option schemas for builtin operators. Each entry maps option name to a
# value checker; a node must carry exactly these keys.

def _pos_int(v) -> bool:
    return type(v) is int and v >= 1


def _nonneg_int_list(v) -> bool:
    return isinstance(v, list) and len(v) > 0 and all(type(x) is int and x >= 0 for x in v)


def _pos_int_list(v) -> bool:
    return isinstance(v, list) and len(v) > 0 and all(type(x) is int and x >= 1 for x in v)


def is_number(v) -> bool:
    return type(v) in (int, float)


def _padding_mode(v) -> bool:
    return v in ("SAME", "VALID")


def _activation(v) -> bool:
    return v in ("NONE", "RELU", "RELU6")


def _plain_int(v) -> bool:
    return type(v) is int


_CONV_BASE = {
    "stride_h": _pos_int,
    "stride_w": _pos_int,
    "dilation_h": _pos_int,
    "dilation_w": _pos_int,
    "padding": _padding_mode,
    "activation": _activation,
}

_POOL = {
    "filter_h": _pos_int,
    "filter_w": _pos_int,
    "stride_h": _pos_int,
    "stride_w": _pos_int,
    "padding": _padding_mode,
    "activation": _activation,
}

OPTION_SCHEMAS: dict[int, dict] = {
    ADD: {"activation": _activation},
    AVERAGE_POOL_2D: dict(_POOL),
    CONCATENATION: {"axis": _plain_int},
    CONV_2D: dict(_CONV_BASE),
    DEPTHWISE_CONV_2D: dict(_CONV_BASE, depth_multiplier=_pos_int),
    FULLY_CONNECTED: {"activation": _activation},
    MAX_POOL_2D: dict(_POOL),
    RELU: {},
    RESHAPE: {"new_shape": _pos_int_list},
    SOFTMAX: {"beta": is_number},
    PAD: {"paddings": _nonneg_int_list},
}


def option_problems(schema: dict, options: dict) -> list[str]:
    """Each way options breaks schema: a key missing, one unknown, or a
    value its checker refuses."""
    out = [f"missing required option '{key}'" for key in schema
           if key not in options]
    for key, value in options.items():
        if key not in schema:
            out.append(f"unknown option '{key}'")
        elif not schema[key](value):
            out.append(f"bad value for option '{key}': {value!r}")
    return out


# ---------------------------------------------------------------------------
# Operator rules, one a kind. A rule raises on a graph it rejects, and
# apply_rule names the operator.

_ACT_CLAMPS = {  # a fused activation's kernel parameters
    "NONE": {"activation_min": None, "activation_max": None},
    "RELU": {"activation_min": 0.0, "activation_max": None},
    "RELU6": {"activation_min": 0.0, "activation_max": 6.0},
}


def check_arity(in_shapes, *counts) -> None:
    if len(in_shapes) not in counts:
        raise GraphError(f"expects {' or '.join(map(str, counts))} input(s), "
                         f"got {len(in_shapes)}")


def same_padding(in_dim: int, out_dim: int, eff_k: int, stride: int) -> tuple[int, int]:
    """Total pre/post padding for SAME mode; pre gets the floor half."""
    total = max(0, (out_dim - 1) * stride + eff_k - in_dim)
    before = total // 2
    return before, total - before


def _window(o, x, fh, fw, dh, dw):
    """The output rows and columns, and the parameters, of a window of
    fh x fw taps dilated dh x dw over NHWC x, strided and padded as the
    options o say: conv's, depthwise's and both pools'."""
    if len(x) != 4:
        raise GraphError(f"input must be rank 4, got {x}")
    h, w = x[1], x[2]
    sh, sw = o["stride_h"], o["stride_w"]
    eh, ew = (fh - 1) * dh + 1, (fw - 1) * dw + 1
    if o["padding"] == "SAME":
        oh, ow = -(-h // sh), -(-w // sw)
        (pbh, pah), (pbw, paw) = (same_padding(h, oh, eh, sh),
                                  same_padding(w, ow, ew, sw))
    else:
        oh, ow = -(-(h - eh + 1) // sh), -(-(w - ew + 1) // sw)
        if oh < 1 or ow < 1:
            raise GraphError(f"window {eh}x{ew} larger than input {h}x{w}")
        pbh = pah = pbw = paw = 0
    return oh, ow, {
        "in_shape": x[1:], "filter_h": fh, "filter_w": fw,
        "stride_h": sh, "stride_w": sw,
        "pad_before_h": pbh, "pad_after_h": pah,
        "pad_before_w": pbw, "pad_after_w": paw,
        **_ACT_CLAMPS[o["activation"]],
    }


def _conv(o, in_shapes, consts, depthwise=False):
    check_arity(in_shapes, 2, 3)
    x, f = in_shapes[0], in_shapes[1]
    if len(f) != 4:
        raise GraphError(f"filter must be rank 4, got {f}")
    dh, dw = o["dilation_h"], o["dilation_w"]
    oh, ow, p = _window(o, x, f[1], f[2], dh, dw)
    if depthwise:
        cout = x[3] * o["depth_multiplier"]
        if f[0] != 1 or f[3] != cout:
            raise GraphError(f"filter shape {f} does not match channels "
                             f"{x[3]} x multiplier")
        p["depth_multiplier"] = o["depth_multiplier"]
    else:
        if f[3] != x[3]:
            raise GraphError(f"filter input channels {f[3]} do not match "
                             f"data channels {x[3]}")
        cout = f[0]
    if len(in_shapes) == 3 and in_shapes[2] != (cout,):
        raise GraphError(f"bias shape {in_shapes[2]} must be ({cout},)")
    p["out_shape"], p["dilation_h"], p["dilation_w"] = (oh, ow, cout), dh, dw
    return [(x[0], oh, ow, cout)], p


def _pool(o, in_shapes, consts):
    check_arity(in_shapes, 1)
    x = in_shapes[0]
    oh, ow, p = _window(o, x, o["filter_h"], o["filter_w"], 1, 1)
    p["out_shape"] = (oh, ow, x[3])
    return [(x[0], oh, ow, x[3])], p


def _fully_connected(o, in_shapes, consts):
    check_arity(in_shapes, 2, 3)
    x, wt = in_shapes[0], in_shapes[1]
    if len(x) != 2 or len(wt) != 2:
        raise GraphError("data and weights must be rank 2")
    if wt[1] != x[1]:
        raise GraphError(f"weight columns {wt[1]} do not match input "
                         f"features {x[1]}")
    if len(in_shapes) == 3 and in_shapes[2] != (wt[0],):
        raise GraphError(f"bias shape {in_shapes[2]} must be ({wt[0]},)")
    return [(x[0], wt[0])], {"in_features": x[1], "out_features": wt[0],
                             **_ACT_CLAMPS[o["activation"]]}


def _add(o, in_shapes, consts):
    check_arity(in_shapes, 2)
    a, b = in_shapes
    if a != b:
        raise GraphError(f"operand shapes {a} and {b} differ "
                         "(broadcast is not supported)")
    return [a], dict(_ACT_CLAMPS[o["activation"]])


def _relu(o, in_shapes, consts):
    check_arity(in_shapes, 1)
    return [in_shapes[0]], {}


def _softmax(o, in_shapes, consts):
    check_arity(in_shapes, 1)
    return [in_shapes[0]], {"in_shape": in_shapes[0], "beta": float(o["beta"])}


def _reshape(o, in_shapes, consts):
    check_arity(in_shapes, 1)
    x, new_shape = in_shapes[0], tuple(o["new_shape"])
    if math.prod(x) != math.prod(new_shape):
        raise GraphError(f"element count mismatch, {x} has {math.prod(x)} "
                         f"elements but new_shape {new_shape} has "
                         f"{math.prod(new_shape)}")
    return [new_shape], {}


def _concatenation(o, in_shapes, consts):
    if not in_shapes:
        raise GraphError("needs at least one input")
    x, axis = in_shapes[0], o["axis"]
    if not 0 <= axis < len(x):
        raise GraphError(f"axis {axis} out of range for rank {len(x)}")
    for s in in_shapes:
        if len(s) != len(x):
            raise GraphError("rank mismatch among inputs")
        for d in range(len(x)):
            if d != axis and s[d] != x[d]:
                raise GraphError(f"inputs disagree on dim {d}")
    out = (*x[:axis], sum(s[axis] for s in in_shapes), *x[axis + 1:])
    return [out], {
        "axis": axis, "in_shapes": tuple(in_shapes), "out_shape": out,
        "weight_slots": tuple(k for k, c in enumerate(consts) if c),
    }


def _pad(o, in_shapes, consts):
    check_arity(in_shapes, 1)
    x, flat = in_shapes[0], o["paddings"]
    if len(flat) != 2 * len(x):
        raise GraphError(f"paddings needs {2 * len(x)} values for rank "
                         f"{len(x)}, got {len(flat)}")
    pads = tuple(zip(flat[::2], flat[1::2]))
    out = tuple(d + a + b for d, (a, b) in zip(x, pads))
    return [out], {"in_shape": x[1:], "out_shape": out[1:], "paddings": pads}


RULES = {
    ADD: _add,
    AVERAGE_POOL_2D: _pool,
    CONCATENATION: _concatenation,
    CONV_2D: _conv,
    DEPTHWISE_CONV_2D: functools.partial(_conv, depthwise=True),
    FULLY_CONNECTED: _fully_connected,
    MAX_POOL_2D: _pool,
    RELU: _relu,
    RESHAPE: _reshape,
    SOFTMAX: _softmax,
    PAD: _pad,
}


# ---------------------------------------------------------------------------
# JSON side


def _canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def graph_to_obj(graph: ComputationalGraph) -> dict:
    tensors = []
    for t in graph.tensors:
        td = {
            "id": t.id,
            "name": t.name,
            "dtype": t.dtype.name,
            "shape": list(t.shape),
        }
        if t.weight_ref is not None:
            td["weight_ref"] = t.weight_ref
        tensors.append(td)
    operators = []
    for node in graph.operators:
        od = {
            "inputs": list(node.inputs),
            "outputs": list(node.outputs),
            "options": node.options,
        }
        if node.is_custom:
            od["custom_name"] = node.op_id
        else:
            od["opcode"] = node.op_id
        operators.append(od)
    return {
        "version": graph.version,
        "tensors": tensors,
        "operators": operators,
        "inputs": list(graph.inputs),
        "outputs": list(graph.outputs),
    }


def graph_to_json(graph: ComputationalGraph) -> str:
    """Canonical serialized form: lexicographic keys, compact separators."""
    return _canonical_dumps(graph_to_obj(graph))


def _require_keys(obj: dict, required: set, optional: set, what: str) -> None:
    keys = set(obj)
    missing = required - keys
    if missing:
        raise GraphError(f"{what}: missing field(s) {sorted(missing)}")
    extra = keys - required - optional
    if extra:
        raise GraphError(f"{what}: unknown field(s) {sorted(extra)}")


def _int_field(obj, key, what) -> int:
    v = obj[key]
    if type(v) is not int:
        raise GraphError(f"{what}: field '{key}' must be an integer")
    return v


def _int_list(v, what) -> tuple[int, ...]:
    if not isinstance(v, list) or not all(type(x) is int for x in v):
        raise GraphError(f"{what} must be a list of integers")
    return tuple(v)


def graph_from_obj(obj) -> ComputationalGraph:
    if not isinstance(obj, dict):
        raise GraphError("graph document must be a JSON object")
    _require_keys(obj, {"version", "tensors", "operators", "inputs", "outputs"},
                  set(), "graph")
    version = _int_field(obj, "version", "graph")
    if version != 1:
        raise GraphError(f"version mismatch: expected 1, got {version}")
    for key in ("tensors", "operators"):
        if not isinstance(obj[key], list):
            raise GraphError(f"graph: field '{key}' must be a list")

    tensors = []
    for i, td in enumerate(obj["tensors"]):
        what = f"tensor {i}"
        if not isinstance(td, dict):
            raise GraphError(f"{what}: must be an object")
        _require_keys(td, {"id", "name", "dtype", "shape"}, {"weight_ref"}, what)
        dtype_name = td["dtype"]
        if not isinstance(dtype_name, str) or dtype_name not in _DTYPE_BY_NAME:
            raise GraphError(f"{what}: unknown dtype {dtype_name!r}")
        if not isinstance(td["name"], str):
            raise GraphError(f"{what}: name must be a string")
        ref = None
        if "weight_ref" in td:
            ref = _int_field(td, "weight_ref", what)
        tensors.append(TensorSpec(
            id=_int_field(td, "id", what),
            name=td["name"],
            dtype=_DTYPE_BY_NAME[dtype_name],
            shape=_int_list(td["shape"], f"{what}: shape"),
            weight_ref=ref,
        ))

    operators = []
    for i, od in enumerate(obj["operators"]):
        what = f"operator {i}"
        if not isinstance(od, dict):
            raise GraphError(f"{what}: must be an object")
        _require_keys(od, {"inputs", "outputs", "options"},
                      {"opcode", "custom_name"}, what)
        has_code = "opcode" in od
        has_name = "custom_name" in od
        if has_code == has_name:
            raise GraphError(f"{what}: exactly one of opcode/custom_name required")
        if has_code:
            op_id: int | str = _int_field(od, "opcode", what)
        else:
            op_id = od["custom_name"]
            if not isinstance(op_id, str) or not op_id:
                raise GraphError(f"{what}: custom_name must be a non-empty string")
        if not isinstance(od["options"], dict):
            raise GraphError(f"{what}: options must be an object")
        operators.append(OperatorNode(
            op_id=op_id,
            inputs=_int_list(od["inputs"], f"{what}: inputs"),
            outputs=_int_list(od["outputs"], f"{what}: outputs"),
            options=od["options"],
        ))

    return ComputationalGraph(
        tensors=tensors,
        operators=operators,
        inputs=_int_list(obj["inputs"], "graph inputs"),
        outputs=_int_list(obj["outputs"], "graph outputs"),
        version=version,
    )


def graph_from_json(text: str) -> ComputationalGraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise GraphError(f"graph is not valid JSON: {e}") from None
    return graph_from_obj(obj)


# ---------------------------------------------------------------------------
# Binary weight side

_MAGIC = b"MLW0"


def weights_to_bytes(store: WeightStore) -> bytes:
    out = [_MAGIC, struct.pack("<I", len(store.entries))]
    for key in sorted(store.entries):
        entry = store.entries[key]
        out.append(struct.pack("<IBB", key, entry.dtype.code, len(entry.shape)))
        out.append(struct.pack(f"<{len(entry.shape)}I", *entry.shape))
        out.append(struct.pack("<Q", len(entry.data)))
        out.append(entry.data)
    return b"".join(out)


def weights_from_bytes(blob: bytes) -> WeightStore:
    if blob[:4] != _MAGIC:
        raise GraphError("bad weight store magic")
    pos = 4

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise GraphError(f"truncated weight store while reading {what}")
        chunk = blob[pos:pos + n]
        pos += n
        return chunk

    (count,) = struct.unpack("<I", take(4, "entry count"))
    store = WeightStore()
    for _ in range(count):
        key, code, rank = struct.unpack("<IBB", take(6, "entry header"))
        if key in store.entries:
            raise GraphError(f"duplicate weight key {key}")
        if code not in _DTYPE_BY_CODE:
            raise GraphError(f"weight {key}: unknown dtype code {code}")
        dtype = _DTYPE_BY_CODE[code]
        shape = struct.unpack(f"<{rank}I", take(4 * rank, "entry dims"))
        (nbytes,) = struct.unpack("<Q", take(8, "entry length"))
        if nbytes != dtype.byte_width * math.prod(shape):
            raise GraphError(
                f"weight {key}: byte length {nbytes} does not match dims {shape}")
        data = take(nbytes, f"weight {key} payload")
        store.entries[key] = WeightEntry(dtype, tuple(int(d) for d in shape), data)
    if pos != len(blob):
        raise GraphError(f"trailing bytes after weight entries ({len(blob) - pos})")
    return store


# ---------------------------------------------------------------------------
# Bundle IO


def save_bundle(bundle: ModelBundle, graph_path, weights_path) -> None:
    with open(graph_path, "w", encoding="utf-8") as f:
        f.write(graph_to_json(bundle.graph))
    with open(weights_path, "wb") as f:
        f.write(weights_to_bytes(bundle.weights))


def load_bundle(graph_path, weights_path, custom_rules=None) -> ModelBundle:
    with open(graph_path, "r", encoding="utf-8") as f:
        graph = graph_from_json(f.read())
    with open(weights_path, "rb") as f:
        weights = weights_from_bytes(f.read())
    bundle = ModelBundle(graph, weights)
    problems = validate(bundle, custom_rules=custom_rules)
    if problems:
        raise GraphError("invalid bundle: " + "; ".join(problems))
    return bundle


# ---------------------------------------------------------------------------
# Validation


def validate(bundle: ModelBundle, custom_rules=None) -> list[str]:
    """Return a list of violations; an empty list means the bundle is valid."""
    graph, store = bundle.graph, bundle.weights
    out: list[str] = []

    for i, t in enumerate(graph.tensors):
        if t.id != i:
            out.append(f"tensor {i}: id {t.id} does not match position")
        if len(t.shape) == 0 or any(d < 1 for d in t.shape):
            out.append(f"tensor {i}: shape {t.shape} must be positive")
            continue
        if math.prod(t.shape) >= 2 ** 63:
            out.append(f"tensor {i}: element count does not fit in int64")
        if t.weight_ref is not None:
            entry = store.entries.get(t.weight_ref)
            if entry is None:
                out.append(f"tensor {i}: weight_ref {t.weight_ref} not in store")
            else:
                if entry.dtype is not t.dtype:
                    out.append(f"tensor {i}: dtype differs from weight entry")
                if entry.shape != t.shape:
                    out.append(f"tensor {i}: shape differs from weight entry")

    if out:
        return out  # structural id/shape problems make later checks unreliable

    n_tensors = len(graph.tensors)
    weight_ids = {t.id for t in graph.tensors if t.weight_ref is not None}

    for name, ids in (("inputs", graph.inputs), ("outputs", graph.outputs)):
        for tid in ids:
            if not 0 <= tid < n_tensors:
                out.append(f"graph {name}: tensor id {tid} out of range")
        if len(set(ids)) != len(ids):
            out.append(f"graph {name}: duplicate ids")
    for name, ids in (("input", graph.inputs), ("output", graph.outputs)):
        if any(tid in weight_ids for tid in ids if 0 <= tid < n_tensors):
            out.append(f"graph {name}s: weight-backed tensor cannot be a "
                       f"graph {name}")
    if out:
        return out

    available = set(graph.inputs) | weight_ids
    produced_by: dict[int, int] = {}
    for i, node in enumerate(graph.operators):
        what = f"operator {i}"
        try:
            kind = op_kind(node)
        except GraphError as e:
            out.append(f"{what}: {e}")
            continue
        for tid in node.inputs:
            if not 0 <= tid < n_tensors:
                out.append(f"{what}: input tensor {tid} does not exist")
            elif tid not in available:
                out.append(f"{what}: input tensor {tid} is not yet produced "
                           "(operators must be topologically ordered)")
        for tid in node.outputs:
            if not 0 <= tid < n_tensors:
                out.append(f"{what}: output tensor {tid} does not exist")
                continue
            if tid in weight_ids:
                out.append(f"{what}: output tensor {tid} is weight-backed")
            elif tid in graph.inputs:
                out.append(f"{what}: output tensor {tid} is a graph input")
            elif tid in produced_by:
                out.append(f"{what}: tensor {tid} already produced by "
                           f"operator {produced_by[tid]}")
            else:
                produced_by[tid] = i
                available.add(tid)
        if not node.is_custom:
            out += [f"{what} ({kind}): {p}" for p in
                    option_problems(OPTION_SCHEMAS[node.op_id], node.options)]

    for tid in range(n_tensors):
        if tid not in available:
            out.append(f"tensor {tid}: neither weight-backed, graph input, "
                       "nor produced by any operator")
    for tid in graph.outputs:
        if tid not in available:
            out.append(f"graph outputs: tensor {tid} is never produced")

    if out:
        return out

    try:
        inferred = infer_shapes(graph, custom_rules=custom_rules)
    except GraphError as e:
        return [str(e)]
    for t in graph.tensors:
        if inferred[t.id] != t.shape:
            out.append(f"tensor {t.id}: declared shape {t.shape} contradicts "
                       f"inferred shape {inferred[t.id]}")
    for i, node in enumerate(graph.operators):
        # every kernel runs over an activation (lowering.LoweredOp.act_ids)
        if all(t in weight_ids for t in node.inputs):
            out.append(f"operator {i} ({op_kind(node)}): needs an input "
                       "that is not a weight")
        # a RESHAPE's output is a view of its input's buffer (lowering.py)
        if node.op_id == RESHAPE:
            a, b = (graph.tensors[t].dtype
                    for t in (node.inputs[0], node.outputs[0]))
            if a is not b:
                out.append(f"operator {i} (RESHAPE): output dtype {b.name} "
                           f"differs from input dtype {a.name}")
    return out


# ---------------------------------------------------------------------------
# Shape inference


def apply_rule(i: int, node: OperatorNode, in_shapes, consts,
               custom_rules=None) -> tuple[list, dict]:
    """Operator i's output shapes and kernel parameters, from its kind's
    rule: RULES for a builtin, custom_rules by name for a custom kind.
    Raises GraphError, naming the operator, where the rule rejects it or
    gives a shape count other than the node's output count."""
    rule = ((custom_rules or {}).get(node.op_id) if node.is_custom
            else RULES[node.op_id])
    try:
        if rule is None:
            raise GraphError("no shape rule for custom operator")
        shapes, params = rule(node.options, in_shapes, consts)
        shapes = [tuple(map(int, s)) for s in shapes]
        if len(shapes) != len(node.outputs):
            raise GraphError(f"produces {len(shapes)} shapes for "
                             f"{len(node.outputs)} outputs")
        return shapes, params
    except Exception as e:  # a custom rule may raise anything
        raise GraphError(f"operator {i} ({op_kind(node)}): {e}") from None


def infer_shapes(graph: ComputationalGraph, custom_rules=None) -> dict[int, tuple[int, ...]]:
    """Every tensor's shape: as declared for graph inputs and weights, and
    for the rest from each operator's rule, in graph order, which validate
    has checked is topological. Raises GraphError on a contradiction."""
    shapes = {t.id: t.shape for t in graph.tensors
              if t.weight_ref is not None or t.id in graph.inputs}
    for i, node in enumerate(graph.operators):
        out_shapes, _ = apply_rule(
            i, node, [shapes[t] for t in node.inputs],
            [graph.tensors[t].weight_ref is not None for t in node.inputs],
            custom_rules)
        shapes.update(zip(node.outputs, out_shapes))
    return shapes


# ---------------------------------------------------------------------------
# Summary


def summarize(bundle: ModelBundle) -> dict:
    """Machine-friendly description of a bundle (shapes, options, weight stats)."""
    graph, store = bundle.graph, bundle.weights
    by_id = {t.id: t for t in graph.tensors}
    ops = []
    for i, node in enumerate(graph.operators):
        ops.append({
            "index": i,
            "op": op_kind(node) if not node.is_custom else f"custom:{node.op_id}",
            "options": node.options,
            "input_shapes": [list(by_id[t].shape) for t in node.inputs],
            "output_shapes": [list(by_id[t].shape) for t in node.outputs],
        })
    weights = []
    for key in sorted(store.entries):
        arr = store.as_array(key)
        lo = hi = None
        if arr.size:  # arr.min() and arr.max() are numpy's Python layer
            lo = float(np.minimum.reduce(arr, axis=None))
            hi = float(np.maximum.reduce(arr, axis=None))
        weights.append({
            "key": key,
            "dtype": store.entries[key].dtype.name,
            "shape": list(store.entries[key].shape),
            "count": int(arr.size),
            "min": lo,
            "max": hi,
        })
    return {
        "version": graph.version,
        "inputs": [{"id": t, "shape": list(by_id[t].shape),
                    "dtype": by_id[t].dtype.name} for t in graph.inputs],
        "outputs": [{"id": t, "shape": list(by_id[t].shape),
                     "dtype": by_id[t].dtype.name} for t in graph.outputs],
        "operators": ops,
        "tensor_count": len(graph.tensors),
        "weights": weights,
    }
