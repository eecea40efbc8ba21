import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlfuse import cli, fixtures, graphir
from mlfuse.graphir import (
    CONV_2D,
    DEPTHWISE_CONV_2D,
    FULLY_CONNECTED,
    RESHAPE,
    ComputationalGraph,
    DataType,
    GraphError,
    ModelBundle,
    OperatorNode,
    TensorSpec,
    WeightStore,
    graph_from_json,
    graph_to_json,
    infer_shapes,
    load_bundle,
    same_padding,
    save_bundle,
    summarize,
    validate,
    weights_from_bytes,
    weights_to_bytes,
)
from mlfuse.kernels import default_registry


# -- serialization round trips ------------------------------------------------

@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_graph_json_round_trip(name):
    bundle = fixtures.build_fixture(name)
    text = graph_to_json(bundle.graph)
    again = graph_to_json(graph_from_json(text))
    assert text == again


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_weight_bytes_round_trip(name):
    bundle = fixtures.build_fixture(name)
    blob = weights_to_bytes(bundle.weights)
    store = weights_from_bytes(blob)
    assert weights_to_bytes(store) == blob
    for key in bundle.weights.entries:
        a = bundle.weights.as_array(key)
        b = store.as_array(key)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


def test_key_order_in_json_does_not_matter():
    bundle = fixtures.build_fixture("mlp")
    text = graph_to_json(bundle.graph)
    shuffled = json.dumps(json.loads(text), sort_keys=False, indent=2)
    assert graph_to_json(graph_from_json(shuffled)) == text


def test_save_load_bundle(tmp_path):
    bundle = fixtures.build_fixture("lenet")
    gp, wp = tmp_path / "m.mlg", tmp_path / "m.mlw"
    save_bundle(bundle, gp, wp)
    again = load_bundle(gp, wp)
    assert graph_to_json(again.graph) == graph_to_json(bundle.graph)
    assert weights_to_bytes(again.weights) == weights_to_bytes(bundle.weights)
    # byte determinism of the files themselves
    gp2, wp2 = tmp_path / "m2.mlg", tmp_path / "m2.mlw"
    save_bundle(fixtures.build_fixture("lenet"), gp2, wp2)
    assert gp.read_bytes() == gp2.read_bytes()
    assert wp.read_bytes() == wp2.read_bytes()


# -- strict parsing errors ----------------------------------------------------

def _mlp_obj():
    return json.loads(graph_to_json(fixtures.build_fixture("mlp").graph))


def _replace(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


def test_version_mismatch():
    obj = _mlp_obj()
    obj["version"] = 2
    with pytest.raises(GraphError, match="version mismatch"):
        graph_from_json(json.dumps(obj))


def test_unknown_top_level_field():
    obj = _mlp_obj()
    obj["extra"] = 1
    with pytest.raises(GraphError, match="unknown field"):
        graph_from_json(json.dumps(obj))


def test_missing_field():
    obj = _mlp_obj()
    del obj["tensors"]
    with pytest.raises(GraphError, match="missing field"):
        graph_from_json(json.dumps(obj))


def test_operator_needs_exactly_one_of_opcode_custom():
    obj = _mlp_obj()
    obj["operators"][0]["custom_name"] = "X"
    with pytest.raises(GraphError, match="exactly one of"):
        graph_from_json(json.dumps(obj))


@pytest.mark.parametrize("path, value", [
    (("tensors",), 5),
    (("operators",), 7),
    (("tensors", 0, "dtype"), ["F32"]),
    (("tensors", 0, "dtype"), {"F32": 1}),
], ids=["tensors-not-a-list", "operators-not-a-list", "dtype-list",
        "dtype-object"])
def test_wrongly_typed_fields_raise_graph_error(path, value):
    obj = _mlp_obj()
    _replace(obj, path, value)
    with pytest.raises(GraphError):
        graph_from_json(json.dumps(obj))


def test_not_json():
    with pytest.raises(GraphError, match="not valid JSON"):
        graph_from_json("{nope")


def test_weight_store_bad_magic():
    blob = weights_to_bytes(fixtures.build_fixture("mlp").weights)
    with pytest.raises(GraphError, match="magic"):
        weights_from_bytes(b"XXXX" + blob[4:])


def test_weight_store_truncated():
    blob = weights_to_bytes(fixtures.build_fixture("mlp").weights)
    with pytest.raises(GraphError, match="truncated"):
        weights_from_bytes(blob[:-3])


def test_weight_store_trailing_bytes():
    blob = weights_to_bytes(fixtures.build_fixture("mlp").weights)
    with pytest.raises(GraphError, match="trailing"):
        weights_from_bytes(blob + b"\x00")


def test_weight_store_duplicate_key():
    # one entry written twice, under a count of two
    store = WeightStore()
    store.put_array(7, np.zeros(2, np.float32))
    blob = weights_to_bytes(store)
    with pytest.raises(GraphError, match="duplicate weight key 7"):
        weights_from_bytes(blob[:4] + struct.pack("<I", 2) + blob[8:] * 2)


# -- validation ---------------------------------------------------------------

def _tiny_bundle():
    """FULLY_CONNECTED [1,2]x[3,2] -> [1,3]."""
    g = ComputationalGraph(
        tensors=[
            TensorSpec(0, "x", DataType.F32, (1, 2)),
            TensorSpec(1, "w", DataType.F32, (3, 2), weight_ref=0),
            TensorSpec(2, "y", DataType.F32, (1, 3)),
        ],
        operators=[OperatorNode(FULLY_CONNECTED, (0, 1), (2,),
                                {"activation": "NONE"})],
        inputs=(0,), outputs=(2,))
    store = WeightStore()
    store.put_array(0, np.ones((3, 2), dtype=np.float32))
    return ModelBundle(g, store)


def test_validate_ok():
    assert validate(_tiny_bundle()) == []


def test_validate_declared_shape_contradicts_inferred():
    b = _tiny_bundle()
    tensors = list(b.graph.tensors)
    tensors[2] = TensorSpec(2, "y", DataType.F32, (1, 4))
    bad = ModelBundle(ComputationalGraph(tensors, b.graph.operators,
                                         b.graph.inputs, b.graph.outputs),
                      b.weights)
    assert any("shape" in p for p in validate(bad))


def test_validate_weight_shape_mismatch():
    b = _tiny_bundle()
    store = WeightStore()
    store.put_array(0, np.ones((2, 2), dtype=np.float32))
    assert any("weight" in p for p in validate(ModelBundle(b.graph, store)))


def test_validate_orphan_tensor():
    b = _tiny_bundle()
    tensors = list(b.graph.tensors) + [TensorSpec(3, "junk", DataType.F32,
                                                  (4,))]
    bad = ModelBundle(ComputationalGraph(tensors, b.graph.operators,
                                         b.graph.inputs, b.graph.outputs),
                      b.weights)
    assert any("nor produced by any operator" in p for p in validate(bad))


def test_validate_rejects_weight_backed_graph_output():
    b = _tiny_bundle()
    bad = ModelBundle(ComputationalGraph(list(b.graph.tensors),
                                         b.graph.operators, b.graph.inputs,
                                         (2, 1)),
                      b.weights)
    assert validate(bad) == ["graph outputs: weight-backed tensor cannot be "
                             "a graph output"]


def test_validate_use_before_def():
    g = ComputationalGraph(
        tensors=[
            TensorSpec(0, "x", DataType.F32, (4,)),
            TensorSpec(1, "t", DataType.F32, (4,)),
            TensorSpec(2, "y", DataType.F32, (4,)),
        ],
        operators=[
            OperatorNode(RESHAPE, (1,), (2,), {"new_shape": [4]}),
            OperatorNode(RESHAPE, (0,), (1,), {"new_shape": [4]}),
        ],
        inputs=(0,), outputs=(2,))
    problems = validate(ModelBundle(g, WeightStore()))
    assert any("not yet produced" in p for p in problems)


def test_validate_bad_option_value():
    b = _tiny_bundle()
    ops = [OperatorNode(FULLY_CONNECTED, (0, 1), (2,),
                        {"activation": "TANH"})]
    bad = ModelBundle(ComputationalGraph(list(b.graph.tensors), ops,
                                         b.graph.inputs, b.graph.outputs),
                      b.weights)
    assert any("activation" in p for p in validate(bad))


def test_validate_missing_option():
    b = _tiny_bundle()
    ops = [OperatorNode(FULLY_CONNECTED, (0, 1), (2,), {})]
    bad = ModelBundle(ComputationalGraph(list(b.graph.tensors), ops,
                                         b.graph.inputs, b.graph.outputs),
                      b.weights)
    assert any("activation" in p for p in validate(bad))


def test_validate_custom_without_rule():
    b = fixtures.build_fixture("custom")
    problems = validate(b)  # no custom rules supplied
    assert any("no shape rule" in p for p in problems)
    from mlfuse.kernels import default_registry
    rules = default_registry().custom_shape_rules()
    assert validate(b, custom_rules=rules) == []


# -- shape arithmetic ---------------------------------------------------------

def test_same_padding_examples():
    # stride 1: total pad = k - 1
    assert same_padding(28, 28, 5, 1) == (2, 2)
    # stride 2 on even input
    assert same_padding(8, 4, 3, 2) == (0, 1)
    # window exactly covers input
    assert same_padding(4, 1, 4, 4) == (0, 0)


def test_infer_shapes_lenet():
    g = fixtures.build_fixture("lenet").graph
    shapes = infer_shapes(g)
    assert shapes[g.outputs[0]] == (1, 10)
    by_name = {t.name: shapes[t.id] for t in g.tensors}
    assert by_name["conv1"] == (1, 24, 24, 6)
    assert by_name["pool1"] == (1, 12, 12, 6)
    assert by_name["conv2"] == (1, 8, 8, 16)


def test_infer_shapes_same_padding_conv():
    g = fixtures.build_fixture("dwblock").graph
    shapes = infer_shapes(g)
    # depthwise 3x3 SAME stride 1 keeps spatial dims
    assert shapes[g.outputs[0]] == (1, 8, 8, 4)


def test_summarize_keys():
    info = summarize(fixtures.build_fixture("lenet"))
    assert info["tensor_count"] == 20
    assert len(info["operators"]) == 9
    assert info["operators"][0]["op"] == "CONV_2D"
    assert len(info["weights"]) == 10
    assert all(w["count"] > 0 for w in info["weights"])


# -- properties ---------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(
        st.sampled_from([np.float32, np.int32]),
        st.lists(st.integers(1, 4), min_size=1, max_size=3)),
    min_size=0, max_size=5))
def test_weight_store_round_trip_property(specs):
    rng = np.random.default_rng(0)
    store = WeightStore()
    for key, (dt, shape) in enumerate(specs):
        if dt is np.float32:
            store.put_array(key, rng.uniform(-1, 1, shape).astype(dt))
        else:
            store.put_array(key, rng.integers(-9, 9, shape, dtype=dt))
    blob = weights_to_bytes(store)
    again = weights_from_bytes(blob)
    assert weights_to_bytes(again) == blob
    assert set(again.entries) == set(store.entries)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.integers(1, 8), st.integers(1, 4),
       st.integers(1, 3))
def test_same_padding_property(in_dim, k, stride, dilation):
    eff = (k - 1) * dilation + 1
    out = -(-in_dim // stride)  # ceil
    before, after = same_padding(in_dim, out, eff, stride)
    assert before >= 0 and after >= 0
    assert after - before in (0, 1)  # extra pad goes after
    # the padded input must reproduce the declared output size
    assert (in_dim + before + after - eff) // stride + 1 == out


def _field_paths(node, prefix=()):
    """Every key path into a JSON document, containers and leaves alike."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


_LENET = fixtures.build_fixture("lenet")
_LENET_OBJ = json.loads(graph_to_json(_LENET.graph))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(_field_paths(_LENET_OBJ))), _JSON_VALUES)
def test_any_field_replaced_raises_only_graph_error(path, value):
    obj = json.loads(json.dumps(_LENET_OBJ))
    _replace(obj, path, value)
    try:
        graph = graph_from_json(json.dumps(obj))
        validate(ModelBundle(graph, _LENET.weights))
    except GraphError:
        pass


_MLP = fixtures.build_fixture("mlp")
_MLP_BLOB = weights_to_bytes(_MLP.weights)


def _splice(at, cut, insert):
    """The mlp weight blob with `cut` bytes from `at` on replaced."""
    return _MLP_BLOB[:at] + insert + _MLP_BLOB[at + cut:]


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=64).map(lambda tail: _MLP_BLOB[:4] + tail),
    st.builds(_splice, st.integers(0, len(_MLP_BLOB)), st.integers(0, 8),
              st.binary(max_size=8))))
def test_any_weight_blob_raises_only_graph_error(blob):
    # arbitrary bytes, bytes behind a valid magic, and valid blobs with a
    # stretch replaced, through the parser and the bundle check behind it
    try:
        validate(ModelBundle(_MLP.graph, weights_from_bytes(blob)))
    except GraphError:
        pass


# -- every reachable container rejection ---------------------------------------

_CONV = {"stride_h": 1, "stride_w": 1, "dilation_h": 1, "dilation_w": 1,
         "padding": "VALID", "activation": "NONE"}
_DEPTHWISE = dict(_CONV, depth_multiplier=1)
_POOL = {"filter_h": 3, "filter_w": 3, "stride_h": 1, "stride_w": 1,
         "padding": "VALID", "activation": "NONE"}
_NONE = {"activation": "NONE"}


def _doc(operators, shapes, weights=(), inputs=(0,), outputs=None):
    """A minimal graph document and its weight store. Tensor i has
    shapes[i]; those in weights are weight-backed, zeros under key i; an
    operator is (opcode or custom name, inputs, outputs, options). The
    graph's output is the last tensor unless outputs says otherwise."""
    store = WeightStore()
    for i in weights:
        store.put_array(i, np.zeros(shapes[i], np.float32))
    return {
        "version": 1,
        "tensors": [{"id": i, "name": f"t{i}", "dtype": "F32",
                     "shape": list(s), **({"weight_ref": i} if i in weights
                                          else {})}
                    for i, s in enumerate(shapes)],
        "operators": [{"opcode" if type(op) is int else "custom_name": op,
                       "inputs": list(a), "outputs": list(b), "options": o}
                      for op, a, b, o in operators],
        "inputs": list(inputs),
        "outputs": [len(shapes) - 1] if outputs is None else list(outputs),
    }, store


def _relu(**kw):
    return _doc([(graphir.RELU, [0], [1], {})], [(1, 4), (1, 4)], **kw)


def _edited(case, edit):
    doc, store = case
    edit(doc)
    return doc, store


def _one(op, shapes, options, weights=(), inputs=None):
    """One operator over every tensor but the last, which it writes."""
    ins = list(range(len(shapes) - 1)) if inputs is None else inputs
    return _doc([(op, ins, [len(shapes) - 1], options)], shapes,
                weights=weights)


_REJECTIONS = {
    # validate's structure checks
    "unknown-opcode": (
        _doc([(99, [0], [1], {})], [(1, 4), (1, 4)]),
        "operator 0: unknown opcode 99"),
    "input-id-out-of-range": (
        _relu(inputs=(0, 5)), "graph inputs: tensor id 5 out of range"),
    "input-id-duplicated": (
        _relu(inputs=(0, 0)), "graph inputs: duplicate ids"),
    "output-id-out-of-range": (
        _relu(outputs=(5,)), "graph outputs: tensor id 5 out of range"),
    "output-id-duplicated": (
        _relu(outputs=(1, 1)), "graph outputs: duplicate ids"),
    "input-tensor-missing": (
        _doc([(graphir.RELU, [7], [1], {})], [(1, 4), (1, 4)]),
        "operator 0: input tensor 7 does not exist"),
    "output-tensor-missing": (
        _doc([(graphir.RELU, [0], [7], {})], [(1, 4), (1, 4)]),
        "operator 0: output tensor 7 does not exist"),
    "output-weight-backed": (
        _doc([(graphir.RELU, [0], [1], {})], [(1, 4), (1, 4), (1, 4)],
             weights=(1,)),
        "operator 0: output tensor 1 is weight-backed"),
    "output-is-graph-input": (
        _doc([(graphir.RELU, [0], [0], {})], [(1, 4)]),
        "operator 0: output tensor 0 is a graph input"),
    "output-produced-twice": (
        _doc([(graphir.RELU, [0], [1], {}), (graphir.RELU, [0], [1], {})],
             [(1, 4), (1, 4)]),
        "operator 1: tensor 1 already produced by operator 0"),
    "graph-output-never-produced": (
        _doc([(graphir.RELU, [0], [1], {})], [(1, 4), (1, 4), (1, 4)]),
        "graph outputs: tensor 2 is never produced"),
    "weight-ref-not-in-store": (
        _edited(_one(graphir.ADD, [(1, 4), (1, 4), (1, 4)], _NONE,
                     weights=(1,)),
                lambda d: d["tensors"][1].update(weight_ref=5)),
        "tensor 1: weight_ref 5 not in store"),
    "weight-dtype-differs": (
        _edited(_one(graphir.ADD, [(1, 4), (1, 4), (1, 4)], _NONE,
                     weights=(1,)),
                lambda d: d["tensors"][1].update(dtype="I32")),
        "tensor 1: dtype differs from weight entry"),
    "element-count-over-int64": (
        _edited(_relu(), lambda d: d["tensors"][0].update(
            shape=[2 ** 32, 2 ** 31])),
        "tensor 0: element count does not fit in int64"),
    "shapes-for-outputs": (
        _doc([(graphir.RELU, [0], [1, 2], {})], [(1, 4), (1, 4), (1, 4)]),
        "operator 0 (RELU): produces 1 shapes for 2 outputs"),
    "weights-alone": (
        _one(graphir.ADD, [(1, 4), (1, 4), (1, 4), (1, 4)], _NONE,
             weights=(1, 2), inputs=[1, 2]),
        "operator 0 (ADD): needs an input that is not a weight"),
    # each rule's rejections
    "conv-arity": (
        _one(CONV_2D, [(1, 4, 4, 1), (1, 3, 3, 1)], _CONV, inputs=[0]),
        "operator 0 (CONV_2D): expects 2 or 3 input(s), got 1"),
    "conv-data-rank": (
        _one(CONV_2D, [(1, 4, 4), (1, 2, 2, 1), (1, 3, 3, 1)], _CONV,
             weights=(1,)),
        "operator 0 (CONV_2D): input must be rank 4, got (1, 4, 4)"),
    "conv-filter-rank": (
        _one(CONV_2D, [(1, 4, 4, 1), (2, 2, 1), (1, 3, 3, 1)], _CONV,
             weights=(1,)),
        "operator 0 (CONV_2D): filter must be rank 4, got (2, 2, 1)"),
    "conv-channels": (
        _one(CONV_2D, [(1, 4, 4, 2), (1, 2, 2, 3), (1, 3, 3, 1)], _CONV,
             weights=(1,)),
        "operator 0 (CONV_2D): filter input channels 3 do not match data "
        "channels 2"),
    "conv-bias": (
        _one(CONV_2D, [(1, 4, 4, 1), (2, 2, 2, 1), (3,), (1, 3, 3, 2)], _CONV,
             weights=(1, 2)),
        "operator 0 (CONV_2D): bias shape (3,) must be (2,)"),
    "depthwise-arity": (
        _one(DEPTHWISE_CONV_2D, [(1, 4, 4, 1), (1, 3, 3, 1)], _DEPTHWISE,
             inputs=[0]),
        "operator 0 (DEPTHWISE_CONV_2D): expects 2 or 3 input(s), got 1"),
    "depthwise-data-rank": (
        _one(DEPTHWISE_CONV_2D, [(4, 4, 1), (1, 2, 2, 1), (1, 3, 3, 1)],
             _DEPTHWISE, weights=(1,)),
        "operator 0 (DEPTHWISE_CONV_2D): input must be rank 4, got "
        "(4, 4, 1)"),
    "depthwise-filter-shape": (
        _one(DEPTHWISE_CONV_2D, [(1, 4, 4, 2), (1, 2, 2, 3), (1, 3, 3, 2)],
             _DEPTHWISE, weights=(1,)),
        "operator 0 (DEPTHWISE_CONV_2D): filter shape (1, 2, 2, 3) does not "
        "match channels 2 x multiplier"),
    "depthwise-bias": (
        _one(DEPTHWISE_CONV_2D,
             [(1, 4, 4, 2), (1, 2, 2, 2), (1,), (1, 3, 3, 2)], _DEPTHWISE,
             weights=(1, 2)),
        "operator 0 (DEPTHWISE_CONV_2D): bias shape (1,) must be (2,)"),
    "pool-rank": (
        _one(graphir.MAX_POOL_2D, [(1, 4, 4), (1, 2, 2, 1)], _POOL),
        "operator 0 (MAX_POOL_2D): input must be rank 4, got (1, 4, 4)"),
    "pool-valid-window-over-input": (
        _one(graphir.AVERAGE_POOL_2D, [(1, 2, 4, 1), (1, 1, 2, 1)], _POOL),
        "operator 0 (AVERAGE_POOL_2D): window 3x3 larger than input 2x4"),
    "fc-rank": (
        _one(FULLY_CONNECTED, [(1, 2, 2), (3, 4), (1, 3)], _NONE,
             weights=(1,)),
        "operator 0 (FULLY_CONNECTED): data and weights must be rank 2"),
    "fc-columns": (
        _one(FULLY_CONNECTED, [(1, 4), (3, 5), (1, 3)], _NONE, weights=(1,)),
        "operator 0 (FULLY_CONNECTED): weight columns 5 do not match input "
        "features 4"),
    "fc-bias": (
        _one(FULLY_CONNECTED, [(1, 4), (3, 4), (4,), (1, 3)], _NONE,
             weights=(1, 2)),
        "operator 0 (FULLY_CONNECTED): bias shape (4,) must be (3,)"),
    "add-shapes": (
        _one(graphir.ADD, [(1, 4), (1, 3), (1, 4)], _NONE, weights=(1,)),
        "operator 0 (ADD): operand shapes (1, 4) and (1, 3) differ "
        "(broadcast is not supported)"),
    "add-arity": (
        _one(graphir.ADD, [(1, 4), (1, 4)], _NONE),
        "operator 0 (ADD): expects 2 input(s), got 1"),
    "concatenation-no-inputs": (
        _one(graphir.CONCATENATION, [(1, 4), (1, 4)], {"axis": 0},
             inputs=[]),
        "operator 0 (CONCATENATION): needs at least one input"),
    "concatenation-axis": (
        _one(graphir.CONCATENATION, [(1, 4), (1, 4)], {"axis": 2}),
        "operator 0 (CONCATENATION): axis 2 out of range for rank 2"),
    "concatenation-rank": (
        _one(graphir.CONCATENATION, [(1, 4), (1, 2, 2), (1, 8)], {"axis": 1},
             weights=(1,)),
        "operator 0 (CONCATENATION): rank mismatch among inputs"),
    "concatenation-dim": (
        _one(graphir.CONCATENATION, [(1, 4), (2, 4), (1, 8)], {"axis": 1},
             weights=(1,)),
        "operator 0 (CONCATENATION): inputs disagree on dim 0"),
    "pad-paddings-count": (
        _one(graphir.PAD, [(1, 4), (1, 5)], {"paddings": [0, 0, 1]}),
        "operator 0 (PAD): paddings needs 4 values for rank 2, got 3"),
    "reshape-count": (
        _one(RESHAPE, [(1, 4), (3,)], {"new_shape": [3]}),
        "operator 0 (RESHAPE): element count mismatch, (1, 4) has 4 elements "
        "but new_shape (3,) has 3"),
    # graph_from_obj
    "document-not-an-object": (
        ([], WeightStore()), "graph document must be a JSON object"),
    "operator-not-an-object": (
        _edited(_relu(), lambda d: d["operators"].__setitem__(0, 5)),
        "operator 0: must be an object"),
    "custom-name-empty": (
        _doc([("", [0], [1], {})], [(1, 4), (1, 4)]),
        "operator 0: custom_name must be a non-empty string"),
}


@pytest.mark.parametrize("name", sorted(_REJECTIONS))
def test_every_reachable_rejection_names_its_cause(tmp_path, capsys, name):
    # each check of the container, reached by a minimal graph: validate (or
    # the parser before it) names the cause, and inspect exits 2 in one line
    (doc, store), message = _REJECTIONS[name]
    rules = default_registry().custom_shape_rules()
    try:
        problems = validate(ModelBundle(graph_from_json(json.dumps(doc)),
                                        store), custom_rules=rules)
    except GraphError as e:
        problems = [str(e)]
    assert message in problems
    g, w = tmp_path / "m.mlg", tmp_path / "m.mlw"
    g.write_text(json.dumps(doc), encoding="utf-8")
    w.write_bytes(weights_to_bytes(store))
    assert cli._main(["inspect", str(g), str(w)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_weight_store_rejects_a_duplicate_key_and_an_unsupported_dtype():
    store = WeightStore()
    store.put_array(0, np.zeros(2, np.float32))
    with pytest.raises(GraphError, match="duplicate weight key 0"):
        store.put_array(0, np.zeros(2, np.float32))
    with pytest.raises(GraphError, match="unsupported weight dtype <f8"):
        store.put_array(1, np.zeros(2, np.float64))


# -- one rule per operator kind ------------------------------------------------

# the output shape and parameters each case resolved to before the rules
# were one table, from registry.map_options_to_params over
# graphir.infer_shapes; no fixture builds ADD, AVERAGE_POOL_2D,
# CONCATENATION or PAD
_RESOLVED = [
    ("conv", CONV_2D, [(1, 5, 5, 2), (3, 3, 3, 2), (3,)], [0, 1, 1],
     dict(_CONV, activation="RELU"),
     (1, 3, 3, 3),
     {'in_shape': (5, 5, 2), 'out_shape': (3, 3, 3), 'filter_h': 3,
      'filter_w': 3, 'stride_h': 1, 'stride_w': 1, 'dilation_h': 1,
      'dilation_w': 1, 'pad_before_h': 0, 'pad_after_h': 0,
      'pad_before_w': 0, 'pad_after_w': 0, 'activation_min': 0.0,
      'activation_max': None}),
    ("conv-strided-dilated-same", CONV_2D,
     [(1, 7, 7, 2), (2, 3, 2, 2), (2,)], [0, 1, 1],
     dict(stride_h=2, stride_w=2, dilation_h=2, dilation_w=1,
          padding="SAME", activation="RELU6"),
     (1, 4, 4, 2),
     {'in_shape': (7, 7, 2), 'out_shape': (4, 4, 2), 'filter_h': 3,
      'filter_w': 2, 'stride_h': 2, 'stride_w': 2, 'dilation_h': 2,
      'dilation_w': 1, 'pad_before_h': 2, 'pad_after_h': 2,
      'pad_before_w': 0, 'pad_after_w': 1, 'activation_min': 0.0,
      'activation_max': 6.0}),
    ("depthwise", DEPTHWISE_CONV_2D, [(1, 4, 4, 3), (1, 3, 3, 3), (3,)],
     [0, 1, 1], dict(_DEPTHWISE, padding="SAME"),
     (1, 4, 4, 3),
     {'in_shape': (4, 4, 3), 'out_shape': (4, 4, 3), 'filter_h': 3,
      'filter_w': 3, 'stride_h': 1, 'stride_w': 1, 'dilation_h': 1,
      'dilation_w': 1, 'pad_before_h': 1, 'pad_after_h': 1,
      'pad_before_w': 1, 'pad_after_w': 1, 'activation_min': None,
      'activation_max': None, 'depth_multiplier': 1}),
    ("depthwise-multiplier-2", DEPTHWISE_CONV_2D,
     [(1, 5, 5, 2), (1, 2, 2, 4), (4,)], [0, 1, 1],
     dict(_CONV, stride_h=2, stride_w=2, activation="RELU",
          depth_multiplier=2),
     (1, 2, 2, 4),
     {'in_shape': (5, 5, 2), 'out_shape': (2, 2, 4), 'filter_h': 2,
      'filter_w': 2, 'stride_h': 2, 'stride_w': 2, 'dilation_h': 1,
      'dilation_w': 1, 'pad_before_h': 0, 'pad_after_h': 0,
      'pad_before_w': 0, 'pad_after_w': 0, 'activation_min': 0.0,
      'activation_max': None, 'depth_multiplier': 2}),
    ("max-pool", graphir.MAX_POOL_2D, [(1, 4, 4, 2)], [0],
     dict(_POOL, filter_h=2, filter_w=2, stride_h=2, stride_w=2),
     (1, 2, 2, 2),
     {'in_shape': (4, 4, 2), 'out_shape': (2, 2, 2), 'filter_h': 2,
      'filter_w': 2, 'stride_h': 2, 'stride_w': 2, 'pad_before_h': 0,
      'pad_after_h': 0, 'pad_before_w': 0, 'pad_after_w': 0,
      'activation_min': None, 'activation_max': None}),
    ("average-pool-same", graphir.AVERAGE_POOL_2D, [(1, 3, 3, 1)], [0],
     dict(filter_h=2, filter_w=2, stride_h=2, stride_w=2, padding="SAME",
          activation="RELU6"),
     (1, 2, 2, 1),
     {'in_shape': (3, 3, 1), 'out_shape': (2, 2, 1), 'filter_h': 2,
      'filter_w': 2, 'stride_h': 2, 'stride_w': 2, 'pad_before_h': 0,
      'pad_after_h': 1, 'pad_before_w': 0, 'pad_after_w': 1,
      'activation_min': 0.0, 'activation_max': 6.0}),
    ("average-pool-valid", graphir.AVERAGE_POOL_2D, [(1, 5, 4, 2)], [0],
     dict(_POOL, filter_h=3, filter_w=2, stride_h=1, stride_w=2),
     (1, 3, 2, 2),
     {'in_shape': (5, 4, 2), 'out_shape': (3, 2, 2), 'filter_h': 3,
      'filter_w': 2, 'stride_h': 1, 'stride_w': 2, 'pad_before_h': 0,
      'pad_after_h': 0, 'pad_before_w': 0, 'pad_after_w': 0,
      'activation_min': None, 'activation_max': None}),
    ("fully-connected", FULLY_CONNECTED, [(1, 6), (4, 6), (4,)], [0, 1, 1],
     {"activation": "RELU"},
     (1, 4),
     {'in_features': 6, 'out_features': 4, 'activation_min': 0.0,
      'activation_max': None}),
    ("fully-connected-no-bias", FULLY_CONNECTED, [(2, 3), (5, 3)], [0, 1],
     _NONE,
     (2, 5),
     {'in_features': 3, 'out_features': 5, 'activation_min': None,
      'activation_max': None}),
    ("relu", graphir.RELU, [(1, 4)], [0], {}, (1, 4), {}),
    ("reshape", RESHAPE, [(1, 2, 3)], [0], {"new_shape": [1, 6]}, (1, 6), {}),
    ("softmax", graphir.SOFTMAX, [(1, 5)], [0], {"beta": 1},
     (1, 5),
     {'in_shape': (1, 5), 'beta': 1.0}),
    ("softmax-rank-1", graphir.SOFTMAX, [(5,)], [0], {"beta": 0.5},
     (5,),
     {'in_shape': (5,), 'beta': 0.5}),
    ("add", graphir.ADD, [(1, 4), (1, 4)], [0, 0], {"activation": "RELU6"},
     (1, 4),
     {'activation_min': 0.0, 'activation_max': 6.0}),
    ("concatenation", graphir.CONCATENATION, [(1, 2, 3), (1, 2, 1)], [0, 0],
     {"axis": 2},
     (1, 2, 4),
     {'axis': 2, 'in_shapes': ((1, 2, 3), (1, 2, 1)), 'out_shape': (1, 2, 4),
      'weight_slots': ()}),
    ("concatenation-weight-part", graphir.CONCATENATION, [(1, 4), (1, 2)],
     [0, 1], {"axis": 1},
     (1, 6),
     {'axis': 1, 'in_shapes': ((1, 4), (1, 2)), 'out_shape': (1, 6),
      'weight_slots': (1,)}),
    ("pad", graphir.PAD, [(1, 2, 3)], [0], {"paddings": [0, 0, 1, 2, 0, 1]},
     (1, 5, 4),
     {'in_shape': (2, 3), 'out_shape': (5, 4),
      'paddings': ((0, 0), (1, 2), (0, 1))}),
    ("scale-shift", "SCALE_SHIFT", [(1, 4)], [0], {"scale": 2, "shift": -1},
     (1, 4),
     {'scale': 2.0, 'shift': -1.0}),
]


@pytest.mark.parametrize("case", _RESOLVED, ids=[c[0] for c in _RESOLVED])
def test_each_rule_resolves_what_the_two_tables_did(case):
    _, op, in_shapes, consts, options, out_shape, values = case
    rules = {**graphir.RULES, **default_registry().custom_shape_rules()}
    shapes, params = rules[op](options, in_shapes, [bool(c) for c in consts])
    assert [tuple(s) for s in shapes] == [out_shape]
    # repr tells 1 from 1.0 and a tuple from a list, which == does not
    assert {k: repr(v) for k, v in params.items()} == \
        {k: repr(v) for k, v in values.items()}


def test_every_kind_has_one_rule():
    assert set(graphir.RULES) == set(graphir.OPTION_SCHEMAS) \
        == set(graphir.OPCODE_NAMES)
    custom = default_registry().custom_shape_rules()
    for unit in default_registry().units():
        assert unit.key.op_id in graphir.RULES or unit.key.op_id in custom
