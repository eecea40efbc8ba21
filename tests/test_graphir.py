import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlfuse import fixtures, graphir
from mlfuse.graphir import (
    CONV_2D,
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
