import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mlfuse import cli, graphir


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Fixture containers plus one compiled artifact, shared per module."""
    root = tmp_path_factory.mktemp("cli")
    for name in ("identity", "mlp"):
        assert cli.main(["build-fixture", name, "--out", str(root)]) == 0
    art = root / "mlp_build"
    assert cli.main(["codegen", str(root / "mlp.mlg"), str(root / "mlp.mlw"),
                     "--out", str(art)]) == 0
    return root


def _paths(workdir, name):
    return str(workdir / f"{name}.mlg"), str(workdir / f"{name}.mlw")


# -- usage and loading --------------------------------------------------------

def test_no_arguments_is_a_usage_error(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_unknown_fixture_name_is_a_usage_error(capsys):
    assert cli.main(["build-fixture", "resnet"]) == 2
    capsys.readouterr()


def test_missing_container_maps_to_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.mlg")
    assert cli.main(["inspect", missing, missing]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("tensors", 5),
    ("operators", 7),
    ("dtype", ["F32"]),
], ids=["tensors-not-a-list", "operators-not-a-list", "dtype-list"])
def test_malformed_graph_document_exits_2_without_traceback(workdir, tmp_path,
                                                            field, value):
    gp, wp = _paths(workdir, "identity")
    obj = json.loads(Path(gp).read_text(encoding="utf-8"))
    if field == "dtype":
        obj["tensors"][0]["dtype"] = value
    else:
        obj[field] = value
    bad = tmp_path / "bad.mlg"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "mlfuse.cli", "codegen", str(bad), wp,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")


@pytest.mark.parametrize("command", ["run", "codegen"])
def test_weight_backed_graph_output_exits_2(tmp_path, capsys, command):
    # RELU x -> y, with outputs (y, w) where w is a weight
    g = graphir.ComputationalGraph(
        tensors=[
            graphir.TensorSpec(0, "x", graphir.DataType.F32, (1, 4)),
            graphir.TensorSpec(1, "w", graphir.DataType.F32, (1, 4),
                               weight_ref=0),
            graphir.TensorSpec(2, "y", graphir.DataType.F32, (1, 4)),
        ],
        operators=[graphir.OperatorNode(graphir.RELU, (0,), (2,), {})],
        inputs=(0,), outputs=(2, 1))
    store = graphir.WeightStore()
    store.put_array(0, np.ones((1, 4), dtype=np.float32))
    gp, wp = tmp_path / "m.mlg", tmp_path / "m.mlw"
    graphir.save_bundle(graphir.ModelBundle(g, store), gp, wp)
    (tmp_path / "in.raw").write_bytes(np.zeros(4, "<f4").tobytes())
    argv = {"run": ["run", str(gp), str(wp), str(tmp_path / "in.raw"),
                    str(tmp_path / "out.raw")],
            "codegen": ["codegen", str(gp), str(wp),
                        "--out", str(tmp_path / "out")]}[command]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "weight-backed tensor cannot be a graph output" in err
    assert not (tmp_path / "out").exists()


def test_build_fixture_json_names_both_files(tmp_path, capsys):
    assert cli.main(["build-fixture", "identity", "--out", str(tmp_path),
                     "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert Path(obj["graph"]).is_file() and Path(obj["weights"]).is_file()


# -- inspect ------------------------------------------------------------------

def test_inspect_reports_structure(workdir, capsys):
    g, w = _paths(workdir, "mlp")
    assert cli.main(["inspect", g, w, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["tensor_count"] == 8
    assert [op["op"] for op in obj["operators"]] == \
        ["FULLY_CONNECTED", "FULLY_CONNECTED", "SOFTMAX"]


def test_inspect_plain_output_lists_operators(workdir, capsys):
    g, w = _paths(workdir, "mlp")
    assert cli.main(["inspect", g, w]) == 0
    out = capsys.readouterr().out
    assert "FULLY_CONNECTED" in out and "[0]" in out


# -- run ----------------------------------------------------------------------

# The toolchain, and what only the toolchain loads: none of it may load
# for the interpreter deployment.
_TOOLCHAIN_MODULES = {"mlfuse.codegen", "mlfuse.harness", "mlfuse.sniffer",
                      "hashlib", "_hashlib", "subprocess", "statistics"}

_RUN_AND_INSPECT_SRC = """\
import sys
from mlfuse import cli
g, w, ip, op = sys.argv[1:]
assert cli.main(["run", g, w, ip, op]) == 0
assert cli.main(["inspect", g, w]) == 0
print(sorted(sys.modules))
"""


def test_run_and_inspect_load_only_the_runtime(workdir, tmp_path):
    g, w = _paths(workdir, "identity")
    ip, op = tmp_path / "in.raw", tmp_path / "out.raw"
    ip.write_bytes(np.zeros(4, dtype="<f4").tobytes())
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_AND_INSPECT_SRC, g, w, str(ip), str(op)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    mods = set(ast.literal_eval(proc.stdout.splitlines()[-1]))
    assert {"mlfuse.interpreter", "mlfuse.lowering", "mlfuse.kernels.ops",
            "numpy"} <= mods
    assert mods & _TOOLCHAIN_MODULES == set()


# A fresh child that runs one command with cli._load raising the error class
# named on its command line, imported when the command calls it, and exits
# with main()'s code. No toolchain module is loaded before the command runs.
_RAISE_SRC = """\
import importlib, json, sys
from mlfuse import cli
module, name, argv = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
assert not {"mlfuse.codegen", "mlfuse.harness", "mlfuse.sniffer"} & set(
    sys.modules)
def raise_it(*args):
    raise getattr(importlib.import_module(module), name)("boom")
cli._load = raise_it
code = cli.main(argv)
assert module in sys.modules
sys.exit(code)
"""


@pytest.mark.parametrize("module, name, command, code", [
    # SearchError is a CodegenError, but an exhausted search exits 1
    ("mlfuse.codegen", "SearchError", "codegen", 1),
    ("mlfuse.harness", "HarnessError", "verify", 1),
    ("mlfuse.interpreter", "InterpreterError", "run", 1),
    ("mlfuse.codegen", "CodegenError", "codegen", 2),
    ("mlfuse.codegen", "CompileError", "bench", 2),
    ("mlfuse.sniffer", "SnifferError", "sniff", 2),
    ("mlfuse.graphir", "GraphError", "inspect", 2),
    ("mlfuse.kernels", "RegistryError", "run", 2),
    ("mlfuse.kernels", "StatusError", "codegen", 2),
    ("mlfuse.kernels", "ParamError", "verify", 2),
    ("builtins", "OSError", "run", 2),
    ("builtins", "ValueError", "inspect", 2),
])
def test_every_mapped_error_keeps_its_exit_code(tmp_path, module, name,
                                                command, code):
    g, w = str(tmp_path / "m.mlg"), str(tmp_path / "m.mlw")
    if command == "sniff":
        # cmd_sniff loads no bundle: a malformed signature file raises
        # SnifferError from the sniffer the command imports
        sigs = tmp_path / "sigs.json"
        sigs.write_text("[]", encoding="utf-8")
        argv = ["sniff", str(tmp_path), "--sigs", str(sigs)]
    else:
        argv = {"inspect": ["inspect", g, w],
                "run": ["run", g, w, "in.raw", "out.raw"],
                "codegen": ["codegen", g, w, "--out", str(tmp_path / "b")],
                "verify": ["verify", g, w, str(tmp_path / "b")],
                "bench": ["bench", g, w, str(tmp_path / "b")]}[command]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _RAISE_SRC, module, name, json.dumps(argv)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    if command != "sniff":
        assert proc.stderr == "error: boom\n"


def test_run_round_trips_identity(workdir, tmp_path, capsys):
    g, w = _paths(workdir, "identity")
    x = np.linspace(-1, 1, 4, dtype="<f4")
    ip, op = tmp_path / "in.raw", tmp_path / "out.raw"
    ip.write_bytes(x.tobytes())
    assert cli.main(["run", g, w, str(ip), str(op), "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["values"] == 4
    assert obj["load_bytes"] > 0 and obj["peak_bytes"] > 0
    assert np.array_equal(np.frombuffer(op.read_bytes(), dtype="<f4"), x)


def test_run_rejects_wrong_input_size(workdir, tmp_path, capsys):
    g, w = _paths(workdir, "identity")
    ip, op = tmp_path / "in.raw", tmp_path / "out.raw"
    ip.write_bytes(b"\x00" * 8)  # two values, the model takes four
    assert cli.main(["run", g, w, str(ip), str(op)]) == 2
    assert "input file holds" in capsys.readouterr().err


def test_run_rejects_input_that_is_not_whole_float32_values(
        workdir, tmp_path, capsys):
    # four values and one stray byte: reading whole values alone would
    # drop the tail and run
    g, w = _paths(workdir, "identity")
    ip, op = tmp_path / "in.raw", tmp_path / "out.raw"
    ip.write_bytes(np.zeros(4, dtype="<f4").tobytes() + b"x")
    assert cli.main(["run", g, w, str(ip), str(op)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "holds 17 bytes" in err
    assert not op.exists()


def test_run_rejects_an_empty_file(workdir, tmp_path, capsys):
    g, w = _paths(workdir, "identity")
    ip, op = tmp_path / "in.raw", tmp_path / "out.raw"
    ip.write_bytes(b"")
    assert cli.main(["run", g, w, str(ip), str(op)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "holds 0 bytes" in err
    assert not op.exists()


def test_run_takes_the_programs_file_format(built, tmp_path, capsys):
    # a file of whole samples, each sample's outputs written in turn: the
    # interpreter's file is the program's, byte for byte
    bundle, artifact = built["lenet"]
    g, w = tmp_path / "lenet.mlg", tmp_path / "lenet.mlw"
    graphir.save_bundle(bundle, g, w)
    np.random.default_rng(6).uniform(-1, 1, (37, 784)).astype("<f4").tofile(
        tmp_path / "in.raw")
    assert cli.main(["run", str(g), str(w), str(tmp_path / "in.raw"),
                     str(tmp_path / "interp.raw"), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["values"] == 37 * 10
    subprocess.run([artifact.executable, "in.raw", "program.raw"],
                   cwd=tmp_path, check=True)
    assert (tmp_path / "interp.raw").read_bytes() == \
        (tmp_path / "program.raw").read_bytes()


# -- codegen ------------------------------------------------------------------

def test_codegen_emits_manifest_and_program(workdir, tmp_path, capsys):
    g, w = _paths(workdir, "identity")
    out = tmp_path / "build"
    assert cli.main(["codegen", g, w, "--out", str(out), "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert (out / "build_manifest.json").is_file()
    assert obj["max_diff"] == 0.0
    assert (out / obj["executable"]).is_file()


def test_codegen_strip_toggle_changes_shipped_sources(workdir, tmp_path,
                                                      capsys):
    g, w = _paths(workdir, "identity")
    out = tmp_path / "plain"
    assert cli.main(["codegen", g, w, "--out", str(out), "--no-strip"]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "build_manifest.json").read_text())
    assert manifest["strip"] is False


@pytest.mark.parametrize("doc", [
    {"flags": 3},
    {"command": 5},
    {"flags": [1]},
    {"strip": "no"},
    {"strip_flags": "-OO"},
    3,
], ids=["flags-int", "command-int", "flags-int-item", "strip-string",
        "strip_flags-string", "not-an-object"])
def test_malformed_toolchain_file_exits_2_without_traceback(workdir, tmp_path,
                                                            doc):
    g, w = _paths(workdir, "identity")
    bad = tmp_path / "toolchain.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "mlfuse.cli", "codegen", g, w,
         "--out", str(tmp_path / "out"), "--toolchain", str(bad)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: toolchain")
    assert not (tmp_path / "out").exists()


# -- verify and bench ---------------------------------------------------------

def test_verify_passes_fresh_build(workdir, capsys):
    g, w = _paths(workdir, "mlp")
    assert cli.main(["verify", g, w, str(workdir / "mlp_build"),
                     "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["passed"] is True and obj["max_error"] == 0.0


def test_verify_fails_after_weight_drift(workdir, tmp_path, capsys):
    # reweight the container after the build; the program no longer matches
    g, w = _paths(workdir, "mlp")
    bundle = graphir.load_bundle(g, w)
    key = sorted(bundle.weights.entries)[0]
    arr = bundle.weights.as_array(key).copy()
    arr.reshape(-1)[0] += 0.1
    del bundle.weights.entries[key]
    bundle.weights.put_array(key, arr)
    g2, w2 = tmp_path / "m.mlg", tmp_path / "m.mlw"
    graphir.save_bundle(bundle, g2, w2)
    assert cli.main(["verify", str(g2), str(w2),
                     str(workdir / "mlp_build")]) == 1
    capsys.readouterr()


def test_bench_reports_both_deployments(workdir, capsys):
    g, w = _paths(workdir, "mlp")
    assert cli.main(["bench", g, w, str(workdir / "mlp_build"),
                     "--reps", "3", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["repetitions"] == 3
    assert obj["generated_counters"]["load_bytes"] == 0


@pytest.mark.parametrize("reps", ["0", "-3", "x"])
def test_bench_rejects_non_positive_reps_before_loading(tmp_path, capsys,
                                                       reps):
    # the files do not exist: the usage error comes before anything loads
    missing = str(tmp_path / "nope")
    assert cli.main(["bench", missing, missing, missing,
                     "--reps", reps]) == 2
    assert "--reps: must be a positive integer" in capsys.readouterr().err


_MANIFEST_KEYS = ("sources", "executable", "plan_digest", "delta",
                  "n_inputs", "seed")


@pytest.mark.parametrize("command", ["verify", "bench"])
@pytest.mark.parametrize("edit", [
    *[{key: None} for key in _MANIFEST_KEYS],
    {"sources": "src/net_driver.py"},
    {"executable": 3},
    {"plan_digest": ["x"]},
    {"delta": "x"},
    {"delta": float("inf")},
    {"n_inputs": "x"},
    {"seed": 1.5},
    [],
    {"executable": "/bin/cp"},
    {"executable": "../program"},
    {"sources": ["src/net_driver.py", "/etc/hostname"]},
    {"executable": "prog\0ram"},
], ids=[*(f"no-{key}" for key in _MANIFEST_KEYS), "sources-str",
        "executable-int", "plan_digest-list", "delta-str", "delta-inf",
        "n_inputs-str", "seed-float", "not-an-object", "executable-absolute",
        "executable-outside", "sources-absolute", "executable-nul"])
def test_malformed_manifest_exits_2(workdir, tmp_path, capsys, command,
                                     edit):
    art = tmp_path / "build"
    shutil.copytree(workdir / "mlp_build", art)
    path = art / "build_manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(edit, dict):
        for key, value in edit.items():
            if value is None:
                del manifest[key]
            else:
                manifest[key] = value
    else:
        manifest = edit
    path.write_text(json.dumps(manifest), encoding="utf-8")
    g, w = _paths(workdir, "mlp")
    assert cli.main([command, g, w, str(art)]) == 2
    assert "build manifest" in capsys.readouterr().err


@pytest.mark.parametrize("delta", ["nan", "inf"])
def test_codegen_rejects_non_finite_delta(workdir, tmp_path, capsys, delta):
    g, w = _paths(workdir, "mlp")
    assert cli.main(["codegen", g, w, "--out", str(tmp_path / "out"),
                     "--delta", delta]) == 2
    assert "delta must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# -- sniff --------------------------------------------------------------------

def test_sniff_findings_set_exit_code(tmp_path, capsys):
    (tmp_path / "model.tflite").write_bytes(b"\x00")
    assert cli.main(["sniff", str(tmp_path)]) == 1
    capsys.readouterr()
    clean = tmp_path / "clean"
    clean.mkdir()
    (clean / "notes.txt").write_text("hi", encoding="utf-8")
    assert cli.main(["sniff", str(clean)]) == 0
    capsys.readouterr()


def test_sniff_writes_json_report(tmp_path, capsys):
    (tmp_path / "net.mlw").write_bytes(b"MLW0rest")
    out = tmp_path / "report.json"
    assert cli.main(["sniff", str(tmp_path), "--json", str(out)]) == 1
    capsys.readouterr()
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert obj["scanned_files"] == 1
    assert {f["kind"] for f in obj["findings"]} == {"filename", "magic"}


def test_sniff_strings_mode(tmp_path, capsys):
    target = tmp_path / "blob.bin"
    target.write_bytes(b"\x7fELF" + b"\x00" * 6 + b"org.tensorflow\x00")
    assert cli.main(["sniff", str(target), "--strings"]) == 1
    capsys.readouterr()


def test_sniff_custom_signatures(tmp_path, capsys):
    sigs = tmp_path / "sigs.json"
    sigs.write_text(json.dumps({"extensions": [".qqq"], "filenames": [],
                                "magics": [], "keywords": []}),
                    encoding="utf-8")
    (tmp_path / "weights.qqq").write_bytes(b"\x00")
    (tmp_path / "model.tflite").write_bytes(b"\x00")
    assert cli.main(["sniff", str(tmp_path), "--sigs", str(sigs),
                     "--json", str(tmp_path / "r.json")]) == 1
    capsys.readouterr()
    obj = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
    # the custom set fully replaces the default one
    assert [f["token"] for f in obj["findings"]] == [".qqq"]


@pytest.mark.parametrize("doc", [
    5,
    [],
    {"extensions": 5},
    {"magics": [1]},
    {"keywords": ["\u0100"]},
    {"extensions": [""], "magics": [""]},
], ids=["int", "list", "extensions-int", "magics-int-item",
        "keywords-not-latin-1", "empty-tokens"])
def test_malformed_signature_file_exits_2(tmp_path, capsys, doc):
    sigs = tmp_path / "sigs.json"
    sigs.write_text(json.dumps(doc), encoding="utf-8")
    (tmp_path / "notes.txt").write_text("hi", encoding="utf-8")
    assert cli.main(["sniff", str(tmp_path), "--sigs", str(sigs)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: signature") and err.count("\n") == 1
