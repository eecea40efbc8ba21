import ast
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlfuse import cli, fixtures, graphir


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

# What a child ends with: its exit code, the modules it loaded and the
# threads it holds (None where there is no /proc/self/task).
_REPORT_SRC = """\
tasks = "/proc/self/task"
tasks = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
print(json.dumps([code, sorted(sys.modules), tasks]))
"""

# Makes os._exit raise SystemExit in a child, so that a one-shot command,
# which ends its process with os._exit, returns to the child to report.
_RAISE_ON_EXIT_SRC = """\
def _exit(code):
    raise SystemExit(code)
os._exit = _exit
"""

# Children that run the CLI with their argv and then report. "-m" and
# "script" are the command's two entries: as `python -m mlfuse.cli` runs
# it, and as the installed `mlfuse` script, which imports main() and calls
# it; os._exit raises in them (see above). "library" is neither: a caller
# that imports mlfuse.cli and calls main(), which returns. The -c ones
# first run the code in argv[1].
_ENTRY_SRC = {
    "-m": """\
import json, os, runpy, sys
""" + _RAISE_ON_EXIT_SRC + """\
exec(sys.argv.pop(1))
try:
    runpy.run_module("mlfuse.cli", run_name="__main__", alter_sys=True)
except SystemExit as e:
    code = e.code
""" + _REPORT_SRC,
    "script": """\
import json, os, sys
""" + _RAISE_ON_EXIT_SRC + """\
from mlfuse.cli import main
try:
    code = main()
except SystemExit as e:
    code = e.code
""" + _REPORT_SRC,
    "library": """\
import json, os, sys
exec(sys.argv.pop(1))
from mlfuse import cli
code = cli.main(sys.argv[1:])
""" + _REPORT_SRC,
}


def _command(tmp_path, argv, entry="-m", setup="", env=None):
    """Run the mlfuse command in a fresh child; [code, modules, threads]."""
    env = dict(os.environ if env is None else env,
               PYTHONPATH=str(Path(cli.__file__).parents[1]))
    if entry == "script":
        script = tmp_path / "bin" / "mlfuse"
        script.parent.mkdir(exist_ok=True)
        script.write_text(_ENTRY_SRC[entry], encoding="utf-8")
        cmd = [sys.executable, str(script), *argv]
    else:
        cmd = [sys.executable, "-c", _ENTRY_SRC[entry], setup, *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _run_and_inspect(workdir, tmp_path):
    """argv of `run` on three seeded samples, and of `inspect`, for mlp."""
    g, w = _paths(workdir, "mlp")
    ip, op = tmp_path / "in.raw", tmp_path / "out.raw"
    np.random.default_rng(3).uniform(-1, 1, (3, 4)).astype("<f4").tofile(ip)
    return {"run": ["run", g, w, str(ip), str(op)], "inspect": ["inspect", g, w]}


# numpy's Python layer, which the core alone never loads
_PYTHON_LAYER = {"numpy.lib", "numpy.linalg", "numpy.random",
                 "numpy._core._add_newdocs"}


def test_run_and_inspect_load_only_the_runtime(workdir, tmp_path):
    for command, argv in _run_and_inspect(workdir, tmp_path).items():
        for entry in ("-m", "script"):
            code, mods, _ = _command(tmp_path, argv, entry)
            assert code == 0, (command, entry)
            mods = set(mods)
            assert {"mlfuse.interpreter", "mlfuse.lowering",
                    "mlfuse.kernels.ops",
                    "numpy._core._multiarray_umath"} <= mods
            assert mods & _TOOLCHAIN_MODULES == set(), (command, entry)
            assert mods & _PYTHON_LAYER == set(), (command, entry)
            assert "mlfuse.fixtures" not in mods


def test_inspect_json_is_the_same_on_the_core_alone(workdir, capsys):
    # a weight's min and max come from the core's ufuncs, not from
    # ndarray.min() and max(), which are numpy's Python layer
    g, w = _paths(workdir, "mlp")
    assert cli.main(["inspect", g, w, "--json"]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "mlfuse.cli", "inspect", g, w, "--json"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == capsys.readouterr().out


def test_imported_as_a_library_the_cli_loads_numpy_whole(workdir, tmp_path):
    # argv names `run`, but the process is not the mlfuse command: no
    # stand-ins go in, and numpy loads as it is
    argv = _run_and_inspect(workdir, tmp_path)["run"]
    code, mods, _ = _command(tmp_path, argv, "library")
    assert code == 0
    assert {"numpy.lib", "numpy._core._add_newdocs"} <= set(mods)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads in /proc/self/task")
def test_run_starts_no_blas_thread_pool(workdir, tmp_path):
    # as in the program: no kernel calls BLAS, and OpenBLAS would start a
    # worker per extra CPU when the core loads
    argv = _run_and_inspect(workdir, tmp_path)["run"]
    env = {k: v for k, v in os.environ.items() if k not in (
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    code, _, tasks = _command(tmp_path, argv, env=env)
    assert (code, tasks) == (0, 1)


def test_a_core_the_stand_ins_cannot_load_falls_back_to_numpy(workdir,
                                                              tmp_path):
    # site names a numpy without its C core where the stand-ins look: they
    # come out again, and the whole numpy serves the same bytes
    argv = _run_and_inspect(workdir, tmp_path)["run"]
    out = Path(argv[-1])
    assert _command(tmp_path, argv)[0] == 0
    want = out.read_bytes()
    out.unlink()
    fake = tmp_path / "site"
    (fake / "numpy").mkdir(parents=True)
    (fake / "numpy" / "__init__.py").write_text("")
    setup = ("import site\n"
             f"site.getsitepackages = lambda prefixes=None: [{str(fake)!r}]\n")
    code, mods, _ = _command(tmp_path, argv, setup=setup)
    assert code == 0
    assert "numpy.lib" in mods
    assert out.read_bytes() == want


# run before the command: the stand-ins lose a name the core's init reads,
# which fails that init part way through
_LOSE_A_STAND_IN_NAME = """\
from mlfuse import corestart
corestart.STANDINS = corestart.STANDINS.replace("g._NoValue = object()",
                                                "pass")
"""


def test_a_core_that_fails_part_way_ends_the_command_in_one_line(
        workdir, tmp_path):
    # such a core cannot load again in the process, so there is no numpy
    # to fall back on: one error line naming the python, and exit 2
    argv = _run_and_inspect(workdir, tmp_path)["run"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _ENTRY_SRC["-m"], _LOSE_A_STAND_IN_NAME,
         *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)[0] == 2
    assert proc.stderr == (
        f"error: {sys.executable} cannot load numpy's C core: module "
        f"'numpy._globals' has no attribute '_NoValue'\n")
    assert not Path(argv[-1]).exists()


# -- how a one-shot command ends ----------------------------------------------

# The command's two entries as they are, each a child that first runs the
# code in argv[1]: "-m" runs the module as `python -m mlfuse.cli` does,
# "script" is what the installed `mlfuse` script runs, under that name.
# "library" calls main() with the rest of its argv and exits with its code.
_BARE_ENTRY_SRC = {
    "-m": """\
import runpy, sys
exec(sys.argv.pop(1))
runpy.run_module("mlfuse.cli", run_name="__main__", alter_sys=True)
""",
    "script": """\
import sys
exec(sys.argv.pop(1))
from mlfuse.cli import main
sys.exit(main())
""",
    "library": """\
import sys
exec(sys.argv.pop(1))
from mlfuse import cli
sys.exit(cli.main(sys.argv[1:]))
""",
}

# run before the command: interpreter.invoke raises InterpreterError, a
# domain failure, which run's own files cannot provoke
_INVOKE_FAILS = """\
from mlfuse import interpreter
def invoke(plan, xs):
    raise interpreter.InterpreterError("boom")
interpreter.invoke = invoke
"""

# run before the command: an atexit hook that says teardown ran, and an
# os._exit that says it was called and with what, and then ends the
# process; each says whether the cyclic collector was on
_SAY_HOW_IT_ENDS = """\
import atexit, gc, os, sys
def say(what):
    on = "on" if gc.isenabled() else "off"
    print(f"{what}, collector {on}", file=sys.stderr, flush=True)
atexit.register(say, "teardown ran")
_exit = os._exit
def say_and_exit(code):
    say(f"os._exit({code})")
    _exit(code)
os._exit = say_and_exit
"""


def _spawn(tmp_path, entry, argv, setup="", unbuffered=False, **kw):
    """The command through one of its entries in a child, with stdout and
    stderr pipes unless kw says otherwise; print() buffers in the stdout
    pipe unless unbuffered."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = _BARE_ENTRY_SRC[entry]
    if entry == "script":
        script = tmp_path / "bin" / "mlfuse"
        script.parent.mkdir(exist_ok=True)
        script.write_text(src, encoding="utf-8")
        cmd = [sys.executable, str(script), setup, *argv]
    else:
        cmd = [sys.executable, "-c", src, setup, *argv]
    kw.setdefault("stdout", subprocess.PIPE)
    kw.setdefault("stderr", subprocess.PIPE)
    return subprocess.run(cmd, env=env, text=True, **kw)


@pytest.mark.parametrize("entry", ["-m", "script"])
def test_one_shot_commands_write_every_line_through_pipes(workdir, tmp_path,
                                                         bad_files, capsys,
                                                         entry):
    # print() buffers stdout in a pipe: the process must not end before the
    # buffer is out. Each line is what cli.main() prints in process.
    cases = _run_and_inspect(workdir, tmp_path)
    out = cases["run"][-1]
    for argv in (cases["run"], cases["run"] + ["--json"], cases["inspect"],
                 cases["inspect"] + ["--json"]):
        proc = _spawn(tmp_path, entry, argv)
        Path(out).unlink(missing_ok=True)
        assert cli.main(argv) == 0
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, capsys.readouterr().out, ""), argv
    assert proc.stdout.startswith('{"inputs": ')
    assert _spawn(tmp_path, entry, cases["run"]).stdout == \
        f"wrote 9 values to {out}\n"
    # the usage lines, an input of the wrong size, and a domain failure
    g, w = _paths(workdir, "mlp")
    proc = _spawn(tmp_path, entry, ["run", g])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("usage: mlfuse run [-h] [--json] graph ")
    assert proc.stderr.endswith("arguments are required: weights, input, "
                                "output\n")
    proc = _spawn(tmp_path, entry,
                  ["run", g, w, str(bad_files["three-bytes.raw"]), out])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: input file holds 3 bytes, need ")
    assert proc.stderr.count("\n") == 1
    proc = _spawn(tmp_path, entry, cases["run"], setup=_INVOKE_FAILS)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "error: boom\n")


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("entry", ["-m", "script"])
def test_one_shot_exit_codes_hold_with_stdout_closed_or_broken(
        workdir, tmp_path, entry, unbuffered):
    # A process started without a stdout prints into nothing and succeeds.
    # A stdout pipe whose reader is gone cannot take the result line, in
    # the final flush (buffered) or in print() (unbuffered): one error
    # line, exit 2, with the output file written. The usage line goes to
    # stderr and keeps its code either way. None ends in a traceback.
    cases = _run_and_inspect(workdir, tmp_path)
    out = Path(cases["run"][-1])
    usage = ["run", cases["inspect"][1]]
    for argv, code in ((cases["run"], 0), (cases["inspect"], 0),
                       (usage, 2)):
        out.unlink(missing_ok=True)
        proc = _spawn(tmp_path, entry, argv, unbuffered=unbuffered,
                      stdout=None, preexec_fn=lambda: os.close(1))
        assert proc.returncode == code, proc.stderr
        assert (proc.stderr == "") == (code == 0), proc.stderr
        assert "Traceback" not in proc.stderr
        assert out.exists() == (argv is cases["run"])
    for argv, code, err in (
            (cases["run"], 2, "error: [Errno 32] Broken pipe\n"),
            (cases["inspect"], 2, "error: [Errno 32] Broken pipe\n"),
            (usage, 2, None)):
        out.unlink(missing_ok=True)
        r, w = os.pipe()
        os.close(r)
        try:
            proc = _spawn(tmp_path, entry, argv, unbuffered=unbuffered,
                          stdout=w)
        finally:
            os.close(w)
        assert proc.returncode == code, proc.stderr
        if err is None:
            assert proc.stderr.startswith("usage: mlfuse run")
        else:
            assert proc.stderr == err
        assert out.exists() == (argv is cases["run"])


@pytest.mark.parametrize("entry", ["-m", "script"])
def test_one_shot_exit_codes_hold_with_stderr_broken(workdir, tmp_path,
                                                     entry):
    # a stderr pipe whose reader is gone cannot take an error or usage
    # line: the line is lost, and the code is the one it goes with
    cases = _run_and_inspect(workdir, tmp_path)
    g, w = _paths(workdir, "mlp")
    r, fd = os.pipe()
    os.close(r)
    try:
        for argv, code in ((cases["run"], 0), (cases["inspect"], 0),
                           (["run", g], 2),
                           (["run", g, w, "missing.raw", "out.raw"], 2)):
            proc = _spawn(tmp_path, entry, argv, stderr=fd)
            assert proc.returncode == code, argv
    finally:
        os.close(fd)


@pytest.mark.parametrize("entry", ["-m", "script", "library"])
def test_one_shot_commands_skip_teardown_with_the_collector_off(
        workdir, tmp_path, entry):
    # run and inspect end in os._exit with their code and the collector
    # still off, so an atexit hook never runs; a toolchain command returns,
    # and the process tears down as usual, as it does after main() called
    # as a library, whatever the command
    cases = _run_and_inspect(workdir, tmp_path)
    g, w = _paths(workdir, "mlp")
    for argv, code in ((cases["run"], 0), (cases["inspect"], 0),
                       (["run", g, w, "missing.raw", "out.raw"], 2),
                       (["build-fixture", "identity", "--out",
                         str(tmp_path)], 0)):
        proc = _spawn(tmp_path, entry, argv, setup=_SAY_HOW_IT_ENDS)
        assert proc.returncode == code
        ends = "teardown ran, collector on" \
            if entry == "library" or argv[0] == "build-fixture" \
            else f"os._exit({code}), collector off"
        assert proc.stderr.endswith(f"{ends}\n"), proc.stderr
        assert proc.stderr.count("collector") == 1


@pytest.fixture(scope="module")
def bad_files(workdir):
    """The files each error case of run and inspect reads, by name."""
    d = workdir / "bad"
    d.mkdir()
    (d / "not-json.mlg").write_text("not json", encoding="utf-8")
    mlw = (workdir / "mlp.mlw").read_bytes()
    (d / "truncated.mlw").write_bytes(mlw[:100])
    # magic, entry count and the first key come before its dtype code
    (d / "dtype-9.mlw").write_bytes(mlw[:12] + b"\x09" + mlw[13:])
    graph = json.loads((workdir / "identity.mlg").read_text(encoding="utf-8"))
    for t in graph["tensors"]:
        t["dtype"] = "I32"
    (d / "i32.mlg").write_text(json.dumps(graph), encoding="utf-8")
    (d / "three-bytes.raw").write_bytes(b"abc")
    np.zeros(4, "<f4").tofile(d / "in.raw")  # one sample of either model
    return {"mlp.mlg": workdir / "mlp.mlg", "mlp.mlw": workdir / "mlp.mlw",
            "identity.mlw": workdir / "identity.mlw",
            "missing.raw": d / "missing.raw",
            **{p.name: p for p in d.iterdir()}}


# graph, weights, input, exit code, and what the error line says
_ERROR_CASES = {
    "graph-not-json": ("not-json.mlg", "mlp.mlw", "in.raw", 2,
                       "graph is not valid JSON"),
    "truncated-weights": ("mlp.mlg", "truncated.mlw", "in.raw", 2,
                          "truncated weight store"),
    "mismatched-weights": ("mlp.mlg", "identity.mlw", "in.raw", 2,
                           "weight_ref 0 not in store"),
    "weight-dtype": ("mlp.mlg", "dtype-9.mlw", "in.raw", 2,
                     "unknown dtype code 9"),
    "input-size": ("mlp.mlg", "mlp.mlw", "three-bytes.raw", 2,
                   "input file holds 3 bytes"),
    "missing-input": ("mlp.mlg", "mlp.mlw", "missing.raw", 2,
                      "No such file or directory"),
    "input-dtype": ("i32.mlg", "identity.mlw", "in.raw", 2,
                    "graph tensor 0 is I32"),
}


@pytest.mark.parametrize("case, command", [
    *[(case, "run") for case in _ERROR_CASES],
    *[(case, "inspect") for case in ("graph-not-json", "truncated-weights",
                                     "mismatched-weights", "weight-dtype")],
])
def test_run_and_inspect_errors_under_the_stand_ins(bad_files, tmp_path,
                                                    case, command):
    # a fresh `python -m mlfuse.cli` child, so numpy's Python layer is not
    # there to format an error: each still ends in one line and its code
    g, w, ip, code, text = _ERROR_CASES[case]
    argv = [command, str(bad_files[g]), str(bad_files[w])]
    if command == "run":
        argv += [str(bad_files[ip]), str(tmp_path / "out.raw")]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "mlfuse.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert text in proc.stderr
    assert not (tmp_path / "out.raw").exists()


def test_build_fixture_offers_every_fixture():
    # a literal list, so that the parser loads no fixtures (and no
    # numpy.random) for the other commands
    assert cli._FIXTURES == sorted(fixtures.FIXTURES)


@pytest.fixture(scope="module")
def containers(tmp_path_factory):
    """Every fixture's .mlg and .mlw, by fixture name."""
    root = tmp_path_factory.mktemp("containers")
    for name in fixtures.FIXTURES:
        assert cli.main(["build-fixture", name, "--out", str(root)]) == 0
    return {name: (root / f"{name}.mlg", root / f"{name}.mlw")
            for name in fixtures.FIXTURES}


@pytest.mark.parametrize("command", ["inspect", "run", "codegen"])
@pytest.mark.parametrize("inputs", [[], [3, 3]], ids=["none", "two"])
def test_a_custom_operator_of_the_wrong_arity_exits_2(containers, tmp_path,
                                                      capsys, command,
                                                      inputs):
    # custom's SCALE_SHIFT (operator 1) takes one input: none, or two, is
    # a container error, named in one line, as a builtin's arity is
    g, w = containers["custom"]
    obj = json.loads(g.read_text(encoding="utf-8"))
    obj["operators"][1]["inputs"] = inputs
    bad = tmp_path / "bad.mlg"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    np.zeros(4, "<f4").tofile(tmp_path / "in.raw")
    argv = {"inspect": ["inspect", str(bad), str(w)],
            "run": ["run", str(bad), str(w), str(tmp_path / "in.raw"),
                    str(tmp_path / "out.raw")],
            "codegen": ["codegen", str(bad), str(w),
                        "--out", str(tmp_path / "b")]}[command]
    assert cli._main(argv) == 2
    err = capsys.readouterr().err
    assert err == (f"error: invalid bundle: operator 1 (SCALE_SHIFT): "
                   f"expects 1 input(s), got {len(inputs)}\n")
    assert not (tmp_path / "out.raw").exists()


@pytest.mark.parametrize("command", ["inspect", "run", "codegen"])
@pytest.mark.parametrize("options, problem", [
    ({"scale": "x", "shift": 0.5}, "bad value for option 'scale': 'x'"),
    ({"shift": 0.5}, "missing required option 'scale'"),
    ({"scale": 2.0, "shift": 0.5, "gain": 2.0}, "unknown option 'gain'"),
], ids=["not-a-number", "missing", "unknown"])
def test_a_custom_operator_with_bad_options_exits_2(containers, tmp_path,
                                                    capsys, command, options,
                                                    problem):
    # custom's SCALE_SHIFT (operator 1) has its options checked where a
    # builtin's are, so every command that loads the container rejects
    # them in one line, inspect too
    g, w = containers["custom"]
    obj = json.loads(g.read_text(encoding="utf-8"))
    obj["operators"][1]["options"] = options
    bad = tmp_path / "bad.mlg"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    np.zeros(4, "<f4").tofile(tmp_path / "in.raw")
    argv = {"inspect": ["inspect", str(bad), str(w)],
            "run": ["run", str(bad), str(w), str(tmp_path / "in.raw"),
                    str(tmp_path / "out.raw")],
            "codegen": ["codegen", str(bad), str(w),
                        "--out", str(tmp_path / "b")]}[command]
    assert cli._main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: invalid bundle: operator 1 (SCALE_SHIFT): {problem}\n")
    assert not (tmp_path / "out.raw").exists()


def test_an_operator_of_weights_alone_exits_2_in_every_command(
        tmp_path, capsys):
    # an ADD of two weights has no activation input: validate refuses it,
    # so inspect, run and codegen all exit 2 in the same one line
    x, a, b, y = (graphir.TensorSpec(i, n, graphir.DataType.F32, (1, 4),
                                     weight_ref=i if n in "ab" else None)
                  for i, n in enumerate("xaby"))
    store = graphir.WeightStore()
    for t in a, b:
        store.put_array(t.id, np.ones((1, 4), np.float32))
    bundle = graphir.ModelBundle(graphir.ComputationalGraph(
        [x, a, b, y], [graphir.OperatorNode(graphir.ADD, (1, 2), (3,),
                                            {"activation": "NONE"})],
        inputs=(0,), outputs=(3,)), store)
    g, w = tmp_path / "m.mlg", tmp_path / "m.mlw"
    graphir.save_bundle(bundle, g, w)
    np.zeros(4, "<f4").tofile(tmp_path / "in.raw")
    for argv in (["inspect", str(g), str(w)],
                 ["run", str(g), str(w), str(tmp_path / "in.raw"),
                  str(tmp_path / "out.raw")],
                 ["codegen", str(g), str(w), "--out", str(tmp_path / "b")]):
        assert cli._main(argv) == 2, argv[0]
        assert capsys.readouterr().err == (
            "error: invalid bundle: operator 0 (ADD): needs an input that "
            "is not a weight\n"), argv[0]
    assert not (tmp_path / "out.raw").exists()
    assert not (tmp_path / "b").exists()


# a value of each JSON type, for a value of another type
_OTHER_VALUES = [None, True, -1, 0.5, "x", [1], {}]


def _mutations(node, path=()):
    """Every structural mutation of a JSON document, as (path, how, the
    values it may take): drop a key, drop or duplicate a list element,
    nudge an int, change a type."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        at = (*path, key)
        yield at, "drop", [None]
        if isinstance(node, list):
            yield at, "duplicate", [None]
        if type(child) is int:
            yield at, "nudge", [-2, -1, 1, 2]
        yield at, "retype", [v for v in _OTHER_VALUES
                             if type(v) is not type(child)]
        yield from _mutations(child, at)


def _mutate(obj, path, how, value):
    *parents, key = path
    for k in parents:
        obj = obj[k]
    if how == "drop":
        del obj[key]
    elif how == "duplicate":
        obj.insert(key, obj[key])
    elif how == "nudge":
        obj[key] += value
    else:
        obj[key] = value


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(fixtures.FIXTURES)), st.data())
def test_inspect_of_a_mutated_container_exits_0_or_2(containers, name, data):
    # structural mutations of every fixture's graph document, through the
    # command in process: each is accepted or rejected in one error line
    g, w = containers[name]
    obj = json.loads(g.read_text(encoding="utf-8"))
    for _ in range(data.draw(st.integers(1, 3))):
        path, how, values = data.draw(st.sampled_from(list(_mutations(obj))))
        _mutate(obj, path, how, data.draw(st.sampled_from(values)))
    with tempfile.TemporaryDirectory() as d:
        bad = Path(d) / "bad.mlg"
        bad.write_text(json.dumps(obj), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli._main(["inspect", str(bad), str(w)])
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


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
    {"strip_flags": ["-OO"]},
    3,
], ids=["flags-int", "command-int", "flags-int-item", "strip-string",
        "strip_flags-unknown", "not-an-object"])
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


def _foreign_bytecode(data: bytes) -> bytes:
    """The program data with its driver's bytecode marked as another
    Python's: a magic number this one does not load."""
    line, _, rest = data.partition(b"\n")
    buf = io.BytesIO()
    buf.write(line + b"\n")
    with zipfile.ZipFile(io.BytesIO(rest)) as src, \
            zipfile.ZipFile(buf, "w") as dst:
        for info in src.infolist():
            member = src.read(info)
            if info.filename == "net_driver.pyc":
                member = b"\x00\x00\r\n" + member[4:]
            dst.writestr(info, member)
    return buf.getvalue()


@pytest.mark.parametrize("damage", [
    lambda data: data[:len(data) // 2], _foreign_bytecode],
    ids=["truncated", "foreign-bytecode"])
def test_bench_of_a_program_it_cannot_import_exits_1(workdir, tmp_path,
                                                     capsys, damage):
    # bench imports the program's driver; a program that cannot be
    # imported ends as one whose run fails, in one line and exit 1
    art = tmp_path / "build"
    shutil.copytree(workdir / "mlp_build", art)
    program = art / "program"
    program.write_bytes(damage(program.read_bytes()))
    g, w = _paths(workdir, "mlp")
    assert cli.main(["bench", g, w, str(art), "--reps", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot import the program ")
    assert err.count("\n") == 1


def test_bench_of_a_missing_program_exits_2(workdir, tmp_path, capsys):
    # as verify, whose spawn of it fails with the same OSError
    art = tmp_path / "build"
    shutil.copytree(workdir / "mlp_build", art)
    (art / "program").unlink()
    g, w = _paths(workdir, "mlp")
    for command in ("verify", "bench"):
        assert cli.main([command, g, w, str(art)]) == 2
        assert "No such file or directory" in capsys.readouterr().err


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
