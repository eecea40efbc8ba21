import importlib.util
import json
from pathlib import Path

from mlfuse import codegen, fixtures

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "same_programs.py"
_spec = importlib.util.spec_from_file_location("same_programs", _PATH)
same_programs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_programs)


def _build(**files):
    return {name.replace("__", "/"): digest for name, digest in files.items()}


def test_identical_sides_have_no_differences():
    side = {"lenet seed=1 strip": _build(program="a", src__net_driver="b"),
            "mlp seed=default no-strip": _build(program="c")}
    again = {k: dict(v) for k, v in side.items()}
    assert same_programs.differences(side, again) == []


def test_every_differing_file_and_build_is_named_once():
    base = {"a": _build(program="1", src__x="2", manifest="3"),
            "b": _build(program="1")}
    change = {"a": _build(program="1", src__x="9", src__y="4"),
              "c": _build(program="1")}
    assert same_programs.differences(base, change) == [
        "a: manifest only in the base",
        "a: src/x differs",
        "a: src/y only in the change",
        "b: built only in the base",
        "c: built only in the change",
    ]


def test_src_lines_count_the_python_sources_under_src(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "src" / "pkg" / "b.py").write_text("z = 3\nw = 4")
    (tmp_path / "src" / "pkg" / "notes.txt").write_text("not\ncode\n")
    (tmp_path / "tests.py").write_text("outside = 1\n")
    # as wc -l counts: newlines, so b.py's unterminated last line is not one
    assert same_programs.src_lines(tmp_path) == 4


def test_differing_manifest_fields_are_named_with_both_values():
    def manifest(**fields):
        return json.dumps({"plan_digest": "d", "seed": 1, **fields},
                          sort_keys=True)

    base = {"lenet": {"program": "1", same_programs.MANIFEST: manifest(
        candidates_evaluated=8, strip=True)}}
    change = {"lenet": {"program": "1", same_programs.MANIFEST: manifest(
        candidates_evaluated=6, max_diff=0.0)}}
    assert same_programs.differences(base, change) == [
        "lenet: build_manifest.json candidates_evaluated 8 -> 6",
        "lenet: build_manifest.json max_diff (absent) -> 0.0",
        "lenet: build_manifest.json strip true -> (absent)",
    ]
    # the same fields written another way still differ as files
    spaced = json.dumps(json.loads(base["lenet"][same_programs.MANIFEST]),
                        indent=1)
    assert same_programs.differences(
        base, {"lenet": {"program": "1", same_programs.MANIFEST: spaced}}) \
        == ["lenet: build_manifest.json differs"]


def test_differing_programs_are_run_on_one_file_and_their_outputs_compared(
        tmp_path):
    def build(seed, strip):
        art = codegen.pipeline(
            fixtures.build_fixture("mlp", seed), tmp_path / f"{seed}{strip}",
            toolchain=codegen.ToolchainConfig(strip=strip))
        return art.executable

    stripped, plain, other = build(1, True), build(1, False), build(2, True)
    # mlp takes four values a sample; bytecode and source compute the same
    assert same_programs.same_outputs(stripped, plain, 4, tmp_path)
    assert not same_programs.same_outputs(stripped, other, 4, tmp_path)
    # a program that fails matches nothing, not even another failure
    assert not same_programs.same_outputs(stripped, plain, 3, tmp_path)
    # and so on a file of one sample, which runs the plan of one sample
    assert same_programs.SAMPLES == (1, 37)
    assert same_programs.same_outputs(stripped, plain, 4, tmp_path, 1)
    assert not same_programs.same_outputs(stripped, other, 4, tmp_path, 1)
