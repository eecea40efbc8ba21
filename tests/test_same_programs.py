import importlib.util
from pathlib import Path

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

