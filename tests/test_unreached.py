import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "unreached.py"
_spec = importlib.util.spec_from_file_location("unreached", _PATH)
unreached = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unreached)

_MODULE = '''"""A module."""


def pick(x):
    if x:
        return 1
    return 2
'''


def test_report_lists_each_code_line_that_never_ran(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(_MODULE, encoding="utf-8")
    namespace = {}
    with unreached.LineTrace([mod]) as trace:
        exec(compile(_MODULE, str(mod), "exec"), namespace)
        namespace["pick"](True)
    # the docstring, the def, and the function's three lines compile to
    # code; the blank lines do not
    assert unreached.code_lines(mod) == {1, 4, 5, 6, 7}
    assert unreached.report(trace.ran, root=tmp_path) == [
        "mod.py:7: return 2", "mod.py: 1/5"]
