import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _pairs(base, change, name="m", unit="us"):
    """Paired runs of one metric, in the shape perfbench/run.py prints."""
    def run(value):
        return {"metrics": {name: {"value": value, "unit": unit}}}
    return [{"base": run(b), "change": run(c)} for b, c in zip(base, change)]


def _summary(base, change, better):
    return bench_pairs.summarize(_pairs(base, change), {"m": better})["m"]


@pytest.mark.parametrize("better, won", [("lower", 2), ("higher", 1)])
def test_pairs_won_follow_the_better_direction_and_ties_win_nothing(better,
                                                                    won):
    # pairs 2 and 4 are lower, pair 3 higher, pair 1 a tie
    m = _summary([10, 10, 10, 10], [10, 9, 11, 8], better)
    assert m["better"] == better
    assert m["pairs_won"] == won
    assert m["pairs"] == 4
    assert m["unit"] == "us"


def test_a_metric_missing_from_the_spec_counts_lower_as_better():
    m = bench_pairs.summarize(_pairs([5, 5], [4, 6]), {})["m"]
    assert m["better"] == "lower" and m["pairs_won"] == 1


def test_median_change_and_spread_of_each_side():
    m = _summary([10, 12, 11, 13], [9, 9.5, 9.8, 10], "lower")
    # inclusive quartiles of 10, 11, 12, 13
    assert m["base"] == {"median": 11.5, "q1": 10.75, "q3": 12.25,
                         "iqr": 1.5}
    assert m["change"]["median"] == pytest.approx(9.65)
    assert m["median_change_pct"] == pytest.approx(100 * (9.65 / 11.5 - 1))


@pytest.mark.parametrize("better, change, beyond", [
    # the change's median 1.85 better against a base IQR of 1.5
    ("lower", [9, 9.5, 9.8, 10], True),
    # 1.0 better: inside the base's spread
    ("lower", [10, 10.5, 10.5, 11], False),
    # 1.85 worse: never counts, however far
    ("higher", [9, 9.5, 9.8, 10], False),
    ("higher", [13, 13.5, 13.5, 14], True),
])
def test_better_by_more_than_base_iqr(better, change, beyond):
    m = _summary([10, 12, 11, 13], change, better)
    assert m["better_by_more_than_base_iqr"] is beyond


def test_median_change_is_none_when_the_base_median_is_zero():
    m = _summary([0, 0, 0], [1, 2, 3], "lower")
    assert m["median_change_pct"] is None
    assert m["pairs_won"] == 0


def test_one_pair_has_no_spread():
    m = _summary([3.0], [2.0], "lower")
    assert m["base"]["iqr"] == 0 and m["change"]["iqr"] == 0
    assert m["pairs_won"] == 1 and m["better_by_more_than_base_iqr"]


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=bench", "-c",
                    "user.email=bench@example.com", "-c",
                    "commit.gpgsign=false", *args],
                   cwd=repo, check=True, capture_output=True)


def test_the_change_is_exported_as_the_working_tree_holds_it(tmp_path):
    # an edit not yet committed and a new untracked file reach the export;
    # a deleted file and an ignored one do not, and the repository's own
    # index is left as it was
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    for name in ("kept.txt", "edited.txt", "deleted.txt"):
        (repo / name).write_text("committed\n")
    (repo / ".gitignore").write_text("ignored.txt\n")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "base")
    (repo / "edited.txt").write_text("edited\n")
    (repo / "deleted.txt").unlink()
    (repo / "new.txt").write_text("untracked\n")
    (repo / "ignored.txt").write_text("ignored\n")
    index = (repo / ".git" / "index").read_bytes()

    out = tmp_path / "out"
    bench_pairs._export(bench_pairs.working_tree(repo), out, root=repo)
    assert sorted(p.name for p in out.iterdir()) == [
        ".gitignore", "edited.txt", "kept.txt", "new.txt"]
    assert (out / "edited.txt").read_text() == "edited\n"
    assert (out / "new.txt").read_text() == "untracked\n"
    assert (out / "kept.txt").read_text() == "committed\n"
    assert (repo / ".git" / "index").read_bytes() == index
