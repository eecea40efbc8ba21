import json
import zipfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlfuse import sniffer
from mlfuse.sniffer import Finding, SignatureSet, SnifferError


@pytest.fixture
def planted(tmp_path):
    """A deployment tree with several recognizable model traces."""
    (tmp_path / "model.tflite").write_bytes(b"\x00" * 16)
    (tmp_path / "deploy").mkdir()
    (tmp_path / "deploy" / "graph.json").write_text("{}", encoding="utf-8")
    (tmp_path / "deploy" / "net.mlw").write_bytes(b"MLW0" + b"\x00" * 8)
    blob = b"x" * 10 + b"org.tensorflow" + b"y" * 5
    (tmp_path / "libruntime.so").write_bytes(blob)
    (tmp_path / "readme.txt").write_text("nothing to see", encoding="utf-8")
    return tmp_path


def _by_kind(report):
    out = {}
    for f in report.findings:
        out.setdefault(f.kind, []).append(f)
    return out


# -- directory scans ----------------------------------------------------------

def test_scan_recalls_planted_traces(planted):
    rep = sniffer.scan(planted)
    kinds = _by_kind(rep)
    names = {f.path.rsplit("/", 1)[-1] for f in kinds["filename"]}
    # extension hits and the literal runtime file name both count as names
    assert {"model.tflite", "graph.json", "net.mlw"} <= names
    assert all(f.offset is None for f in kinds["filename"])
    magic = [f for f in kinds["magic"] if f.token == "MLW0"]
    assert magic and magic[0].offset == 0
    kw = [f for f in kinds["keyword"] if f.token == "org.tensorflow"]
    assert kw and kw[0].offset == 10
    assert rep.scanned_files == 5


def test_scan_is_quiet_on_plain_files(tmp_path):
    for i in range(20):
        (tmp_path / f"file{i:02d}.txt").write_text(
            f"ordinary text payload {i}\n" * 4, encoding="utf-8")
    rep = sniffer.scan(tmp_path)
    assert rep.findings == []
    assert rep.scanned_files == 20


def test_scan_single_file(planted):
    rep = sniffer.scan(planted / "libruntime.so")
    assert [f.kind for f in rep.findings] == ["keyword"]
    assert rep.scanned_files == 1


def test_scan_rejects_missing_target(tmp_path):
    with pytest.raises(SnifferError, match="unreadable target"):
        sniffer.scan(tmp_path / "absent")


def test_findings_are_ordered_and_deterministic(planted):
    a = sniffer.scan(planted)
    b = sniffer.scan(planted)
    assert a.to_json() == b.to_json()
    assert a.findings == sorted(a.findings, key=sniffer._finding_order)


def test_report_json_omits_timing(planted):
    rep = sniffer.scan(planted)
    obj = json.loads(rep.to_json())
    assert set(obj) == {"target", "findings", "scanned_files"}
    assert rep.elapsed_s >= 0.0


def test_report_write(planted, tmp_path):
    out = tmp_path / "report.json"
    sniffer.scan(planted).write(out)
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert obj["scanned_files"] == 5


# -- archives -----------------------------------------------------------------

def test_scan_looks_one_level_into_archives(tmp_path):
    inner = tmp_path / "inner.zip"
    with zipfile.ZipFile(inner, "w") as z:
        z.writestr("weights.params", b"\x00" * 4)
    bundle = tmp_path / "app.zip"
    with zipfile.ZipFile(bundle, "w") as z:
        z.writestr("assets/model.lite", b"TFL3" + b"\x00" * 4)
        z.writestr("nested.zip", inner.read_bytes())
        z.writestr("notes.txt", b"hello")
    inner.unlink()
    rep = sniffer.scan(bundle)
    paths = {f.path for f in rep.findings}
    assert f"{bundle}!assets/model.lite" in paths
    # entries of a zip inside the zip stay unopened
    assert not any("weights.params" in p for p in paths)
    tokens = {(f.kind, f.token) for f in rep.findings}
    assert ("magic", "TFL3") in tokens


# -- strings mode -------------------------------------------------------------

def test_binary_strings_find_split_keywords(tmp_path):
    # the keyword sits in a printable run surrounded by unprintable bytes
    path = tmp_path / "stripped.bin"
    path.write_bytes(b"\x01\x02" + b"runtime uses tflite ops" + b"\x00\x03")
    rep = sniffer.scan_binary_strings(path)
    kw = [f for f in rep.findings if f.token == "tflite"]
    assert kw and kw[0].kind == "keyword"
    assert kw[0].offset == 2 + len(b"runtime uses ")


def test_binary_strings_dedupe_per_token(tmp_path):
    path = tmp_path / "dup.bin"
    path.write_bytes(b"tflite\x00tflite\x00")
    rep = sniffer.scan_binary_strings(path)
    assert len([f for f in rep.findings if f.token == "tflite"]) == 1


def test_printable_run_floor():
    runs = list(sniffer._printable_runs(b"ab\x00abcd\x00abcde"))
    assert (len(runs) == 2
            and runs[0][1] == b"abcd" and runs[1][1] == b"abcde")


# -- signature sets -----------------------------------------------------------

def test_signature_set_json_round_trip():
    sigs = sniffer.default_signature_set()
    again = SignatureSet.from_json(sigs.to_json())
    assert again == sigs


def test_signature_set_rejects_empty():
    with pytest.raises(SnifferError, match="empty"):
        SignatureSet((), (), (), ())


def test_signature_set_rejects_unknown_fields():
    with pytest.raises(SnifferError, match="unknown signature field"):
        SignatureSet.from_obj({"extensions": [".x"], "globs": ["*"]})


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(["extensions", "filenames", "magics",
                              "keywords", None]),
       value=_JSON)
def test_signature_set_takes_any_json_field_or_raises_sniffer_error(field,
                                                                    value):
    # field None replaces the whole document
    obj = value if field is None else {
        "extensions": [".x"], "filenames": [], "magics": ["QQ"],
        "keywords": [], field: value}
    try:
        sigs = SignatureSet.from_obj(obj)
    except SnifferError:
        return
    assert all(isinstance(x, str) for x in (*sigs.extensions,
                                            *sigs.filenames))
    assert all(isinstance(x, bytes) for x in (*sigs.magics, *sigs.keywords))
    assert SignatureSet.from_json(sigs.to_json()) == sigs


def test_custom_signatures_drive_the_scan(tmp_path):
    (tmp_path / "model.xyz").write_bytes(b"QQQQdata")
    sigs = SignatureSet(extensions=(".xyz",), filenames=(),
                        magics=(b"QQQQ",), keywords=())
    rep = sniffer.scan(tmp_path, sigs)
    kinds = {f.kind for f in rep.findings}
    assert kinds == {"filename", "magic"}


def test_finding_objects_serialize_plainly():
    f = Finding(path="a/b", kind="magic", token="TFL3", offset=7)
    assert f.to_obj() == {"path": "a/b", "kind": "magic", "token": "TFL3",
                          "offset": 7}
