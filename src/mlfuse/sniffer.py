"""Detect DL components in app-package-like directories and archives.

Plays the attacker: given a directory, archive, or single file, report every
filename extension, magic byte sequence, and keyword from a signature set.
The same tool doubles as the acceptance check that a generated deployment
carries none of the fingerprints the baseline container format leaves behind.
"""

from __future__ import annotations

import json
import os
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path


class SnifferError(Exception):
    pass


@dataclass(frozen=True)
class SignatureSet:
    extensions: tuple[str, ...]
    filenames: tuple[str, ...]
    magics: tuple[bytes, ...]
    keywords: tuple[bytes, ...]

    def __post_init__(self):
        if not (self.extensions or self.filenames or self.magics
                or self.keywords):
            raise SnifferError("signature set is empty")

    def to_obj(self) -> dict:
        return {
            "extensions": list(self.extensions),
            "filenames": list(self.filenames),
            "magics": [m.decode("latin-1") for m in self.magics],
            "keywords": [k.decode("latin-1") for k in self.keywords],
        }

    @classmethod
    def from_obj(cls, obj) -> "SignatureSet":
        """Set from a parsed JSON object; SnifferError when malformed."""
        if not isinstance(obj, dict):
            raise SnifferError("signature set must be a JSON object")
        extra = set(obj) - {"extensions", "filenames", "magics", "keywords"}
        if extra:
            raise SnifferError(f"unknown signature field(s) {sorted(extra)}")
        fields = {}
        for key in ("extensions", "filenames", "magics", "keywords"):
            v = obj.get(key, [])
            if not (isinstance(v, list) and all(isinstance(x, str)
                                                for x in v)):
                raise SnifferError(f"signature {key} must be a list of "
                                   f"strings")
            if key in ("magics", "keywords"):
                try:
                    v = [x.encode("latin-1") for x in v]
                except UnicodeEncodeError:
                    raise SnifferError(f"signature {key} must be latin-1 "
                                       f"text") from None
            fields[key] = tuple(v)
        return cls(**fields)

    @classmethod
    def from_json(cls, text: str) -> "SignatureSet":
        return cls.from_obj(json.loads(text))

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))


def default_signature_set() -> SignatureSet:
    return SignatureSet(
        extensions=(".tflite", ".lite", ".mlg", ".mlw", ".params"),
        filenames=("graph.json",),
        magics=(b"MLW0", b"TFL3"),
        keywords=(b"org.tensorflow", b"tflite", b"libtvm_runtime"))


@dataclass(frozen=True)
class Finding:
    path: str
    kind: str  # "filename" | "magic" | "keyword"
    token: str
    offset: int | None  # None exactly when kind == "filename"

    def to_obj(self) -> dict:
        return {"path": self.path, "kind": self.kind, "token": self.token,
                "offset": self.offset}


def _finding_order(f: Finding):
    return (f.path, -1 if f.offset is None else f.offset, f.kind, f.token)


@dataclass
class ScanReport:
    target: str
    findings: list[Finding]
    scanned_files: int
    elapsed_s: float

    # elapsed_s is wall-clock noise, so the serialized report omits it and
    # stays byte-identical for identical targets.
    def to_obj(self) -> dict:
        return {
            "target": self.target,
            "findings": [f.to_obj() for f in self.findings],
            "scanned_files": self.scanned_files,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))

    def write(self, path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")


def _name_findings(label: str, basename: str, sigs: SignatureSet):
    low = basename.lower()
    out = []
    for ext in sigs.extensions:
        if low.endswith(ext.lower()):
            out.append(Finding(label, "filename", ext, None))
    for name in sigs.filenames:
        if low == name.lower():
            out.append(Finding(label, "filename", name, None))
    return out


def _content_findings(label: str, data: bytes, sigs: SignatureSet,
                      base_offset: int = 0):
    out = []
    for kind, tokens in (("magic", sigs.magics), ("keyword", sigs.keywords)):
        for token in tokens:
            pos = data.find(token)
            if pos >= 0:
                out.append(Finding(label, kind, token.decode("latin-1"),
                                   base_offset + pos))
    return out


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as e:
        raise SnifferError(f"unreadable target: {path} ({e})") from None


def scan(target, sigs: SignatureSet | None = None) -> ScanReport:
    """Scan a directory, archive, or file for DL component signatures.

    Zip archives are opened and their entries scanned one level deep;
    nested archives inside an archive are treated as opaque bytes.
    """
    sigs = sigs or default_signature_set()
    t0 = time.perf_counter()
    root = Path(target)
    if root.is_dir():
        files = []
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for fn in sorted(filenames):
                files.append(Path(dirpath) / fn)
    elif root.is_file():
        files = [root]
    else:
        raise SnifferError(f"unreadable target: {target}")

    findings: list[Finding] = []
    scanned = 0
    for path in files:
        label = str(path)
        scanned += 1
        findings.extend(_name_findings(label, path.name, sigs))
        data = _read(path)
        findings.extend(_content_findings(label, data, sigs))
        if zipfile.is_zipfile(path):
            with zipfile.ZipFile(path) as z:
                for entry in sorted(z.namelist()):
                    if entry.endswith("/"):
                        continue
                    scanned += 1
                    inner = f"{label}!{entry}"
                    base = os.path.basename(entry)
                    findings.extend(_name_findings(inner, base, sigs))
                    findings.extend(_content_findings(inner, z.read(entry),
                                                      sigs))
    findings.sort(key=_finding_order)
    return ScanReport(target=str(target), findings=findings,
                      scanned_files=scanned,
                      elapsed_s=time.perf_counter() - t0)


def _printable_runs(data: bytes, min_len: int = 4):
    """Yield (offset, run) for maximal printable-ASCII runs of min_len+."""
    start = None
    for i, b in enumerate(data):
        if 0x20 <= b <= 0x7E:
            if start is None:
                start = i
        elif start is not None:
            if i - start >= min_len:
                yield start, data[start:i]
            start = None
    if start is not None and len(data) - start >= min_len:
        yield start, data[start:]


def scan_binary_strings(path, sigs: SignatureSet | None = None) -> ScanReport:
    """Match magics and keywords against the printable strings of one file."""
    sigs = sigs or default_signature_set()
    t0 = time.perf_counter()
    p = Path(path)
    if not p.is_file():
        raise SnifferError(f"unreadable target: {path}")
    data = _read(p)
    label = str(p)
    findings = []
    seen = set()
    for offset, run in _printable_runs(data):
        for f in _content_findings(label, run, sigs, base_offset=offset):
            if (f.kind, f.token) not in seen:
                seen.add((f.kind, f.token))
                findings.append(f)
    findings.sort(key=_finding_order)
    return ScanReport(target=str(path), findings=findings, scanned_files=1,
                      elapsed_s=time.perf_counter() - t0)
