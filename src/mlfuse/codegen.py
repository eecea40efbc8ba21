"""Compile a model bundle into a self-contained executable program.

The pipeline lowers the bundle once (lowering.py): one computing unit per
operator with its known configuration resolved from the container, and one
buffer per tensor. It searches the one unknown, the weight layout of each
conv and FC, by comparing candidate behavior against the runtime; each
candidate goes through lowering.configure, the step the interpreter uses
too. It then emits, straight from the lowering and the accepted
candidate's weights, a program that embeds the weight payloads and only the
kernel templates the model needs. The emitted program carries no model container,
no parser, and no registry; its only file access at inference time is the
input tensor argument.

Search never reads the layout table shipped with the runtime; it recovers
workable layouts purely from observed behavior.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
import math
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import graphir, harness, interpreter
from .graphir import GraphError, DataType, ModelBundle
from .kernels import DeviceInfo, class_signature, default_registry
from .kernels import ops as kernel_ops
from .lowering import LoweredOp, Lowering, configure, lower


class CodegenError(Exception):
    pass


class SearchError(CodegenError):
    def __init__(self, msg, candidates_evaluated=0, best_error=math.inf):
        super().__init__(msg)
        self.candidates_evaluated = candidates_evaluated
        self.best_error = best_error


class ToolchainError(CodegenError):
    pass


class CompileError(CodegenError):
    pass


@dataclass(frozen=True)
class ToolchainConfig:
    command: str = sys.executable
    flags: tuple[str, ...] = ()
    strip_flags: tuple[str, ...] = ("-OO",)
    strip: bool = True

    @classmethod
    def from_obj(cls, obj) -> "ToolchainConfig":
        """Config from a parsed JSON object; CodegenError when malformed."""
        if not isinstance(obj, dict):
            raise CodegenError("toolchain config must be a JSON object")
        extra = set(obj) - {"command", "flags", "strip_flags", "strip"}
        if extra:
            raise CodegenError(f"unknown toolchain field(s) {sorted(extra)}")
        kw = dict(obj)

        def arg(v):  # no OS argv can carry a NUL
            return isinstance(v, str) and "\0" not in v

        if "command" in kw and not arg(kw["command"]):
            raise CodegenError("toolchain command must be a string")
        for key in ("flags", "strip_flags"):
            if key in kw:
                if not (isinstance(kw[key], list)
                        and all(arg(v) for v in kw[key])):
                    raise CodegenError(
                        f"toolchain {key} must be a list of strings")
                kw[key] = tuple(kw[key])
        if "strip" in kw and not isinstance(kw["strip"], bool):
            raise CodegenError("toolchain strip must be true or false")
        return cls(**kw)


@dataclass(frozen=True)
class ConfigurationClass:
    """Operators sharing a unit and an option signature.

    All members take their weight in the same unknown layout, so one choice
    covers the whole class and the joint search space shrinks accordingly.
    """
    key: tuple  # (kind, dtype name, signature)
    layouts: tuple[str, ...]  # the unit's layouts, in search order
    members: tuple[int, ...]


@dataclass
class SearchResult:
    layouts: list  # per operator index: the accepted layout name, or None
    candidates_evaluated: int
    # largest l2 error of any tensor an operator writes, on any sample
    # input; written to the manifest as max_diff
    max_error: float
    scratch_bytes: int  # kernel scratch of the accepted candidate's states
    weights: list  # per operator: its flat weights in the accepted layouts


@dataclass
class EmissionPlan:
    """Everything the emitter needs, already cut loose from the container."""
    lowered: Lowering
    # name -> flat array in the accepted layout, in operator then slot order
    weights: dict
    scratch_bytes: int


@dataclass
class GeneratedArtifact:
    out_dir: str
    sources: list[str]  # relative to out_dir
    executable: str  # absolute path
    manifest: dict
    plan_digest: str

    @property
    def manifest_path(self) -> str:
        return str(Path(self.out_dir) / "build_manifest.json")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# what verify and bench read from a manifest: key -> (check, expectation)
_MANIFEST_FIELDS = {
    "sources": (lambda v: isinstance(v, list)
                and all(isinstance(x, str) for x in v), "a list of strings"),
    "executable": (lambda v: isinstance(v, str), "a string"),
    "plan_digest": (lambda v: isinstance(v, str), "a string"),
    "delta": (lambda v: (_is_int(v) or isinstance(v, float))
              and math.isfinite(v) and v >= 0, "a finite number >= 0"),
    "n_inputs": (_is_int, "an integer"),
    "seed": (_is_int, "an integer"),
}


def load_artifact(out_dir) -> GeneratedArtifact:
    path = Path(out_dir) / "build_manifest.json"
    if not path.is_file():
        raise CodegenError(f"no build manifest under {out_dir}")
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(manifest, dict):
        raise CodegenError(f"{path}: build manifest must be a JSON object")
    for key, (ok, want) in _MANIFEST_FIELDS.items():
        if key not in manifest:
            raise CodegenError(f"{path}: build manifest lacks '{key}'")
        if not ok(manifest[key]):
            raise CodegenError(f"{path}: build manifest '{key}' must be "
                               f"{want}")
    # the program a verify or bench run executes, and the sources beside
    # it, must be files of this build, not paths out of it
    root = Path(out_dir).resolve()
    for name in [manifest["executable"], *manifest["sources"]]:
        try:
            inside = root in (root / name).resolve().parents
        except ValueError:  # a NUL byte in the name
            inside = False
        if not inside:
            raise CodegenError(f"{path}: build manifest path {name!r} is "
                               f"not inside the build directory")
    return GeneratedArtifact(
        out_dir=str(out_dir), sources=list(manifest["sources"]),
        executable=str(Path(out_dir) / manifest["executable"]),
        manifest=manifest, plan_digest=manifest["plan_digest"])


# ---------------------------------------------------------------------------
# Extraction and analysis


def extract_units(bundle: ModelBundle, device: DeviceInfo | None = None,
                  registry=None) -> Lowering:
    """Lower the bundle: one computing unit per operator for the target
    device, with its resolved knowns, tensor ids and buffers."""
    return lower(bundle, device, registry)


def analyze_config(lowered: Lowering) -> list[LoweredOp]:
    """Per-operator configuration, in graph order: unit, knowns and ids.

    The lowering has already resolved every known from the validated
    graph's shapes and options.
    """
    return lowered.ops


# ---------------------------------------------------------------------------
# Status search


def build_classes(configs) -> list[ConfigurationClass]:
    groups: dict = {}
    for c in configs:
        if c.unit.layouts:
            key = (c.kind, c.unit.key.dtype.name, class_signature(c.params))
            groups.setdefault(key, (tuple(c.unit.layouts), []))[1].append(
                c.op_index)
    return [ConfigurationClass(key=key, layouts=layouts,
                               members=tuple(sorted(members)))
            for key, (layouts, members) in sorted(groups.items())]


def _worst_error(steps, xs, refs, input_bufs, buffers, delta) -> float:
    """Largest per-tensor l2 distance from the runtime over all inputs.

    steps are (unit, prepared state, output ids) in graph order. Stops at
    the first tensor beyond delta and returns its distance.
    """
    worst = 0.0
    for x, ref in zip(xs, refs):
        for buf, arr in zip(input_bufs, x):
            np.copyto(buf, arr.reshape(-1))
        for unit, state, out_ids in steps:
            unit.fn(*state)
            for tid in out_ids:
                err = float(np.linalg.norm(
                    np.subtract(buffers[tid], ref[tid], dtype=np.float64)))
                if not err <= delta:
                    return err if math.isfinite(err) else math.inf
                worst = max(worst, err)
    return worst


def _scratch_bytes(states, known) -> int:
    """Bytes of every array the states hold whose memory is not known.

    known holds the tensor buffers and weights the states were prepared
    on, so what is left is the scratch the prepare steps allocated.
    """
    def root(a):
        while getattr(a, "base", None) is not None:
            a = a.base
        return a

    known = {id(root(a)) for a in known}
    scratch = {}
    stack = list(states)
    while stack:
        obj = stack.pop()
        if isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, np.ndarray):
            r = root(obj)
            if isinstance(r, np.ndarray) and id(r) not in known:
                scratch[id(r)] = r
    return sum(a.nbytes for a in scratch.values())


def search_status(bundle: ModelBundle, lowered: Lowering, configs,
                  cfg: harness.VerifyConfig | None = None,
                  registry=None) -> SearchResult:
    """Find weight layouts whose behavior matches the runtime within delta.

    Candidates are joint assignments of one layout per configuration class,
    enumerated in each unit's layout order. Every tensor an operator writes is
    compared with the runtime's copy of it, right after that operator runs:
    a candidate is rejected at the first tensor whose l2 distance exceeds
    delta, so a wrong layout cannot hide behind a saturating later operator.
    The accepted candidate is evaluated on every input. lowering.configure
    lays each candidate's weights out and prepares its kernels once, and
    they then run on all inputs; the accepted candidate's flat weights go
    to the emitter as they are. The runtime's plan is loaded with the given
    registry, not from the lowering.
    """
    cfg = cfg or harness.VerifyConfig()
    classes = build_classes(configs)

    plan = interpreter.load(bundle, device=lowered.device, registry=registry)
    xs = harness.make_inputs(bundle.graph, cfg)
    produced = [t for c in configs for t in c.output_ids]
    refs = []
    for x in xs:
        interpreter.invoke(plan, x)
        refs.append({t: plan.buffers[t].copy() for t in produced})

    buffers = lowered.allocate()
    input_bufs = [buffers[t] for t in lowered.input_ids]
    evaluated = 0
    best = math.inf
    for joint in itertools.product(*(cls.layouts for cls in classes)):
        evaluated += 1
        layouts = [None] * len(configs)
        for cls, layout in zip(classes, joint):
            for i in cls.members:
                layouts[i] = layout
        flats, states, _ = configure(lowered, layouts, buffers)
        worst = _worst_error(
            [(c.unit, s, c.output_ids) for c, s in zip(configs, states)],
            xs, refs, input_bufs, buffers, cfg.delta)
        if worst <= cfg.delta:
            known = [*buffers.values(), *itertools.chain(*flats)]
            return SearchResult(
                layouts=layouts, candidates_evaluated=evaluated,
                max_error=worst, scratch_bytes=_scratch_bytes(states, known),
                weights=flats)
        if worst < best:
            best = worst
    raise SearchError(
        f"status search exhausted {evaluated} candidate(s) without meeting "
        f"delta={cfg.delta}; best observed max error {best}",
        candidates_evaluated=evaluated, best_error=best)


# ---------------------------------------------------------------------------
# Emission


def _weight_names(op: LoweredOp) -> list[str]:
    return [f"W{op.op_index}_{slot}" for slot in range(len(op.weight_keys))]


def build_emission_plan(lowered: Lowering, configs,
                        result: SearchResult) -> EmissionPlan:
    """Name the accepted candidate's weights; nothing is laid out again."""
    weights = {name: arr for c, flats in zip(configs, result.weights)
               for name, arr in zip(_weight_names(c), flats)}
    return EmissionPlan(lowered=lowered, weights=weights,
                        scratch_bytes=result.scratch_bytes)


_FORBIDDEN_TOKENS = ("tflite", ".lite", "graph.json", ".params", "MLW0",
                     "org.tensorflow", "libtvm")

_NP_DTYPE_TOKEN = {"F32": "np.float32", "I32": "np.int32"}


def _lit(v) -> str:
    if v is None or isinstance(v, bool):
        return repr(v)
    if isinstance(v, int):
        return repr(v)
    if isinstance(v, float):
        if math.isnan(v) or math.isinf(v):
            return f'float("{v!r}")'
        return repr(v)
    if isinstance(v, str):
        return repr(v)
    if isinstance(v, tuple):
        inner = ", ".join(_lit(x) for x in v)
        return f"({inner},)" if len(v) == 1 else f"({inner})"
    raise CodegenError(f"cannot render literal for {type(v).__name__}")


def _wrap_args(parts, indent="        ", width=80) -> list[str]:
    lines = []
    cur = ""
    for part in parts:
        piece = part + ","
        joined = piece if not cur else f"{cur} {piece}"
        if cur and len(indent) + len(joined) > width:
            lines.append(indent + cur)
            cur = piece
        else:
            cur = joined
    if cur:
        lines.append(indent + cur)
    return lines


def _emit_weights(plan: EmissionPlan) -> str:
    # one bytes literal holds every payload and each weight is a read-only
    # view into it. Every byte is written as an escape, so no stretch of the
    # blob can read as text in the source.
    names = list(plan.weights)
    for name in names:
        if plan.weights[name].dtype not in (np.float32, np.int32):
            raise CodegenError(f"cannot embed weight dtype "
                               f"{plan.weights[name].dtype}")
    blob = b"".join(plan.weights[n].tobytes() for n in names)
    lines = ["import numpy as np", "", "_B = ("]
    for i in range(0, len(blob), 64):
        lines.append('    b"\\x' + blob[i:i + 64].hex(" ").replace(" ", "\\x")
                     + '"')
    lines += [")", "_F = np.frombuffer(_B, np.float32)"]
    ends = [0]
    for n in names:
        ends.append(ends[-1] + plan.weights[n].size)
    lines.append("(")
    lines.extend(_wrap_args(names, indent="    "))
    lines.append(f") = np.split(_F, {_lit(tuple(ends[1:-1]))})")
    for n in names:
        if plan.weights[n].dtype == np.int32:
            lines.append(f"{n} = {n}.view(np.int32)")
    return "\n".join(lines) + "\n"


@functools.cache
def _template_source(fn) -> str:
    # inspect.getsource tokenizes the source anew on every call (about
    # 0.3 ms), and a template's text is fixed for the life of the process
    return inspect.getsource(fn).rstrip("\n")


def _emit_driver(plan: EmissionPlan) -> str:
    # The buffers and every kernel's prepared state live at module level,
    # made once at import; run() only copies the inputs in, calls each run
    # step through its module-global name (so it can be wrapped after
    # import) and hands back fresh copies of the outputs.
    lowered = plan.lowered
    used_templates = list(dict.fromkeys(op.unit.template_id
                                        for op in lowered.ops))
    helpers = []
    for tid in used_templates:
        for h in kernel_ops.HELPER_DEPS[tid]:
            if h not in helpers:
                helpers.append(h)
    helpers.sort()

    out = ["import numpy as np", ""]
    if plan.weights:
        out.append("from net_weights import (")
        out.extend(_wrap_args(plan.weights, indent="    "))
        out.append(")")
        out.append("")
    out.append("")
    sources = [kernel_ops.HELPERS[h] for h in helpers]
    for tid in used_templates:
        sources += [kernel_ops.PREPS[tid], kernel_ops.KERNELS[tid]]
    for fn in sources:
        out.append(_template_source(fn))
        out.append("")
        out.append("")

    in_specs = [lowered.tensors[t] for t in lowered.input_ids]
    out.append(f"INPUT_SHAPES = {_lit(tuple(b.shape for b in in_specs))}")
    out.append(f"INPUT_SIZES = {_lit(tuple(b.count for b in in_specs))}")
    total = sum(b.count * 4 for b in lowered.tensors.values())
    out.append(f"BUFFER_BYTES = {total}")
    out.append(f"SCRATCH_BYTES = {plan.scratch_bytes}")
    out.append("")
    for tid in sorted(lowered.tensors):
        b = lowered.tensors[tid]
        out.append(f"t{tid} = np.empty({b.count}, "
                   f"{_NP_DTYPE_TOKEN[b.dtype.name]})")
    for op in lowered.ops:
        ins = ", ".join(f"t{t}" for t in op.act_ids)
        ws = ", ".join(_weight_names(op))
        outs = ", ".join(f"t{t}" for t in op.output_ids)
        out.append(f"S{op.op_index} = {op.unit.template_id}_prep(")
        out.append(f"    [{ins}], [{ws}], [{outs}],")
        kw_parts = [f"{k}={_lit(v)}" for k, v in op.params.values.items()]
        out.extend(_wrap_args(kw_parts, indent="    "))
        out.append(")")
    out.append("")
    out.append("")
    out.append("def run(inputs):")
    for slot, tid in enumerate(lowered.input_ids):
        out.append(f"    np.copyto(t{tid}, inputs[{slot}].reshape(-1))")
    for op in lowered.ops:
        out.append(f"    {op.unit.template_id}(*S{op.op_index})")
    rets = ", ".join(f"t{t}.copy()" for t in lowered.output_ids)
    if len(lowered.output_ids) == 1:
        rets += ","
    out.append(f"    return ({rets})")
    return "\n".join(out) + "\n"


_MAIN_SRC = '''\
import os
import site
import sys

# The interpreter line runs this under -S: no .pth file or sitecustomize of
# the host runs, and importing site runs none either. The package dirs site
# would add go on sys.path; the user site dir stays out. Under -S a venv's
# python keeps the base install as sys.prefix, and Debian's
# site.getsitepackages only names a venv's site-packages when sys.prefix
# differs from sys.base_prefix, so a venv (the dir above bin/ holds a
# pyvenv.cfg) becomes sys.prefix, as site itself would make it, and its
# dirs go before the base install's. No kernel calls BLAS, so OpenBLAS gets
# one thread, not a pool of idle workers; that must be set before numpy is
# imported.
v = sys.executable.rsplit("/", 2)[0]
if os.path.isfile(v + "/pyvenv.cfg"):
    sys.prefix = v
sys.path += site.getsitepackages([sys.prefix, sys.base_prefix])
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import gc
import itertools
import time

import numpy as np

import net_driver


def main(argv):
    reps = 1
    stats_path = None
    paths = []
    args = iter(argv)
    try:
        for a in args:
            if a == "--reps":
                reps = int(next(args))
            elif a == "--stats":
                stats_path = next(args)
            else:
                paths.append(a)
    except (StopIteration, ValueError):
        paths = ()
    if len(paths) != 2 or reps < 1:
        print("usage: program IN.raw OUT.raw [--reps N] [--stats FILE]",
              file=sys.stderr)
        return 2
    per_sample = sum(net_driver.INPUT_SIZES)
    flat = np.fromfile(paths[0], dtype="<f4").astype(np.float32)
    if flat.size == 0 or flat.size % per_sample != 0:
        print(f"input holds {flat.size} values, need a multiple of "
              f"{per_sample}", file=sys.stderr)
        return 2
    samples = []
    for row in flat.reshape(-1, per_sample):
        fields = []
        at = 0
        for n, shape in zip(net_driver.INPUT_SIZES, net_driver.INPUT_SHAPES):
            fields.append(row[at:at + n].reshape(shape))
            at += n
        samples.append(fields)
    net_driver.run(samples[0])
    times = []
    # collector pauses would land in individual repetitions; keep it off
    # while the clock runs
    gc.disable()
    try:
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            outs = list(map(net_driver.run, samples))
            times.append(time.perf_counter_ns() - t0)
    finally:
        gc.enable()
    merged = np.concatenate([*itertools.chain(*outs)])  # flat buffers' copies
    merged.astype("<f4").tofile(paths[1])
    if stats_path is not None:
        # run() allocates only the copies of the outputs it hands back.
        # Kernel scratch, prepared at import, is reported on its own: the
        # interpreter's peak leaves out the same scratch. json is imported
        # only here: a run without --stats does not pay for it.
        import json

        invoke_bytes = merged.nbytes // len(samples)
        stats = {
            "reps": reps,
            "samples": len(samples),
            "invoke_ns": times,
            "load_bytes": 0,
            "configure_bytes": 0,
            "scratch_bytes": net_driver.SCRATCH_BYTES,
            "invoke_bytes": invoke_bytes,
            "peak_bytes": net_driver.BUFFER_BYTES + invoke_bytes,
        }
        with open(stats_path, "w") as f:
            json.dump(stats, f, sort_keys=True)
    return 0


if __name__ == "__main__":
    # file access is the only source of OSError here
    try:
        sys.exit(main(sys.argv[1:]))
    except OSError as e:
        print(f"{e.filename}: {e.strerror}", file=sys.stderr)
        sys.exit(2)
'''


# The one toolchain step: argv is the pyc directory ("" to compile as a
# check only), then the source paths. It imports only builtin and frozen
# modules, which a file in the working directory cannot shadow, and no more
# than bare interpreter start-up does. Each source compiles under its bare
# file name, so co_filename does not depend on where the build ran, and a
# stripped build writes the PEP 552 unchecked-hash pyc py_compile would.
_COMPILE_SRC = '''\
import _imp
import sys
from _frozen_importlib_external import (
    _RAW_MAGIC_NUMBER, _code_to_hash_pyc, _path_join, _path_split)

out = sys.argv[1]
for path in sys.argv[2:]:
    name = _path_split(path)[1]
    with open(path, "rb") as f:
        src = f.read()
    try:
        code = compile(src, name, "exec", dont_inherit=True)
    except SyntaxError as e:
        sys.exit(f"SyntaxError: {e}")
    if out:
        data = _code_to_hash_pyc(
            code, _imp.source_hash(_RAW_MAGIC_NUMBER, src), False)
        with open(_path_join(out, name.rpartition(".")[0] + ".pyc"),
                  "wb") as f:
            f.write(data)
'''


def emit_source(plan: EmissionPlan, out_dir) -> list[str]:
    """Write the program sources under out_dir/src; returns relative paths."""
    src = Path(out_dir) / "src"
    src.mkdir(parents=True, exist_ok=True)
    rel = []
    if plan.weights:
        (src / "net_weights.py").write_text(_emit_weights(plan),
                                            encoding="utf-8")
        rel.append("src/net_weights.py")
    (src / "net_driver.py").write_text(_emit_driver(plan), encoding="utf-8")
    rel.append("src/net_driver.py")
    (src / "__main__.py").write_text(_MAIN_SRC, encoding="utf-8")
    rel.append("src/__main__.py")

    for r in rel:
        text = (Path(out_dir) / r).read_text(encoding="utf-8")
        for token in _FORBIDDEN_TOKENS:
            if token in text:
                raise CodegenError(f"emitted source {r} contains forbidden "
                                   f"token {token!r}")
    return rel


# ---------------------------------------------------------------------------
# Compilation


def _resolve_toolchain(toolchain: ToolchainConfig) -> str:
    cmd = toolchain.command
    if os.sep in cmd:
        if os.path.isfile(cmd) and os.access(cmd, os.X_OK):
            return cmd
        raise ToolchainError(f"toolchain not found: {cmd}")
    resolved = shutil.which(cmd)
    if resolved is None:
        raise ToolchainError(f"toolchain not found: {cmd}")
    return resolved


def _run_tool(cmd) -> None:
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise CompileError(f"toolchain step failed (rc={proc.returncode}): "
                           f"{proc.stderr.strip() or proc.stdout.strip()}")


def compile_program(out_dir, sources, toolchain: ToolchainConfig | None = None) -> str:
    """Check and package the emitted sources into one executable file.

    One toolchain process runs _COMPILE_SRC on every source: `python -S
    <flags> <strip_flags> -X no_debug_ranges -c _COMPILE_SRC TMPDIR SRC...`
    for a stripped build, which ships the pycs it writes, and `python -S
    <flags> -c _COMPILE_SRC "" SRC...` for an unstripped one, which only
    checks that each source compiles and ships the sources. The program's
    interpreter line is `#!<python> -S`, so no site hooks of the host run
    in it (see _MAIN_SRC).
    """
    toolchain = toolchain or ToolchainConfig()
    python = _resolve_toolchain(toolchain)
    out_dir = Path(out_dir)
    abs_sources = [out_dir / s for s in sources]
    # -S: the step needs no site packages, and no .pth or sitecustomize
    # code of the build host may run inside it. The user's flags gate the
    # compile (-W error turns a SyntaxWarning into a failed step).
    tool = [python, "-S", *toolchain.flags]

    members = []
    if toolchain.strip:
        with tempfile.TemporaryDirectory(prefix="mlfuse-build-") as td:
            # no_debug_ranges drops the per-instruction column tables, which
            # only serve traceback carets (interpreters before 3.11 ignore it).
            _run_tool([*tool, *toolchain.strip_flags, "-X", "no_debug_ranges",
                       "-c", _COMPILE_SRC, td, *map(str, abs_sources)])
            for p in abs_sources:
                pyc = Path(td) / (p.stem + ".pyc")
                if not pyc.is_file():
                    raise CompileError(f"no bytecode produced for {p.name}")
                members.append((p.stem + ".pyc", pyc.read_bytes()))
    else:
        _run_tool([*tool, "-c", _COMPILE_SRC, "", *map(str, abs_sources)])
        members = [(p.name, p.read_bytes()) for p in abs_sources]
    members.sort()

    exe = out_dir / "program"
    with open(exe, "wb") as f:
        f.write(b"#!" + python.encode() + b" -S\n")
        with zipfile.ZipFile(f, "w", zipfile.ZIP_STORED) as z:
            for name, data in members:
                info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
                z.writestr(info, data)
    exe.chmod(exe.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)
    return "program"


# ---------------------------------------------------------------------------
# Pipeline


def plan_digest(out_dir, sources, config: dict) -> str:
    h = hashlib.sha256()
    for rel in sorted(sources):
        h.update(rel.encode("utf-8") + b"\0")
        h.update((Path(out_dir) / rel).read_bytes())
        h.update(b"\0")
    h.update(json.dumps(config, sort_keys=True).encode("utf-8"))
    return h.hexdigest()


def pipeline(bundle: ModelBundle, out_dir, device: DeviceInfo | None = None,
             cfg: harness.VerifyConfig | None = None,
             toolchain: ToolchainConfig | None = None,
             registry=None) -> GeneratedArtifact:
    """Full build: extract, analyze, search, emit, compile, manifest."""
    device = device or DeviceInfo()
    cfg = cfg or harness.VerifyConfig()
    toolchain = toolchain or ToolchainConfig()
    registry = registry or default_registry()
    graph = bundle.graph

    problems = graphir.validate(bundle, custom_rules=registry.custom_shape_rules())
    if problems:
        raise GraphError("invalid bundle: " + "; ".join(problems))
    for tid in (*graph.inputs, *graph.outputs):
        if graph.tensors[tid].dtype is not DataType.F32:
            raise CodegenError("program IO is little-endian F32; graph "
                               f"tensor {tid} is {graph.tensors[tid].dtype.name}")

    lowered = extract_units(bundle, device, registry)
    configs = analyze_config(lowered)
    result = search_status(bundle, lowered, configs, cfg, registry)
    plan = build_emission_plan(lowered, configs, result)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sources = emit_source(plan, out_dir)
    digest = plan_digest(out_dir, sources, {
        "seed": cfg.seed, "delta": cfg.delta, "n_inputs": cfg.n_inputs,
        "threads": device.threads, "strip": toolchain.strip,
    })
    exe_rel = compile_program(out_dir, sources, toolchain)

    manifest = {
        "plan_digest": digest,
        "seed": cfg.seed,
        "delta": cfg.delta,
        "n_inputs": cfg.n_inputs,
        "candidates_evaluated": result.candidates_evaluated,
        "max_diff": result.max_error,
        "sources": sources,
        "executable": exe_rel,
        "device": {"threads": device.threads},
        "strip": toolchain.strip,
    }
    manifest_text = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    (out_dir / "build_manifest.json").write_text(manifest_text,
                                                 encoding="utf-8")
    return GeneratedArtifact(
        out_dir=str(out_dir), sources=sources,
        executable=str(out_dir / exe_rel), manifest=manifest,
        plan_digest=digest)
