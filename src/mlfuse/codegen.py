"""Compile a model bundle into a self-contained executable program.

The pipeline lowers the bundle once (lowering.py): one computing unit per
operator with its known configuration resolved from the container, and one
buffer per tensor. It searches the unknown settings by comparing candidate
behavior against the runtime, and then emits a program that embeds the
weight payloads and only the kernel templates the model needs. The
emitted program carries no model container, no parser, and no registry; its
only file access at inference time is the input tensor argument.

Search never reads the configuration table shipped with the runtime; it
recovers workable settings purely from observed behavior.
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
from .kernels import (
    DeviceInfo,
    StatusAssignment,
    class_signature,
    default_registry,
)
from .kernels import ops as kernel_ops
from .lowering import BufferSpec, LoweredOp, Lowering, bind, lower


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
    """Operators sharing a unit, option signature, and data kind.

    All members carry the same unknown settings, so one choice covers the
    whole class and the joint search space shrinks accordingly.
    """
    key: tuple
    fields: tuple
    members: tuple[int, ...]

    def candidates(self):
        return itertools.product(*(f.domain for f in self.fields))


@dataclass
class SearchResult:
    assignment: StatusAssignment
    candidates_evaluated: int
    # largest l2 error of any tensor an operator writes, on any sample
    # input; written to the manifest as max_diff
    max_error: float
    scratch_bytes: int  # kernel scratch of the accepted candidate's states


@dataclass
class EmissionStep:
    op_index: int
    template_id: str
    kwargs: dict
    act_ids: tuple[int, ...]
    output_ids: tuple[int, ...]
    weight_names: tuple[str, ...]


@dataclass
class EmissionPlan:
    """Everything the emitter needs, already cut loose from the container."""
    steps: list[EmissionStep]
    weights: dict  # name -> flat array, laid out per the accepted status
    tensors: dict[int, BufferSpec]  # one buffer per non-weight tensor
    input_ids: tuple[int, ...]
    output_ids: tuple[int, ...]
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


def load_artifact(out_dir) -> GeneratedArtifact:
    path = Path(out_dir) / "build_manifest.json"
    if not path.is_file():
        raise CodegenError(f"no build manifest under {out_dir}")
    manifest = json.loads(path.read_text(encoding="utf-8"))
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

    The lowering has already resolved every known and cross-checked the
    unit's shape math against the graph.
    """
    return lowered.ops


# ---------------------------------------------------------------------------
# Status search


def build_classes(configs) -> list[ConfigurationClass]:
    groups: dict = {}
    for c in configs:
        schema = c.unit.status_schema
        if not schema:
            continue
        sig = class_signature(c.params)
        seen_kinds = []
        for f in schema:
            if f.data_kind not in seen_kinds:
                seen_kinds.append(f.data_kind)
        for dk in seen_kinds:
            fields = tuple(f for f in schema if f.data_kind == dk)
            key = (c.kind, c.unit.key.dtype.name, c.unit.key.variant, sig, dk)
            entry = groups.setdefault(key, (fields, []))
            entry[1].append(c.op_index)
    return [ConfigurationClass(key=key, fields=fields,
                               members=tuple(sorted(members)))
            for key, (fields, members) in sorted(groups.items())]


def _statuses_for(joint, classes, n_ops) -> list[dict]:
    per_op: list[dict] = [{} for _ in range(n_ops)]
    for cls, values in zip(classes, joint):
        for f, v in zip(cls.fields, values):
            for op_i in cls.members:
                if f.name in per_op[op_i]:
                    raise CodegenError(
                        f"status '{f.name}' assigned twice for operator {op_i}")
                per_op[op_i][f.name] = v
    return per_op


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
    """Find status values whose behavior matches the runtime within delta.

    Candidates are joint assignments over the configuration classes,
    enumerated in declared domain order. Every tensor an operator writes is
    compared with the runtime's copy of it, right after that operator runs:
    a candidate is rejected at the first tensor whose l2 distance exceeds
    delta, so a wrong layout cannot hide behind a saturating later operator.
    The accepted candidate is evaluated on every input. Each candidate's
    kernels are prepared once and then run on all inputs. The runtime's
    plan is loaded with the given registry, not from the lowering.
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
    for joint in itertools.product(*(list(cls.candidates())
                                     for cls in classes)):
        evaluated += 1
        per_op = _statuses_for(joint, classes, len(configs))
        steps = []
        known = list(buffers.values())
        for c in configs:
            flats, kwargs, _ = bind(c, per_op[c.op_index], lowered.weights)
            known += flats
            steps.append((c.unit, c.prepare(buffers, flats, kwargs),
                          c.output_ids))
        worst = _worst_error(steps, xs, refs, input_bufs, buffers, cfg.delta)
        if worst <= cfg.delta:
            assignment = StatusAssignment(
                class_choices={
                    cls.key: dict(zip((f.name for f in cls.fields), values))
                    for cls, values in zip(classes, joint)},
                per_op=per_op)
            return SearchResult(
                assignment=assignment, candidates_evaluated=evaluated,
                max_error=worst,
                scratch_bytes=_scratch_bytes([s[1] for s in steps], known))
        if worst < best:
            best = worst
    raise SearchError(
        f"status search exhausted {evaluated} candidate(s) without meeting "
        f"delta={cfg.delta}; best observed max error {best}",
        candidates_evaluated=evaluated, best_error=best)


# ---------------------------------------------------------------------------
# Emission


def build_emission_plan(lowered: Lowering, configs,
                        result: SearchResult) -> EmissionPlan:
    steps = []
    weights_out: dict = {}
    for c in configs:
        flats, kwargs, _ = bind(c, result.assignment.per_op[c.op_index],
                                lowered.weights)
        names = []
        for slot, arr in enumerate(flats):
            name = f"W{c.op_index}_{slot}"
            weights_out[name] = arr
            names.append(name)
        steps.append(EmissionStep(
            op_index=c.op_index, template_id=c.unit.template_id,
            kwargs=kwargs, act_ids=c.act_ids, output_ids=c.output_ids,
            weight_names=tuple(names)))
    return EmissionPlan(
        steps=steps, weights=weights_out, tensors=lowered.tensors,
        input_ids=lowered.input_ids, output_ids=lowered.output_ids,
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


def _weight_order(name: str) -> tuple[int, int]:
    op, slot = name[1:].split("_")
    return int(op), int(slot)


def _emit_weights(plan: EmissionPlan) -> str:
    # one bytes literal holds every payload and each weight is a read-only
    # view into it. Every byte is written as an escape, so no stretch of the
    # blob can read as text in the source.
    names = sorted(plan.weights, key=_weight_order)
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
    used_templates = []
    for step in plan.steps:
        if step.template_id not in used_templates:
            used_templates.append(step.template_id)
    helpers = []
    for tid in used_templates:
        for h in kernel_ops.HELPER_DEPS[tid]:
            if h not in helpers:
                helpers.append(h)
    helpers.sort()

    out = ["import numpy as np", ""]
    if plan.weights:
        names = sorted(plan.weights, key=_weight_order)
        out.append("from net_weights import (")
        out.extend(_wrap_args(names, indent="    "))
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

    in_specs = [plan.tensors[t] for t in plan.input_ids]
    out_shapes = tuple(plan.tensors[t].shape for t in plan.output_ids)
    out.append(f"INPUT_SHAPES = {_lit(tuple(b.shape for b in in_specs))}")
    out.append(f"INPUT_SIZES = {_lit(tuple(b.count for b in in_specs))}")
    out.append(f"OUTPUT_SHAPES = {_lit(out_shapes)}")
    total = sum(b.count * 4 for b in plan.tensors.values())
    out.append(f"BUFFER_BYTES = {total}")
    out.append(f"SCRATCH_BYTES = {plan.scratch_bytes}")
    out.append("")
    for tid in sorted(plan.tensors):
        b = plan.tensors[tid]
        out.append(f"t{tid} = np.empty({b.count}, "
                   f"{_NP_DTYPE_TOKEN[b.dtype.name]})")
    for step in plan.steps:
        ins = ", ".join(f"t{t}" for t in step.act_ids)
        ws = ", ".join(step.weight_names)
        outs = ", ".join(f"t{t}" for t in step.output_ids)
        out.append(f"S{step.op_index} = {step.template_id}_prep(")
        out.append(f"    [{ins}], [{ws}], [{outs}],")
        kw_parts = [f"{k}={_lit(v)}" for k, v in step.kwargs.items()]
        out.extend(_wrap_args(kw_parts, indent="    "))
        out.append(")")
    out.append("")
    out.append("")
    out.append("def run(inputs):")
    for slot, tid in enumerate(plan.input_ids):
        out.append(f"    np.copyto(t{tid}, inputs[{slot}].reshape(-1))")
    for step in plan.steps:
        out.append(f"    {step.template_id}(*S{step.op_index})")
    rets = ", ".join(f"t{t}.copy()" for t in plan.output_ids)
    if len(plan.output_ids) == 1:
        rets += ","
    out.append(f"    return ({rets})")
    return "\n".join(out) + "\n"


_MAIN_SRC = '''\
import gc
import json
import sys
import time

import numpy as np

import net_driver


def _fail(msg):
    sys.stderr.write(msg + "\\n")
    return 2


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
        return _fail("usage: program IN.raw OUT.raw [--reps N] [--stats FILE]")
    per_sample = sum(net_driver.INPUT_SIZES)
    flat = np.fromfile(paths[0], dtype="<f4").astype(np.float32)
    if flat.size == 0 or flat.size % per_sample != 0:
        return _fail(f"input holds {flat.size} values, "
                     f"need a multiple of {per_sample}")
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
    outs = None
    # collector pauses would land in individual repetitions; keep it off
    # while the clock runs
    gc.disable()
    try:
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            outs = [net_driver.run(s) for s in samples]
            times.append(time.perf_counter_ns() - t0)
    finally:
        gc.enable()
    merged = np.concatenate([o.reshape(-1) for out in outs for o in out])
    merged.astype("<f4").tofile(paths[1])
    if stats_path is not None:
        # run() allocates only the copies of the outputs it hands back.
        # Kernel scratch, prepared at import, is reported on its own: the
        # interpreter's peak leaves out the same scratch.
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
        sys.exit(_fail(f"{e.filename}: {e.strerror}"))
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
    checks that each source compiles and ships the sources.
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
        f.write(b"#!" + python.encode() + b"\n")
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
