"""Compile a model bundle into a self-contained executable program.

The pipeline lowers the bundle once (lowering.py): one computing unit per
operator with its known configuration resolved from the container, and one
buffer per tensor. It searches the one unknown, the weight layout of each
conv and FC, by comparing candidate behavior against the runtime; each
candidate goes through lowering.configure, the step the interpreter uses
too. It then emits, straight from the lowering and the accepted
candidate's weights, a program of two code modules and one data member: the
driver, with only the kernel templates the model needs, the entry point, and
the accepted layouts' flat weights as one little-endian blob, which the
driver reads once at import through its own loader and binds as read-only
views. The emitted program carries no model container, no parser, and no
registry; past import, its only file access is the input tensor argument.

Search never reads the layout table shipped with the runtime; it recovers
workable layouts purely from observed behavior.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
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

from . import corestart, graphir, harness, interpreter
from .graphir import GraphError, DataType, ModelBundle
from .kernels import DeviceInfo, default_registry, splits_along_axis_0
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


@dataclass
class SearchResult:
    layouts: list  # per operator index: the accepted layout name, or None
    candidates_evaluated: int
    # largest l2 error of any tensor an operator writes, on any sample
    # input; written to the manifest as max_diff
    max_error: float
    weights: list  # per operator: its flat weights in the accepted layouts


@dataclass
class EmissionPlan:
    """Everything the emitter needs, already cut loose from the container."""
    lowered: Lowering
    # name -> flat array in the accepted layout, in operator then slot order
    weights: dict


@dataclass
class GeneratedArtifact:
    out_dir: str
    sources: list[str]  # relative to out_dir
    executable: str  # absolute path
    manifest: dict
    plan_digest: str


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


def _worst_error(steps, xs, refs, input_bufs, buffers,
                 delta) -> tuple[float, int | None]:
    """Largest per-tensor l2 distance from the runtime over all inputs.

    steps are (op index, unit, prepared calls, output ids) in graph order.
    Stops at the first tensor beyond delta and returns its distance and the
    index of the operator that wrote it; the index is None within delta.
    """
    worst = 0.0
    for x, ref in zip(xs, refs):
        for buf, arr in zip(input_bufs, x):
            np.copyto(buf, arr.reshape(-1))
        for at, unit, calls, out_ids in steps:
            unit.fn(calls)
            for tid in out_ids:
                err = float(np.linalg.norm(
                    np.subtract(buffers[tid], ref[tid], dtype=np.float64)))
                if not err <= delta:
                    return (err if math.isfinite(err) else math.inf), at
                worst = max(worst, err)
    return worst, None


def search_status(bundle: ModelBundle, lowered: Lowering, configs,
                  cfg: harness.VerifyConfig | None = None,
                  registry=None) -> SearchResult:
    """Find weight layouts whose behavior matches the runtime within delta.

    The unknowns are the operators whose unit lists layouts; candidates are
    walked in lexicographic order over them in graph order, each in its
    unit's layout order. Every tensor an operator writes is compared with
    the runtime's copy right after that operator runs, and a candidate is
    rejected at the first tensor beyond delta, so a wrong layout cannot
    hide behind a saturating later operator. Every candidate that agrees
    with a rejected one on the unknowns up to its breach computes the same
    tensors up to there and fails too, so the walk skips them all. The
    first candidate within delta on every input is accepted. Each
    candidate is configured once (lowering.configure) for all inputs; the
    accepted one's flat weights go to the emitter as they are. The
    runtime's plan is loaded with the given registry, not the lowering.
    """
    cfg = cfg or harness.VerifyConfig()
    unknowns = [c.op_index for c in configs if c.unit.layouts]
    domains = [list(configs[i].unit.layouts) for i in unknowns]

    plan = interpreter.load(bundle, device=lowered.device, registry=registry)
    xs = harness.make_inputs(bundle.graph, cfg)
    produced = [t for c in configs for t in c.output_ids]
    refs = []
    for x in xs:
        interpreter.invoke(plan, x)
        refs.append({t: plan.buffers[t].copy() for t in produced})

    buffers = lowered.allocate()
    input_bufs = [buffers[t] for t in lowered.input_ids]
    picks = [0] * len(unknowns)
    evaluated = 0
    best, best_at = math.inf, None
    while True:
        evaluated += 1
        layouts = [None] * len(configs)
        for i, domain, pick in zip(unknowns, domains, picks):
            layouts[i] = domain[pick]
        flats, calls, _ = configure(lowered, layouts, buffers)
        worst, at = _worst_error(
            [(c.op_index, c.unit, k, c.output_ids)
             for c, k in zip(configs, calls)],
            xs, refs, input_bufs, buffers, cfg.delta)
        if at is None:
            return SearchResult(
                layouts=layouts, candidates_evaluated=evaluated,
                max_error=worst, weights=flats)
        if best_at is None or worst < best:
            best, best_at = worst, at
        # advance the last unknown at or before the breach, carrying like an
        # odometer, and reset the ones after it
        k = sum(i <= at for i in unknowns) - 1
        while k >= 0 and picks[k] == len(domains[k]) - 1:
            k -= 1
        if k < 0:
            break
        picks[k] += 1
        picks[k + 1:] = [0] * (len(picks) - k - 1)
    raise SearchError(
        f"status search exhausted {evaluated} candidate(s) without meeting "
        f"delta={cfg.delta}; the best breached it at operator {best_at} "
        f"({configs[best_at].kind}) with l2 distance {best}",
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
    return EmissionPlan(lowered=lowered, weights=weights)


_FORBIDDEN_TOKENS = ("tflite", ".lite", "graph.json", ".params", "MLW0",
                     "org.tensorflow", "libtvm")

# the binding kernels/ops.py makes at its top: the emitted templates name
# np and float32, and the program loads no more of numpy than this module;
# _sum_products_prep, and so every template that uses it, also names the
# budget of a reduction's product tensor
_NP_HEAD = ('from numpy._core import _multiarray_umath as np\n\n'
            'float32 = np.dtype("<f4").type')
_BUDGET_LINE = f"_PRODUCT_BYTES = {kernel_ops._PRODUCT_BYTES}"
_NP_DTYPE_TOKEN = {"F32": "float32", "I32": '"<i4"'}


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


# the tensor buffers of one batched plan fit in this many bytes
_BATCH_BUFFER_BYTES = 262144


def _wrap_args(parts, indent, width=80) -> list[str]:
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


# the program's one data member, beside net_driver in the zip or in src/
_WEIGHTS = "net_weights.bin"


def _weights_blob(plan: EmissionPlan) -> bytes:
    for w in plan.weights.values():
        if w.dtype not in (np.float32, np.int32):
            raise CodegenError(f"cannot embed weight dtype {w.dtype}")
    return b"".join(w.astype(w.dtype.newbyteorder("<"), copy=False).tobytes()
                    for w in plan.weights.values())


@functools.cache
def _template_source(fn) -> str:
    # inspect.getsource tokenizes the source anew on every call (about
    # 0.3 ms), and a template's text is fixed for the life of the process
    return inspect.getsource(fn).rstrip("\n")


def _emit_driver(plan: EmissionPlan) -> str:
    # The buffers and every kernel's prepared calls live at module level.
    # plan(n) makes them for n samples a call, stacked along axis 0 of
    # every tensor, and import runs plan(1); run() only copies the inputs
    # in, runs each step's calls and hands back fresh copies of the
    # outputs. Only the buffer sizes depend on n: every prepare step takes
    # its params at one sample and reads the sample count from its
    # buffers. The steps that take scratch share one arena, prepared in
    # the two passes lowering.configure makes; a model with none, such as
    # identity, gets the plan it always had. Every template id the model
    # uses names the one run step, run_calls, and run() calls a step
    # through that module-global name, so a wrapper set after import sees
    # one call per step. BATCH is the largest n whose buffers fit in
    # _BATCH_BUFFER_BYTES, or 1 when some operator does not compute each
    # slice along axis 0 on its own.
    lowered = plan.lowered
    used_templates = list(dict.fromkeys(op.unit.template_id
                                        for op in lowered.ops))
    helpers = []
    for tid in used_templates:
        for h in kernel_ops.HELPER_DEPS[tid]:
            if h not in helpers:
                helpers.append(h)
    helpers.sort()

    out = [_NP_HEAD]
    if "_sum_products_prep" in helpers:
        out.append(_BUDGET_LINE)
    out.append("")
    if plan.weights:
        # the driver's own loader reads the blob from the zip, or from the
        # directory of an unstripped build's sources, and every weight is a
        # read-only view into it
        out.append("_F = np.frombuffer(__loader__.get_data(")
        out.append(f'    __file__.rpartition("/")[0] + "/{_WEIGHTS}"), "<f4")')
        at = 0
        for name, w in plan.weights.items():
            view = '.view("<i4")' if w.dtype == np.int32 else ""
            out.append(f"{name} = _F[{at}:{at + w.size}]{view}")
            at += w.size
        out.append("")
    out.append("")
    sources = [kernel_ops.HELPERS[h] for h in helpers]
    sources += [kernel_ops.PREPS[tid] for tid in used_templates]
    for fn in sources + [kernel_ops.run_calls]:
        out.append(_template_source(fn))
        out.append("")
        out.append("")
    out.append(" = ".join(used_templates + ["run_calls"]))
    out.append("")
    out.append("")

    in_specs = [lowered.tensors[t] for t in lowered.input_ids]
    out.append(f"INPUT_SHAPES = {_lit(tuple(b.shape for b in in_specs))}")
    out.append(f"INPUT_SIZES = {_lit(tuple(b.count for b in in_specs))}")
    total = sum(b.count * 4 for b in lowered.tensors.values())
    out.append(f"BUFFER_BYTES = {total}")
    batch = max(1, _BATCH_BUFFER_BYTES // total) if all(
        splits_along_axis_0(op.params, len(op.weight_keys))
        for op in lowered.ops) else 1
    out.append(f"BATCH = {batch}")
    out.append("")
    out.append("")
    out.append("def plan(n):")
    names = [f"t{tid}" for tid in sorted(lowered.tensors)]
    names += [f"S{op.op_index}" for op in lowered.ops]
    out.append(f"    global {', '.join(names)}")
    for tid in sorted(lowered.tensors):
        b = lowered.tensors[tid]
        out.append(f"    t{tid} = np.empty({b.count} * n, "
                   f"{_NP_DTYPE_TOKEN[b.dtype.name]})")
    shares = [kernel_ops.takes_arena(kernel_ops.PREPS[op.unit.template_id])
              for op in lowered.ops]
    arena = any(shares)
    ind = "    " * (1 + arena)
    if arena:
        out.append("    A = [np.empty(0, float32)]")
        out.append("    for _ in 0, 1:")
    for op, share in zip(lowered.ops, shares):
        ins = ", ".join(f"t{t}" for t in op.act_ids)
        ws = ", ".join(_weight_names(op))
        outs = ", ".join(f"t{t}" for t in op.output_ids)
        out.append(f"{ind}S{op.op_index} = {op.unit.template_id}_prep(")
        out.append(f"{ind}    [{ins}], [{ws}], [{outs}],")
        kw_parts = [f"{k}={_lit(v)}" for k, v in op.params.values.items()]
        if share:
            kw_parts.append("arena=A")
        out.extend(_wrap_args(kw_parts, ind + "    "))
        out.append(f"{ind})")
    if arena:
        out.append("        if not A[0].size:")
        out.append("            break")
    out.append("")
    out.append("")
    out.append("plan(1)")
    out.append("")
    out.append("")
    out.append("def run(inputs):")
    for slot, tid in enumerate(lowered.input_ids):
        out.append(f"    np.copyto(t{tid}, inputs[{slot}].reshape(-1))")
    for op in lowered.ops:
        out.append(f"    {op.unit.template_id}(S{op.op_index})")
    rets = ", ".join(f"t{t}.copy()" for t in lowered.output_ids)
    if len(lowered.output_ids) == 1:
        rets += ","
    out.append(f"    return ({rets})")
    return "\n".join(out) + "\n"


# The program's entry point, `program IN.raw OUT.raw` and no other argv: it
# serves the input file through net_driver in batches and writes the
# outputs, and holds nothing else. Timing and memory accounting are the
# harness's, which imports net_driver in process (harness.load_driver).
# The OpenBLAS cap and numpy's stand-ins are corestart.STANDINS, which
# `mlfuse run` and `mlfuse inspect` start from too. The run is one shot:
# the collector is off from the first statement, and the process ends at
# its last write, as those two commands do.
_MAIN_SRC = '''\
import gc

# Serving makes no cyclic garbage (the tests hold every fixture's run() to
# that), so the collector would only walk live objects, at import and
# between calls; it stays off for the process's life.
gc.disable()

import os
import site
import sys

# The interpreter line runs this under -IS, through its -c code or, with no
# room for that, as python runs a zip: no .pth file or sitecustomize of
# the host runs, importing site runs none either, and neither PYTHONPATH
# nor the user site dir is searched, so no file there runs inside the
# program. numpy comes from the package dirs site would add. Under -S a
# venv's python keeps the base install as sys.prefix, and Debian's
# site.getsitepackages only names a venv's site-packages when sys.prefix
# differs from sys.base_prefix, so a venv (the dir above bin/ holds a
# pyvenv.cfg) becomes sys.prefix, as site itself would make it, and its
# dirs come before the base install's. No kernel calls BLAS, so OpenBLAS
# gets one thread, not a pool of idle workers; that must be set before
# numpy's core is loaded.
v = sys.executable.rsplit("/", 2)[0]
if os.path.isfile(v + "/pyvenv.cfg"):
    sys.prefix = v
''' + corestart.STANDINS + '''\
try:
    from numpy._core import _multiarray_umath as np
# a core whose init reads a name no stand-in holds fails part way through
except (ImportError, AttributeError) as e:
    sys.exit(f"{sys.executable} cannot load numpy's C core: {e}")

import net_driver


def main(argv):
    if len(argv) != 2:
        print("usage: program IN.raw OUT.raw", file=sys.stderr)
        return 2
    try:
        per_sample = sum(net_driver.INPUT_SIZES)
        flat = np.fromfile(argv[0], "u1")
        if flat.size == 0 or flat.size % (4 * per_sample):
            print(f"input holds {flat.size} bytes, need a multiple of "
                  f"{4 * per_sample}", file=sys.stderr)
            return 2
        rows = flat.view("<f4").astype("=f4").reshape(-1, per_sample)
        count = len(rows)
        # b samples a call, the file split evenly into as few calls as
        # BATCH allows; the last call ends at the last sample, so it may
        # overlap the one before it (by fewer samples than there are
        # calls) and write the same values there again
        b = -(-count // -(-count // net_driver.BATCH))
        if b > 1:
            net_driver.plan(b)
        starts = [*range(0, count - b, b), count - b]
        outs = []
        for k in starts:
            fields = []
            at = 0
            for n in net_driver.INPUT_SIZES:
                fields.append(rows[k:k + b, at:at + n])
                at += n
            outs.append(net_driver.run(fields))
        width = 0
        for o in outs[0]:
            width += o.size // b
        merged = np.empty((count, width), "<f4")
        for k, call in zip(starts, outs):
            at = 0
            for o in call:
                n = o.size // b
                merged[k:k + b, at:at + n] = o.reshape(b, n)
                at += n
        merged.tofile(argv[1])
        return 0
    except MemoryError:
        # the error's own text formats a dtype, which needs numpy's Python
        # layer; the line names the input's size instead
        print(f"input holds {os.path.getsize(argv[0])} bytes, more than "
              f"this process can hold", file=sys.stderr)
        return 2


if __name__ == "__main__":
    # file access is the only source of OSError here
    try:
        code = main(sys.argv[1:])
    except OSError as e:
        print(f"{e.filename}: {e.strerror}", file=sys.stderr)
        code = 2
    # The output file is closed and nothing is left to do: the process ends
    # here, with its lines flushed (a closed stream is None), and skips
    # CPython's teardown, which would free every module and object one by
    # one. An uncaught exception still ends the usual way, in a traceback.
    for f in sys.stdout, sys.stderr:
        if f:
            f.flush()
    os._exit(code)
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
    """Write the program sources under out_dir/src: the weights blob, when
    the model has weights, then the code; returns relative paths."""
    code = {"net_driver.py": _emit_driver(plan), "__main__.py": _MAIN_SRC}
    for name, text in code.items():
        for token in _FORBIDDEN_TOKENS:
            if token in text:
                raise CodegenError(f"emitted source src/{name} contains "
                                   f"forbidden token {token!r}")
    src = Path(out_dir) / "src"
    src.mkdir(parents=True, exist_ok=True)
    rel = []
    if plan.weights:
        (src / _WEIGHTS).write_bytes(_weights_blob(plan))
        rel.append(f"src/{_WEIGHTS}")
    for name, text in code.items():
        (src / name).write_text(text, encoding="utf-8")
        rel.append(f"src/{name}")
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


# The interpreter line's -c code: it runs the zip's __main__ as python would
# run the zip, with sys.argv the program's path and arguments and that path
# first on sys.path, but without runpy and the modules runpy loads. It holds
# no whitespace, so the kernel passes "-ISc<code>" as one argument.
_BOOTSTRAP = (b"s=__import__('sys');a=s.argv;del(a[0]);s.path[:0]=a[:1];"
              b"exec(__import__('zipimport').zipimporter(a[0])"
              b".get_code('__main__'))")

# A weights blob this large or larger is stored: lenet's 174 KiB deflate
# by 9% only and take 1.7 ms to inflate at every start. A smaller one
# inflates in microseconds, and deflated its floats do not lie in the file
# as they are, though mlp's 268 B do not shrink.
_DEFLATE_WEIGHTS_BELOW = 16384

# Linux reads this much of a #! line; a longer line would lose the end of
# the bootstrap, so it falls back to running the zip through runpy.
_LINE_BYTES = 256


def compile_program(out_dir, sources, toolchain: ToolchainConfig | None = None) -> str:
    """Check and package the emitted sources into one executable file.

    One toolchain process runs _COMPILE_SRC on every .py source: `python -S
    <flags> <strip_flags> -X no_debug_ranges -c _COMPILE_SRC TMPDIR SRC...`
    for a stripped build, which ships the pycs it writes, and `python -S
    <flags> -c _COMPILE_SRC "" SRC...` for an unstripped one, which only
    checks that each source compiles and ships the sources. The program's
    interpreter line is `#!<python> -ISc<_BOOTSTRAP>`, so no site hooks of
    the host run in it, nothing on PYTHONPATH (see _MAIN_SRC), and no
    runpy: the bootstrap runs the zip's __main__ itself. When that line
    would pass the 256 bytes Linux reads, it is `#!<python> -IS`, which
    runs the same zip through runpy. Any other source, the weights blob,
    goes in as it is. Code members are deflated at level 9, the smallest,
    and so is a weights blob under _DEFLATE_WEIGHTS_BELOW; a larger one is
    stored, since its float32 noise barely deflates and inflating it slows
    every start.
    """
    toolchain = toolchain or ToolchainConfig()
    python = _resolve_toolchain(toolchain)
    out_dir = Path(out_dir)
    code = [out_dir / s for s in sources if s.endswith(".py")]
    members = [(Path(s).name, (out_dir / s).read_bytes())
               for s in sources if not s.endswith(".py")]
    # -S: the step needs no site packages, and no .pth or sitecustomize
    # code of the build host may run inside it. The user's flags gate the
    # compile (-W error turns a SyntaxWarning into a failed step).
    tool = [python, "-S", *toolchain.flags]

    if toolchain.strip:
        with tempfile.TemporaryDirectory(prefix="mlfuse-build-") as td:
            # no_debug_ranges drops the per-instruction column tables, which
            # only serve traceback carets (interpreters before 3.11 ignore it).
            _run_tool([*tool, *toolchain.strip_flags, "-X", "no_debug_ranges",
                       "-c", _COMPILE_SRC, td, *map(str, code)])
            for p in code:
                pyc = Path(td) / (p.stem + ".pyc")
                if not pyc.is_file():
                    raise CompileError(f"no bytecode produced for {p.name}")
                members.append((p.stem + ".pyc", pyc.read_bytes()))
    else:
        _run_tool([*tool, "-c", _COMPILE_SRC, "", *map(str, code)])
        members += [(p.name, p.read_bytes()) for p in code]
    members.sort()

    exe = out_dir / "program"
    with open(exe, "wb") as f:
        line = b"#!" + python.encode() + b" -ISc" + _BOOTSTRAP + b"\n"
        if len(line) > _LINE_BYTES:
            line = b"#!" + python.encode() + b" -IS\n"
        f.write(line)
        with zipfile.ZipFile(f, "w") as z:
            for name, data in members:
                info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
                if name != _WEIGHTS or len(data) < _DEFLATE_WEIGHTS_BELOW:
                    info.compress_type = zipfile.ZIP_DEFLATED
                z.writestr(info, data, compresslevel=9)
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
