"""Compile a model bundle into a self-contained executable program.

The pipeline lowers the bundle once (lowering.py): one computing unit per
operator with its known configuration resolved from the container, and one
buffer per tensor, but for a RESHAPE's output, a view of its input's. It
searches the one unknown, the weight layout of each conv and FC, by
comparing candidate behavior, step by step, against a runtime plan of the
same lowering (interpreter.plan). It prepares its plans of one sample a
call and of BATCH once (lowering.configure), over views of one blob, into
which lowering.lay_out lays each candidate's weights. It then emits a program of
two code modules and one data member. The driver holds the two plans the
search verified for the accepted candidate as call tables (_call_table)
and replays them: it carries no prepare step and no planner, and makes
exactly the calls the search verified, at both sample counts. The entry
point serves a file of one sample through the first plan and any other in
calls of BATCH, the last ending at the last sample (so it may overlap the
one before it) and a file shorter than BATCH padded with copies of its own
rows. The data member is the accepted candidate's blob, written
little-endian, which the driver reads once at import through its own
loader, every weight a read-only view into it. The program carries no
model container, no parser, and no registry; past import, its only file
access is the input tensor argument.

Search never reads the layout table shipped with the runtime; it recovers
workable layouts purely from observed behavior.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import marshal
import math
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy._core import _multiarray_umath as _core

from . import corestart, harness, interpreter
from .graphir import DataType, ModelBundle
from .kernels import DeviceInfo, default_registry, splits_along_axis_0
from .kernels.ops import run_calls
from .lowering import LoweredOp, Lowering, configure, lay_out, lower


class CodegenError(Exception):
    pass


@dataclass(frozen=True)
class Breach:
    """Where a candidate first went beyond delta: the l2 distance of one
    sample of a tensor an operator writes (harness.distances)."""
    error: float
    operator: int  # its index in graph order
    input: int  # index of the sample among the verify inputs
    samples: int  # samples a call of the plan it ran in: 1 or BATCH


class SearchError(CodegenError):
    def __init__(self, msg, candidates_evaluated=0, best_error=math.inf,
                 breach: Breach | None = None):
        super().__init__(msg)
        self.candidates_evaluated = candidates_evaluated
        self.best_error = best_error
        self.breach = breach  # the closest candidate's


class ToolchainError(CodegenError):
    pass


class CompileError(CodegenError):
    pass


@dataclass(frozen=True)
class ToolchainConfig:
    command: str = sys.executable
    flags: tuple[str, ...] = ()
    strip: bool = True

    @classmethod
    def from_obj(cls, obj) -> "ToolchainConfig":
        """Config from a parsed JSON object; CodegenError when malformed."""
        if not isinstance(obj, dict):
            raise CodegenError("toolchain config must be a JSON object")
        extra = set(obj) - {"command", "flags", "strip"}
        if extra:
            raise CodegenError(f"toolchain: unknown field(s) {sorted(extra)}")
        kw = dict(obj)

        def arg(v):  # no OS argv can carry a NUL
            return isinstance(v, str) and "\0" not in v

        if "command" in kw and not arg(kw["command"]):
            raise CodegenError("toolchain command must be a string")
        if "flags" in kw:
            if not (isinstance(kw["flags"], list)
                    and all(arg(v) for v in kw["flags"])):
                raise CodegenError("toolchain flags must be a list of strings")
            kw["flags"] = tuple(kw["flags"])
        if "strip" in kw and not isinstance(kw["strip"], bool):
            raise CodegenError("toolchain strip must be true or false")
        return cls(**kw)


@dataclass
class Prepared:
    """A candidate's plan of some samples a call, as the search ran it."""
    buffers: dict  # tensor id -> its flat buffer
    calls: list  # per operator: the calls its prepare step bound
    fills: list  # the plan's fills, made


@dataclass
class SearchResult:
    layouts: list  # per operator index: the accepted layout name, or None
    candidates_evaluated: int
    # largest l2 error of any tensor an operator writes, on any sample
    # input; written to the manifest as max_diff
    max_error: float
    blob: np.ndarray  # the accepted flat weights, by operator and slot
    batch: int  # BATCH (_batch)
    plans: dict  # n -> the accepted Prepared plan of n: 1, then BATCH


@dataclass
class EmissionPlan:
    """Everything the emitter needs, already cut loose from the container."""
    lowered: Lowering
    blob: np.ndarray  # the accepted flat weights, by operator and slot
    batch: int
    callables: tuple  # their names on numpy's C core (np.<name>)
    # the operators whose steps make calls in some plan, by index: the
    # tables hold and the driver binds only theirs (a RESHAPE makes none)
    steps: tuple
    tables: bytes  # {n: the plan of n samples a call (_call_table)}, marshaled


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
    """Validate and lower the bundle: one computing unit per operator for
    the target device, with its resolved knowns, tensor ids and buffers."""
    return lower(bundle, device, registry)


def analyze_config(lowered: Lowering) -> list[LoweredOp]:
    """Per-operator configuration, in graph order: unit, knowns and ids.

    The lowering has already resolved every known from the validated
    graph's shapes and options.
    """
    return lowered.ops


# ---------------------------------------------------------------------------
# Status search


# the tensor buffers of one batched plan fit in this many bytes
_BATCH_BUFFER_BYTES = 262144


def _batch(lowered: Lowering) -> int:
    """BATCH: the largest sample count a call whose tensor buffers
    (Lowering.buffer_bytes) fit in _BATCH_BUFFER_BYTES, or 1 when some
    operator does not compute each slice along axis 0 on its own."""
    if not all(splits_along_axis_0(op.params, len(op.weight_keys))
               for op in lowered.ops):
        return 1
    return max(1, _BATCH_BUFFER_BYTES // lowered.buffer_bytes)


def _served(samples, first: int, b: int) -> list:
    """The calls of b samples a call the program makes of a file of these
    samples (_MAIN_SRC): a file shorter than b is padded with copies of its
    own rows, and the last call ends at the last row, so it may overlap the
    one before it. Each call is (the verify index of its first sample, how
    many of its samples the program writes, one flat array a graph
    input); samples[k] is verify input first + k."""
    count = len(samples)
    fields = [np.stack([s[j].reshape(-1) for s in samples])
              for j in range(len(samples[0]))]
    if count < b:
        fields = [f[np.arange(b) % count] for f in fields]
    m = max(b, count)
    return [(first + k, min(b, count), [f[k:k + b].reshape(-1) for f in fields])
            for k in [*range(0, m - b, b), m - b]]


def _stepped(n, steps, buffers, input_ids, feeds):
    """Run a plan of n samples a call, its steps (op, its calls), on feeds
    (_served calls); right after each step, yield (the call's first verify
    index, op index, tensor id, the call's rows of it) for each tensor the
    step writes."""
    for first, rows, x in feeds:
        for t, arr in zip(input_ids, x):
            np.copyto(buffers[t], arr)
        for op, calls in steps:
            op.unit.fn(calls)
            for t in op.output_ids:
                yield first, op.op_index, t, buffers[t].reshape(n, -1)[:rows]


def _reference(runtime: Lowering, xs, n: int) -> dict:
    """Each tensor an operator writes, as the runtime computes it, one row
    a verify input: runtime's plan of n samples a call (interpreter.plan),
    stepped over xs in the calls the program makes of a file."""
    plan = interpreter.plan(runtime, n)
    refs = {t: np.empty((len(xs), runtime.tensors[t].count),
                        plan.buffers[t].dtype)
            for op in runtime.ops for t in op.output_ids}
    for first, _, t, rows in _stepped(n, plan.steps, plan.buffers,
                                      runtime.input_ids, _served(xs, 0, n)):
        refs[t][first:first + len(rows)] = rows
    return refs


def _worst_error(n, stepped, refs, delta) -> tuple[float, Breach | None]:
    """Largest per-sample l2 distance from refs of the tensors stepped
    yields, and the breach of the first sample beyond delta, else None."""
    worst = 0.0
    for first, at, t, rows in stepped:
        errs = harness.distances(rows, refs[t][first:first + len(rows)])
        for i, err in enumerate(errs):
            if not err <= delta:
                return worst, Breach(err, at, first + i, n)
        worst = max(worst, *errs)
    return worst, None


def search_status(bundle: ModelBundle, lowered: Lowering,
                  cfg: harness.VerifyConfig | None = None,
                  runtime: Lowering | None = None) -> SearchResult:
    """Find weight layouts whose behavior matches the runtime within delta.

    The unknowns are the operators whose unit lists layouts; candidates are
    walked in lexicographic order over them in graph order, each in its
    unit's layout order. Both plans the program ships are prepared once
    (lowering.configure), over views of one blob: a prepared call list does
    not depend on the layout, so each candidate's weights are laid out
    (lowering.lay_out) into that blob in place, and each plan's fills made
    again. The plan of one sample a call runs input 0, and, if that passes,
    the plan of BATCH runs the other inputs (copies of input 0 when there
    are none) in the calls the program makes of a file. The reference is
    runtime's plan (the build's lowering unless given) of min(BATCH, inputs)
    samples a call (_reference). Reference and candidates step through one
    loop (_stepped): every sample of every tensor an operator writes is
    compared with the runtime's right after its step, and a candidate is
    rejected at the first one beyond delta, so a wrong layout cannot hide
    behind a saturating later operator. Every candidate that agrees with a
    rejected one on the unknowns up to its breach computes the same tensors
    up to there and fails too, so the walk skips them all. The first
    candidate within delta on every input is accepted, with the blob and the
    two plans it ran, which the emitter tabulates as they are.
    """
    cfg = cfg or harness.VerifyConfig()
    ops = lowered.ops
    unknowns = [op.op_index for op in ops if op.unit.layouts]
    domains = [list(ops[i].unit.layouts) for i in unknowns]
    batch = _batch(lowered)

    xs = harness.make_inputs(bundle.graph, cfg)
    feeds = {1: _served(xs[:1], 0, 1)}
    if batch > 1 or len(xs) > 1:
        rest = (xs[1:], 1) if len(xs) > 1 else (xs, 0)
        feeds.setdefault(batch, []).extend(_served(*rest, batch))
    refs = _reference(runtime or lowered, xs, min(batch, len(xs)))

    buffers = {n: lowered.allocate(n) for n in feeds}
    picks = [0] * len(unknowns)
    evaluated = 0
    best = plans = None
    while True:
        evaluated += 1
        layouts = [None] * len(ops)
        for i, domain, pick in zip(unknowns, domains, picks):
            layouts[i] = domain[pick]
        laid, views = lay_out(lowered, layouts)
        if plans is None:
            blob, plans = laid, {n: Prepared(b, *configure(lowered, views, b))
                                 for n, b in buffers.items()}
            steps = {n: [*zip(ops, p.calls)] for n, p in plans.items()}
        else:
            np.copyto(blob, laid)
            for p in plans.values():
                run_calls(p.fills)
        worst = 0.0
        for n, calls in feeds.items():
            err, breach = _worst_error(n, _stepped(
                n, steps[n], buffers[n], lowered.input_ids, calls),
                refs, cfg.delta)
            worst = max(worst, err)
            if breach:
                break
        else:
            return SearchResult(
                layouts=layouts, candidates_evaluated=evaluated,
                max_error=worst, blob=blob, batch=batch, plans=plans)
        if best is None or breach.error < best.error:
            best = breach
        # advance the last unknown at or before the breach, carrying like an
        # odometer, and reset the ones after it
        k = sum(i <= breach.operator for i in unknowns) - 1
        while k >= 0 and picks[k] == len(domains[k]) - 1:
            k -= 1
        if k < 0:
            break
        picks[k] += 1
        picks[k + 1:] = [0] * (len(picks) - k - 1)
    raise SearchError(
        f"status search exhausted {evaluated} candidate(s) without meeting "
        f"delta={cfg.delta}; the best breached it at operator "
        f"{best.operator} ({ops[best.operator].kind}) on input "
        f"{best.input} in the plan of {best.samples} sample(s) a call, with "
        f"l2 distance {best.error}",
        candidates_evaluated=evaluated, best_error=best.error, breach=best)


# ---------------------------------------------------------------------------
# Emission


def _address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


def _call_table(lowered: Lowering, plan: Prepared, blob, callables, steps,
                memo: dict) -> tuple:
    """A plan the search verified, over its tensor buffers and views of
    blob, as data.

    It is (tensor bytes, scratch bytes, views, floats, constants, fills,
    steps), the steps those of the operators steps lists. The program's
    bases are blob (when it has weights), a buffer per tensor that is no
    alias (lowering.py) in id order, then the scratch: the arena and each
    private buffer. A view is (shape, dtype, base, byte offset, strides),
    those of the graph's inputs and outputs first, one a buffer: an alias
    and the tensor it shares have one. A call is (its callable's index
    in callables, the indices of its args, that of its out= or None), into
    the views, then the floats, then the other constants. Its callable
    must be the one of its name on numpy's C core, which the program
    calls.

    Every int, string and float-free tuple is written as the object memo
    holds for its key, as the compiler merges equal constants: marshal
    then writes each once, and the program loads it as one (unshared,
    lenet's program peaked about 50 KiB higher). The key tells 0 from
    False. A float, and a tuple that holds one, is never merged, since
    -0.0 equals 0.0; memo holds each float all the same, so marshal flags
    it as it flags the merged objects.
    """
    def keep(x):
        return memo.setdefault(
            (tuple(map(type, x)), x) if type(x) is tuple else (type(x), x), x)

    def kept(xs):  # a tuple of scalars
        return keep(tuple(map(keep, xs)))

    tensors = [plan.buffers[t] for t in sorted(plan.buffers)
               if t not in lowered.aliases]
    bases = [blob] if blob.size else []
    bases += tensors
    own = len(bases)  # the bases after these are the plan's scratch
    index = {id(b): (k, _address(b)) for k, b in enumerate(bases)}
    groups = ({}, {}, {})  # views, floats, constants: key -> position
    seen = {}  # id of an argument, all alive in the calls -> its ref

    def ref(x):
        if id(x) in seen:
            return seen[id(x)]
        if isinstance(x, np.ndarray):
            root = x if x.base is None else x.base  # numpy's owner
            if id(root) not in index:
                index[id(root)] = len(bases), _address(root)
                bases.append(root)
            k, at = index[id(root)]
            group, key = 0, (x.shape, x.dtype.str, k, _address(x) - at,
                             x.strides)
        elif isinstance(x, (float, np.floating)):
            group, key = 1, repr(float(x))  # -0.0 is not 0.0
            if float(np.float32(x)) != x:
                raise CodegenError(f"constant {x!r} is not a float32")
        elif x is None or isinstance(x, (int, str)):
            group, key = 2, (type(x), x)  # False is not 0
        else:
            raise CodegenError(f"cannot tabulate a {type(x).__name__}")
        seen[id(x)] = group, groups[group].setdefault(key, len(groups[group]))
        return seen[id(x)]

    def table(calls):
        out = []
        for f, args, kw in calls:
            if set(kw) - {"out"}:
                raise CodegenError(f"cannot tabulate keywords {sorted(kw)}")
            owner = getattr(f, "__self__", None)  # a ufunc's for its methods
            ufunc = isinstance(owner, np.ufunc)
            path = f"{owner.__name__}.{f.__name__}" if ufunc else f.__name__
            # the program calls np.<path>, which must be f (a method: the
            # same method of the same ufunc)
            on_core = getattr(_core, owner.__name__, None) if ufunc else _core
            if getattr(on_core, f.__name__, None) != f:
                raise CodegenError(f"cannot tabulate {f!r}: it is not "
                                   f"np.{path} of numpy's C core")
            out.append((callables.setdefault(path, len(callables)),
                        [*map(ref, args)], ref(kw["out"]) if kw else None))
        return out

    for t in dict.fromkeys((*lowered.input_ids, *lowered.output_ids)):
        ref(plan.buffers[t])
    lists = [table(plan.fills), *(table(plan.calls[i]) for i in steps)]
    at = (0, len(groups[0]), len(groups[0]) + len(groups[1]))
    pos = [*map(keep, range(at[2] + len(groups[2])))]
    lists = [keep(tuple(keep((keep(f), keep(tuple(pos[at[g] + k]
                                                  for g, k in args)),
                              out and pos[at[out[0]] + out[1]]))
                        for f, args, out in calls))
             for calls in lists]
    views = keep(tuple(keep((kept(h), keep(d), keep(b), keep(o), kept(w)))
                       for h, d, b, o, w in groups[0]))
    floats = tuple(map(float, groups[1]))
    memo.update((id(x), x) for x in floats)
    return keep((kept(b.nbytes for b in tensors),
                 kept(b.nbytes for b in bases[own:]), views, floats,
                 kept(v for _, v in groups[2]), lists[0],
                 keep(tuple(lists[1:]))))


def build_emission_plan(lowered: Lowering,
                        result: SearchResult) -> EmissionPlan:
    """The accepted candidate's blob, and the plans at one sample and at
    BATCH that the search verified, as call tables of the steps that make
    calls; nothing is laid out or prepared again."""
    callables, memo = {}, {}
    steps = tuple(i for i in range(len(lowered.ops))
                  if any(p.calls[i] for p in result.plans.values()))
    # marshal while memo holds what the tables share (_call_table)
    tables = marshal.dumps({
        n: _call_table(lowered, p, result.blob, callables, steps, memo)
        for n, p in result.plans.items()})
    return EmissionPlan(lowered=lowered, blob=result.blob, batch=result.batch,
                        callables=tuple(callables), steps=steps,
                        tables=tables)


_FORBIDDEN_TOKENS = ("tflite", ".lite", "graph.json", ".params", "MLW0",
                     "org.tensorflow", "libtvm")

# the binding kernels/ops.py makes at its top: the program names np and
# float32, and loads no more of numpy than this module
_NP_HEAD = ('from numpy._core import _multiarray_umath as np\n\n'
            'float32 = np.dtype("<f4").type')


# the program's one data member, beside net_driver in the zip or in src/
_WEIGHTS = "net_weights.bin"

# T holds the call tables as marshal data (_call_table), which is what the
# compiler would make of them as literals, without the compiler's time:
# as literals, dwblock's took the toolchain step 20 ms more, nearly
# doubling its build. plan(n) rebuilds T[n]'s bases, views and constants,
# makes its fills and binds every step's calls; import runs plan(1). A
# RESHAPE has no step: its output is a view of its input's buffer, named
# by that tensor. run() copies the inputs in, runs each step through its
# template id, a module-global name of the one run step, ops.run_calls, so
# a wrapper set after import sees one call per step, and hands back fresh
# copies of the outputs. BUFFER_BYTES is Lowering.buffer_bytes. The blob
# comes from the zip, or from the directory of an unstripped build's
# sources.
_DRIVER_SRC = """\
import marshal

{head}
{weights}

def run_calls(calls):
    for f, args, kw in calls:
        f(*args, **kw)


{aliases}INPUT_SHAPES = {shapes}
INPUT_SIZES = {sizes}
BUFFER_BYTES = {buffer_bytes}
BATCH = {batch}
C = ({callables})
T = marshal.loads({tables!r})


def plan(n):
    global B, {names}
    z, s, v, e, k, f, c = T[n]
    B = [*map(np.empty, z, ["u1"] * len(z))]
    R = [{blob}*B, *map(np.empty, s, ["u1"] * len(s))]
    h, d, b, o, w = zip(*v)
    V = [*map(np.ndarray, h, d, map(R.__getitem__, b), o, w),
         *map(float32, e), *k]
    L = []
    for q in f, *c:
        L.append([])
        for g, a, u in q:
            L[-1].append((C[g], tuple(map(V.__getitem__, a)),
                          {{}} if u is None else {{"out": V[u]}}))
    run_calls(L[0])
    {io}, = V[:{io_count}]{steps}


plan(1)


def run(inputs):
{run}
"""


def _emit_driver(plan: EmissionPlan) -> str:
    lowered = plan.lowered
    in_specs = [lowered.tensors[t] for t in lowered.input_ids]
    ops = [lowered.ops[i] for i in plan.steps]

    def name(t):  # an alias goes by the tensor whose buffer it shares
        return f"t{lowered.aliases.get(t, t)}"

    io = [*dict.fromkeys(map(name, (*lowered.input_ids,
                                    *lowered.output_ids)))]
    steps = [f"S{op.op_index}" for op in ops]
    run = [f"    np.copyto({name(tid)}, inputs[{slot}].reshape(-1))"
           for slot, tid in enumerate(lowered.input_ids)]
    run += [f"    {op.unit.template_id}(S{op.op_index})" for op in ops]
    copies = "".join(f"{name(t)}.copy(), " for t in lowered.output_ids)
    run.append(f"    return ({copies[:-1]})")
    aliases = " = ".join(dict.fromkeys(op.unit.template_id for op in ops))
    return _DRIVER_SRC.format(
        head=_NP_HEAD, weights="" if not plan.blob.size else (
            "\n_F = np.frombuffer(__loader__.get_data(\n"
            f'    __file__.rpartition("/")[0] + "/{_WEIGHTS}"), "<f4")\n'),
        aliases=f"{aliases} = run_calls\n\n\n" if aliases else "",
        shapes=repr(tuple(b.shape for b in in_specs)),
        sizes=repr(tuple(b.count for b in in_specs)),
        buffer_bytes=lowered.buffer_bytes,
        batch=plan.batch,
        callables="".join(f"np.{p}, " for p in plan.callables)[:-1],
        tables=plan.tables,
        names=", ".join(io + steps), blob="_F, " if plan.blob.size else "",
        io=", ".join(io), io_count=len(io),
        steps=f"\n    {', '.join(steps)}, = L[1:]" if steps else "",
        run="\n".join(run))


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
        # One sample runs the plan of one sample a call; more run in calls
        # of BATCH, a file shorter than that padded with copies of its own
        # rows. The last call ends at the last row, so it may overlap the
        # one before it and write the same values there again.
        b = net_driver.BATCH if count > 1 else 1
        if count < b:
            rows = rows[np.arange(b) % count]
        if b > 1:
            net_driver.plan(b)
        m = len(rows)
        starts = [*range(0, m - b, b), m - b]
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
        merged = np.empty((m, width), "<f4")
        for k, call in zip(starts, outs):
            at = 0
            for o in call:
                n = o.size // b
                merged[k:k + b, at:at + n] = o.reshape(b, n)
                at += n
        merged[:count].tofile(argv[1])
        return 0
    except MemoryError:
        # the error's own text formats a dtype, which needs numpy's Python
        # layer; the line names the input's size instead
        print(f"input holds {os.path.getsize(argv[0])} bytes, more than "
              f"this process can hold", file=sys.stderr)
        return 2


if __name__ == "__main__":
    # File access is one source of OSError here, and a stderr that cannot
    # take a line (a pipe whose reader is gone) the other: either ends in
    # exit 2, and in the second case the line is lost.
    try:
        try:
            code = main(sys.argv[1:])
        except OSError as e:
            code = 2
            print(f"{e.filename}: {e.strerror}", file=sys.stderr)
        # The output file is closed and nothing is left to do: the process
        # ends here, with its lines flushed (a closed stream is None), and
        # skips CPython's teardown, which would free every module and
        # object one by one. An uncaught exception still ends the usual
        # way, in a traceback.
        for f in sys.stdout, sys.stderr:
            if f:
                f.flush()
    except OSError:
        pass
    os._exit(code)
'''


# The toolchain's one script. It runs as a worker that serves a build
# process (see _Worker): each request is the pyc directory ("" to compile as
# a check only), then the absolute source paths, NUL-separated and sized by
# a header line. The worker forks one child per request, which compiles
# those sources in step() and exits; the worker reads what the child
# writes to stdout and stderr and replies with its exit code and that text.
# The worker's start-up ends in one compile of nothing, which imports and
# writes nothing: a process's first compile sets up the compiler's state,
# and a child that inherits it does not pay for that set-up again in
# copy-on-write faults. Every child starts from the state the worker's
# start-up left, which no request changes, so every build writes the same
# pycs (marshal's reference flags follow reference counts), and a pyc that
# the build process holds from an earlier step (_compile_step) is the one
# a new step would write. The script imports only builtin and frozen
# modules, which a file in the working directory cannot shadow, and no
# more than bare interpreter start-up does (posix, not os). Each source
# compiles under its bare file name, so co_filename does not depend on
# where the build ran, and a stripped build writes the PEP 552
# unchecked-hash pyc py_compile would. A child ends at its last write,
# flushing stdout and stderr and skipping interpreter teardown through
# posix._exit; a SyntaxError or a failed read or write still ends it
# non-zero before that. Replies go out on a copy of the worker's stdout,
# and its fd 1 then points at stderr, so stray output cannot reach them.
# The worker ends at the EOF of its requests.
_COMPILE_SRC = '''\
import _imp
import posix
import sys
from _frozen_importlib_external import (
    _RAW_MAGIC_NUMBER, _code_to_hash_pyc, _path_join, _path_split)


def step(out, paths):
    for path in paths:
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
    sys.stdout.flush()
    sys.stderr.flush()
    posix._exit(0)


compile(b"", "", "exec", dont_inherit=True)
replies = posix.dup(1)
posix.dup2(2, 1)
requests = sys.stdin.buffer
while size := requests.readline():
    out, *paths = requests.read(int(size)).decode(
        sys.getfilesystemencoding(), sys.getfilesystemencodeerrors()
    ).split("\\0")
    r, w = posix.pipe()
    pid = posix.fork()
    if not pid:
        posix.dup2(w, 1)
        posix.dup2(w, 2)
        step(out, paths)
    posix.close(w)
    text = b""
    while chunk := posix.read(r, 65536):
        text += chunk
    posix.close(r)
    rc = posix.waitstatus_to_exitcode(posix.waitpid(pid, 0)[1])
    reply = b"%d %d\\n" % (rc, len(text)) + text
    while reply:
        reply = reply[posix.write(replies, reply):]
posix._exit(0)
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
    if plan.blob.size:
        (src / _WEIGHTS).write_bytes(plan.blob.astype("<f4").tobytes())
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


class _Worker:
    """A toolchain process running _COMPILE_SRC, started with `cmd`, which
    forks one compile step per request. Its stderr goes to a file, read
    only when it dies. `held` maps the exact bytes of the __main__.py it
    last compiled without error to the pyc it wrote (b"" for a check
    only)."""

    def __init__(self, cmd):
        self.held: dict[bytes, bytes] = {}
        self.errors = tempfile.TemporaryFile()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=self.errors)

    def step(self, args: list) -> None:
        """Compile in one forked step: args are the pyc directory ("" for
        a check only) and the absolute source paths. CompileError when the
        step fails, or when the worker dies during it."""
        payload = b"\0".join(map(os.fsencode, args))
        try:
            self.proc.stdin.write(b"%d\n" % len(payload) + payload)
            self.proc.stdin.flush()
            rc, size = map(int, self.proc.stdout.readline().split())
            text = self.proc.stdout.read(size)
        except (OSError, ValueError):  # EOF, or not a reply: it died
            self.proc.kill()
            self.proc.wait()
            self.errors.seek(0)
            rc, text = self.proc.returncode, self.errors.read()
        if rc != 0:
            raise CompileError(f"toolchain step failed (rc={rc}): "
                               f"{text.decode(errors='replace').strip()}")

    def close(self) -> None:
        """Close its requests, which ends it, and wait for it to exit."""
        try:
            self.proc.stdin.close()
        except OSError:  # requests it could not take
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:  # a fork of this process holds it
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.errors.close()


# The build process's toolchain workers, by start command, environment and
# pid: a changed environment, or a process forked from this one, starts a
# worker of its own. The lock serializes the requests.
_workers: dict[tuple, _Worker] = {}
_workers_lock = threading.Lock()


def _compile_step(cmd: list[str], args: list) -> None:
    """Run one compile step on the worker started with cmd, starting one
    when there is none or it has died: args are the pyc directory ("" for
    a check only) and the absolute source paths. Every build's __main__.py
    is the same, so a worker compiles it once: one whose exact bytes the
    worker holds (_Worker.held) is not sent, and its held pyc goes into
    the pyc directory. Any other source compiles in every step."""
    key = (tuple(cmd), tuple(sorted(os.environ.items())), os.getpid())
    out, *paths = args
    main = next((p for p in paths if Path(p).name == "__main__.py"), None)
    src = main and Path(main).read_bytes()
    with _workers_lock:
        worker = _workers.get(key)
        if worker is None or worker.proc.poll() is not None:
            if worker is not None:
                worker.close()
            worker = _workers[key] = _Worker(cmd)
        if src in worker.held:
            worker.step([out, *(p for p in paths if p != main)])
            if out:
                Path(out, "__main__.pyc").write_bytes(worker.held[src])
        else:
            worker.step(args)
            if main:
                worker.held = {src: Path(out, "__main__.pyc").read_bytes()
                               if out else b""}


@atexit.register
def _close_workers() -> None:
    """End every toolchain worker this process started."""
    with _workers_lock:
        for key, worker in list(_workers.items()):
            if key[2] == os.getpid():
                worker.close()
                del _workers[key]


# The interpreter line's -c code: it runs the zip's __main__ as python would
# run the zip, with sys.argv the program's path and arguments and that path
# first on sys.path, but without runpy and the modules runpy loads. It holds
# no whitespace, so the kernel passes "-ISc<code>" as one argument.
_BOOTSTRAP = (b"s=__import__('sys');a=s.argv;del(a[0]);s.path[:0]=a[:1];"
              b"exec(__import__('zipimport').zipimporter(a[0])"
              b".get_code('__main__'))")

# A weights blob this large or larger is stored: lenet's 174 KiB deflate
# by 9% only and take 1.7 ms to inflate at every start. A smaller one
# inflates in microseconds, and is deflated when that shrinks it: mlp's
# 268 B would take 273. Code members always shrink, to 20-45%.
_DEFLATE_WEIGHTS_BELOW = 16384


def _compress_type(name, data) -> int:
    """The zipfile method a member goes in with (see above). A small blob
    is deflated on trial by the compressor zipfile makes at level 9."""
    if name == _WEIGHTS and (len(data) >= _DEFLATE_WEIGHTS_BELOW or len(
            zlib.compress(data, 9, wbits=-15)) >= len(data)):
        return zipfile.ZIP_STORED
    return zipfile.ZIP_DEFLATED


# Linux reads this much of a #! line; a longer line would lose the end of
# the bootstrap, so it falls back to running the zip through runpy.
_LINE_BYTES = 256


def compile_program(out_dir, sources, toolchain: ToolchainConfig | None = None) -> str:
    """Check and package the emitted sources into one executable file.

    A toolchain worker runs _COMPILE_SRC and forks one step per build to
    compile every .py source: the process's first build with a toolchain
    starts it as `python -S <flags> -OO -X no_debug_ranges -c _COMPILE_SRC`
    for a stripped build, which ships the pycs its step writes, and as
    `python -S <flags> -c _COMPILE_SRC` for an unstripped one, whose step
    only checks that each source compiles and which ships the sources.
    Later builds with the same toolchain, environment and process reuse
    it, and send it no __main__.py it has compiled before (_compile_step);
    one that has died is replaced, and it ends when the process does.
    The program's interpreter line is `#!<python> -ISc<_BOOTSTRAP>`, so no
    site hooks of the host run in it, nothing on PYTHONPATH (see
    _MAIN_SRC), and no runpy: the bootstrap runs the zip's __main__
    itself. When that line would pass the 256 bytes Linux reads, it is
    `#!<python> -IS`, which runs the same zip through runpy. Any other
    source, the weights blob, goes in as it is. zipfile writes the
    archive, every member dated 1980-01-01, so the same sources give the
    same bytes. Code members are deflated at level 9, the smallest; a
    weights blob of _DEFLATE_WEIGHTS_BELOW bytes or more is stored, since
    its float32 noise barely deflates and inflating it slows every start,
    and a smaller one is deflated when that shrinks it.
    """
    toolchain = toolchain or ToolchainConfig()
    python = _resolve_toolchain(toolchain)
    out_dir = Path(out_dir)
    code = [(out_dir / s).absolute() for s in sources if s.endswith(".py")]
    members = [(Path(s).name, (out_dir / s).read_bytes())
               for s in sources if not s.endswith(".py")]
    # -S: the step needs no site packages, and no .pth or sitecustomize
    # code of the build host may run inside it. The user's flags gate the
    # compile (-W error turns a SyntaxWarning into a failed step).
    tool = [python, "-S", *toolchain.flags]

    if toolchain.strip:
        with tempfile.TemporaryDirectory(prefix="mlfuse-build-") as td:
            # -OO drops docstrings and asserts; no_debug_ranges drops the
            # per-instruction column tables, which only serve traceback
            # carets (interpreters before 3.11 ignore it).
            _compile_step([*tool, "-OO", "-X", "no_debug_ranges",
                           "-c", _COMPILE_SRC], [os.path.abspath(td), *code])
            for p in code:
                pyc = Path(td) / (p.stem + ".pyc")
                if not pyc.is_file():
                    raise CompileError(f"no bytecode produced for {p.name}")
                members.append((p.stem + ".pyc", pyc.read_bytes()))
    else:
        _compile_step([*tool, "-c", _COMPILE_SRC], ["", *code])
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
                z.writestr(zipfile.ZipInfo(name, (1980, 1, 1, 0, 0, 0)), data,
                           _compress_type(name, data), compresslevel=9)
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
    """Full build: extract (which validates the bundle), analyze, search,
    emit, compile, manifest."""
    device = device or DeviceInfo()
    cfg = cfg or harness.VerifyConfig()
    toolchain = toolchain or ToolchainConfig()
    registry = registry or default_registry()
    graph = bundle.graph

    lowered = extract_units(bundle, device, registry)
    for tid in (*graph.inputs, *graph.outputs):
        if graph.tensors[tid].dtype is not DataType.F32:
            raise CodegenError("program IO is little-endian F32; graph "
                               f"tensor {tid} is {graph.tensors[tid].dtype.name}")
    analyze_config(lowered)  # the analyze phase, which the lowering did
    result = search_status(bundle, lowered, cfg)
    plan = build_emission_plan(lowered, result)

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
