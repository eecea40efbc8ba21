"""Spans recorded around calls into the layers, for the traced run only.

A span is [name, start_ns, end_ns, parent, request]: parent is the index of
the enclosing span in the same list (-1 for none) and request names the
operation the span belongs to. Spans stay in memory until the run ends.
Wrapping replaces public functions as module attributes (and kernel
functions on the cached registry units and in the emitted driver), so the
layers are timed from outside and the untraced run executes none of this.
"""

from __future__ import annotations

import time

FIELDS = ("name", "start_ns", "end_ns", "parent", "request")

# public functions timed per layer, as module attributes
LAYER_FUNCTIONS = {
    "graphir": ("load_bundle", "validate", "infer_shapes"),
    "interpreter": ("load", "invoke"),
    "codegen": ("extract_units", "analyze_config", "search_status",
                "build_emission_plan", "emit_source", "compile_program"),
    "harness": ("verify", "make_inputs"),
    "sniffer": ("scan",),
}


def kernel_name(template_id: str) -> str:
    """Span name of a kernel template: conv2d_f32 -> kernels.conv2d."""
    return "kernels." + template_id.removesuffix("_f32").removesuffix("_copy")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = ""
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name):
        span = [name, 0, 0, self._stack[-1] if self._stack else -1,
                self.request]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        return span

    def _close(self, span):
        span[2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(s)
        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name) -> None:
        """Replace owner.attr with a traced wrapper until unpatch_all()."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def patch_layers(self, modules: dict, registry) -> None:
        for mod_name, attrs in LAYER_FUNCTIONS.items():
            for attr in attrs:
                self.patch(modules[mod_name], attr, f"{mod_name}.{attr}")
        for unit in registry.units():
            self.patch(unit, "fn", kernel_name(unit.template_id))

    def patch_program(self, net_driver, template_ids) -> None:
        self.patch(net_driver, "run", "program.run")
        for tid in template_ids:
            if hasattr(net_driver, tid):
                self.patch(net_driver, tid, kernel_name(tid))

    def unpatch_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def take(self) -> list[list]:
        out, self.spans = self.spans, []
        return out


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    child = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]
