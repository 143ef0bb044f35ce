"""Span recorder that wraps korn_kit's public functions from the outside.

``install()`` replaces every public module-level function of the layer
modules, plus the ``sample*`` methods of the analytic field classes, with a
wrapper that records a span.  The wrapper is bound at every ``korn_kit``
module that binds the original name (``fd_grad`` inside ``korn`` and
``transport`` as well as ``fields``), so calls made inside the program are
seen too.  Nothing in ``src/`` is edited.

A span's self time is its duration less the durations of the traced calls it
makes.  A direct recursive call of the same function is folded into the
outer span.  Counts are read at the call boundary, from the arguments and
the return value.
"""

from __future__ import annotations

import fnmatch
import functools
import inspect
import os
import resource
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "reporting", "fieldio", "analytic", "fields", "algebra",
          "korn", "transport")

MIB = 1024.0 * 1024.0


def _bytes_written(bound, result):
    out = Path(bound["out_dir"])
    tables = bound.get("tables") or {}
    names = [Path(result)] + [out / f"{bound['name']}_{t}.csv" for t in tables]
    return sum(os.path.getsize(p) for p in names)


# metric -> span patterns whose self time it sums
SELF_TIME = {
    "cli.load_config_s": ["cli.load_config"],
    "fieldio.load_field_s": ["fieldio.load_field"],
    "korn.min_rayleigh_s": ["korn.min_rayleigh"],
    "korn.assemble_form_s": ["korn.assemble_form"],
    "korn.build_gp_s": ["korn.build_gp"],
    "korn.kernel_vector_diagnostics_self_s": ["korn.kernel_vector_diagnostics"],
    "algebra.build_l_operators_s": ["algebra.build_l_operators"],
    "algebra.curl_product_pointwise_s": ["algebra.curl_product_pointwise"],
    "fields.curl_product_discrepancy_self_s": ["fields.curl_product_discrepancy"],
    "fields.fd_curl_rowwise_s": ["fields.fd_curl_rowwise"],
    "fields.fd_entry_gradients_s": ["fields.fd_entry_gradients"],
    "fields.fd_grad_s": ["fields.fd_grad"],
    "analytic.sample_s": ["analytic.*.sample*"],
    "transport.flood_propagate_self_s": ["transport.flood_propagate"],
    "transport.propagate_cube_s": ["transport.propagate_cube"],
    "transport.system_residual_s": ["transport.system_residual"],
    "reporting.write_report_s": ["reporting.write_report"],
}

# metric -> span whose peak allocation (MiB, callees included) it reports
PEAK = {
    "korn.min_rayleigh_peak_mb": "korn.min_rayleigh",
    "algebra.curl_product_pointwise_peak_mb": "algebra.curl_product_pointwise",
}

# span -> [(metric, count(bound_arguments, result))], summed over calls
COUNTS = {
    "fieldio.load_field": [
        ("fieldio.bytes_read", lambda b, r: os.path.getsize(b["path"]))],
    "korn.min_rayleigh": [("korn.dofs", lambda b, r: b["form"].n_dofs)],
    "korn.assemble_form": [
        ("korn.operator_nnz", lambda b, r: r.operator.nnz)],
    "algebra.build_l_operators": [
        ("algebra.build_l_operators_points", lambda b, r: r.full.size // 81)],
    "fields.fd_grad": [("fields.points", lambda b, r: b["f"].grid.num_points)],
    "fields.fd_entry_gradients": [
        ("fields.points", lambda b, r: b["m"].grid.num_points)],
    "fields.fd_curl_rowwise": [
        ("fields.points", lambda b, r: b["m"].grid.num_points)],
    "transport.propagate_cube": [
        ("transport.propagate_cube_calls", lambda b, r: 1),
        ("transport.propagate_cube_line_points",
         lambda b, r: b["coefficient"].grid.num_points)],
    "transport.system_residual": [
        ("transport.system_residual_calls", lambda b, r: 1)],
    "reporting.write_report": [("reporting.bytes_written", _bytes_written)],
}

_PEAK_SPANS = frozenset(PEAK.values())

COUNT_METRICS = tuple(dict.fromkeys(m for rules in COUNTS.values()
                                    for m, _ in rules))


class _Span:
    __slots__ = ("name", "start", "child", "tracing")

    def __init__(self, name, tracing):
        self.name = name
        self.start = 0.0
        self.child = 0.0
        self.tracing = tracing


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    """Aggregates spans by name: calls, total time, self time, memory.

    Growth of the process's peak RSS is charged to the innermost open span,
    or to ``setup`` outside any span, so the layers' shares add up to the
    process peak.  The spans named in ``PEAK`` also record the peak of
    memory allocated during them, by tracemalloc, which runs only inside
    them because it slows every allocation.
    """

    def __init__(self):
        self.stack: list[_Span] = []
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.peak_bytes = defaultdict(int)
        self.counts = defaultdict(int)
        self.rss_growth_mb = defaultdict(float)
        self._rss = 0.0  # ``setup`` takes the interpreter and the imports

    def _charge_rss(self):
        rss = _maxrss_mb()
        owner = self.stack[-1].name.split(".")[0] if self.stack else "setup"
        self.rss_growth_mb[owner] += rss - self._rss
        self._rss = rss

    def _enter(self, name):
        self._charge_rss()
        tracing = name in _PEAK_SPANS and not tracemalloc.is_tracing()
        if tracing:
            tracemalloc.start()
        span = _Span(name, tracing)
        self.stack.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span):
        duration = time.perf_counter() - span.start
        if span.tracing:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.peak_bytes[span.name] = max(self.peak_bytes[span.name], peak)
        self._charge_rss()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child += duration
        self.calls[span.name] += 1
        self.total_s[span.name] += duration
        self.self_s[span.name] += duration - span.child

    def wrap(self, name, fn):
        rules = COUNTS.get(name, ())
        signature = inspect.signature(fn) if rules else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.stack and self.stack[-1].name == name:
                return fn(*args, **kwargs)
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if rules:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for metric, count in rules:
                    self.counts[metric] += int(count(bound.arguments, result))
            return result

        return traced

    def self_time(self, patterns):
        return sum(t for name, t in self.self_s.items()
                   if any(fnmatch.fnmatchcase(name, p) for p in patterns))

    def summary(self) -> dict:
        """Aggregates as plain JSON-ready values."""
        return {
            "spans": {name: {"calls": self.calls[name],
                             "total_s": self.total_s[name],
                             "self_s": self.self_s[name],
                             "peak_mb": self.peak_bytes.get(name, 0) / MIB}
                      for name in sorted(self.calls)},
            "self_time": {m: self.self_time(p) for m, p in SELF_TIME.items()},
            "peak_mb": {m: self.peak_bytes.get(span, 0) / MIB
                        for m, span in PEAK.items()},
            "counts": {m: self.counts.get(m, 0) for m in COUNT_METRICS},
            "layer_self_s": {layer: self.self_time([f"{layer}.*"])
                             for layer in LAYERS},
            "rss_growth_mb": {owner: self.rss_growth_mb.get(owner, 0.0)
                              for owner in ("setup",) + LAYERS},
        }


def _targets():
    """(span name, owner, attribute, function) for everything that gets wrapped."""
    out = []
    for layer in LAYERS:
        module = sys.modules[f"korn_kit.{layer}"]
        for attr, obj in vars(module).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                out.append((f"{layer}.{attr}", module, attr, obj))
            elif (layer == "analytic" and inspect.isclass(obj)
                  and obj.__module__ == module.__name__):
                for meth, fn in vars(obj).items():
                    if meth.startswith("sample") and inspect.isfunction(fn):
                        out.append((f"{layer}.{attr}.{meth}", obj, meth, fn))
    return out


def install() -> Recorder:
    """Wrap korn_kit's public functions; korn_kit must already be imported."""
    import korn_kit.cli  # noqa: F401  (imports every layer module)

    recorder = Recorder()
    replaced = {}
    for name, owner, attr, fn in _targets():
        wrapped = recorder.wrap(name, fn)
        replaced[id(fn)] = (fn, wrapped)
        if inspect.isclass(owner):
            setattr(owner, attr, wrapped)
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "korn_kit" and not mod_name.startswith("korn_kit."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
    return recorder
