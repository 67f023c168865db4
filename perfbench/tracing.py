"""Span tracing of tbsim, installed from outside the package.

`Tracer.install()` replaces public functions of the tbsim modules with
wrappers that record one span per call (layer, start, end, parent) and
count the work the call was given. Each wrapper is installed at the name
the caller looks up: a function that `optics` imported with
`from .kernels import pair_delay_counts` is wrapped as
`optics.pair_delay_counts`, because wrapping `kernels.pair_delay_counts`
would miss every call. Spans stay in memory until `dump()` writes them.

`layer_metrics()` turns the spans and counters of one pass into the
per-layer metrics. A span's self time is its duration minus the time of
its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time

# Per-layer metrics, in the order they are reported, with their units.
LAYER_METRICS = {
    "cli.import_s": "s",
    "cli.commands": "count",
    "cli.write.bytes": "bytes",
    "cli.write.self_s": "s",
    "config.from_file.self_s": "s",
    "rng.variates": "count",
    "rng.self_s": "s",
    "rng.poisson.draws": "count",
    "rng.poisson.self_s": "s",
    "kernels.telegraph.steps": "count",
    "kernels.telegraph.self_s": "s",
    "kernels.pair_delay_counts.pairs": "count",
    "kernels.pair_delay_counts.self_s": "s",
    "kernels.dead_time_mask.events": "count",
    "kernels.dead_time_mask.self_s": "s",
    "cascade.sample_pair_emission.cycles": "count",
    "cascade.self_s": "s",
    "optics.simulate.cycles": "count",
    "optics.simulate.self_s": "s",
    "optics.detect.photons_in": "count",
    "optics.detect.clicks_out": "count",
    "optics.detect.self_s": "s",
    "optics.histogram_events.self_s": "s",
    "optics.csv.bytes": "bytes",
    "optics.csv.self_s": "s",
    "tomo.mle_reconstruct.calls": "count",
    "tomo.mle_reconstruct.self_s": "s",
    "tomo.mle.nfev": "count",
    "tomo.mle.nfev_per_fit": "count",
    "tomo.monte_carlo_errors.self_s": "s",
    "qcore.self_s": "s",
    "fitting.calls": "count",
    "fitting.self_s": "s",
    "fitting.fit_lifetime.self_s": "s",
    "cavity.transfer_matrix_spectrum.calls": "count",
    "cavity.transfer_matrix_spectrum.wavelengths": "count",
    "cavity.transfer_matrix_spectrum.self_s": "s",
    "cavity.characteristic_matrix.self_s": "s",
    "cavity.resonance.calls": "count",
    "cavity.resonance.self_s": "s",
    "cavity.tm_calls_per_resonance": "count",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_pct": "%",
}


def _arg(name):
    """Counter source: the length of argument `name`, or its value if a number."""
    def get(bound, result):
        v = bound.arguments[name]
        return v if isinstance(v, (int, float)) else len(v)
    return get


def _result_len(bound, result):
    return len(result)


def _text_bytes(bound, result):
    text = result if isinstance(result, str) else bound.arguments["text"]
    return len(text.encode("utf-8"))


class Tracer:
    """Collects spans and counters of one process."""

    def __init__(self):
        self.spans = []  # [layer, start, end, parent index or -1]
        self.counts = {}
        self._stack = []

    def wrap(self, owner, name, layer, counters=(), timed=True, flat=False):
        """Replace `owner.name` with a traced wrapper.

        `counters` are (counter name, source) pairs added after each call.
        With `timed=False` the call only feeds counters. With `flat=True`
        no span opens while a span of the same module is already open, so
        that layer's nested helper calls count as its own work.
        """
        raw = inspect.getattr_static(owner, name)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else getattr(owner, name)
        sig = inspect.signature(fn)
        module = layer.split(".")[0]
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if flat and stack and spans[stack[-1]][0].split(".")[0] == module:
                return fn(*args, **kwargs)
            result = self.span(layer, fn, *args, **kwargs) if timed else fn(*args, **kwargs)
            if counters:
                bound = sig.bind(*args, **kwargs)
                for key, source in counters:
                    counts[key] = counts.get(key, 0) + source(bound, result)
            return result

        setattr(owner, name, classmethod(traced) if is_classmethod else traced)

    def span(self, layer, fn, *args, **kwargs):
        """Run `fn(*args, **kwargs)` inside a span of `layer`."""
        idx = len(self.spans)
        self.spans.append([layer, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][1:3] = t0, time.perf_counter()
            self._stack.pop()

    def install(self):
        """Wrap the public functions of every tbsim module."""
        from tbsim import cascade, cavity, cli, config, fitting, optics, qcore, rng, tomo

        w = self.wrap
        w(cli, "_write_atomic", "cli.write",
          [("cli.write.bytes", lambda b, r: len(b.arguments["data"].encode("utf-8")))])
        w(cli, "_sha256_file", "cli.write")
        w(config.RunConfig, "from_file", "config.from_file")

        for name in ("uniform", "exponential", "normal_pairs"):
            w(rng, name, "rng", [("rng.variates", _result_len)], flat=True)
        w(rng.CounterRng, "poisson", "rng.poisson",
          [("rng.poisson.draws", _result_len)], flat=True)

        w(cascade, "telegraph", "kernels.telegraph",
          [("kernels.telegraph.steps", _arg("uniforms"))])
        w(optics, "pair_delay_counts", "kernels.pair_delay_counts",
          [("kernels.pair_delay_counts.pairs", lambda b, r: int(r.sum()))])
        w(optics, "dead_time_mask", "kernels.dead_time_mask",
          [("kernels.dead_time_mask.events", _arg("times"))])

        for owner in (cascade, optics):
            w(owner, "sample_pair_emission", "cascade",
              [("cascade.sample_pair_emission.cycles", _arg("cycles"))])
            w(owner, "blinking_telegraph", "cascade")
        w(cascade, "merge_records", "cascade")

        for name in ("simulate_timebin_run", "simulate_hom_run",
                     "simulate_autocorrelation", "simulate_poissonian_source"):
            w(optics, name, "optics.simulate",
              [("optics.simulate.cycles", _arg("cycles"))])
        w(optics, "_detect", "optics.detect",
          [("optics.detect.photons_in", _arg("raw_time")),
           ("optics.detect.clicks_out", _result_len)])
        w(optics, "histogram_events", "optics.histogram_events")
        for cls in (optics.CoincidenceHistogram, optics.PhotonEvents):
            for name in ("to_csv", "from_csv"):
                w(cls, name, "optics.csv", [("optics.csv.bytes", _text_bytes)])

        w(tomo, "mle_reconstruct", "tomo.mle_reconstruct")
        w(tomo, "monte_carlo_errors", "tomo.monte_carlo_errors")
        w(tomo, "minimize", "tomo.mle",
          [("tomo.mle.nfev", lambda b, r: int(r.nfev))], timed=False)

        for owner in (qcore, tomo, cli):
            for name in ("concurrence", "fidelity_to_state", "purity"):
                if hasattr(owner, name):
                    w(owner, name, "qcore")
        w(qcore.DensityMatrix, "__post_init__", "qcore")

        for name in ("g2_zero", "blinking_factor", "hom_five_peak",
                     "hom_delay_scan", "fit_rabi", "purcell_from_lifetimes"):
            w(fitting, name, "fitting")
        w(fitting, "fit_lifetime", "fitting.fit_lifetime")

        w(cavity, "transfer_matrix_spectrum", "cavity.transfer_matrix_spectrum",
          [("cavity.transfer_matrix_spectrum.wavelengths",
            lambda b, r: len(r[0]))])
        w(cavity, "characteristic_matrix", "cavity.characteristic_matrix")
        w(cavity, "cavity_resonance_and_q", "cavity.resonance")

    def dump(self, path, extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, **extra}, fh)


def layer_metrics(traces):
    """Per-layer metrics of one pass from the span files of its processes.

    The `trace.*` metrics other than `trace.spans` are left to the caller.
    """
    self_s, calls = {}, {}
    counts = {}
    imports = []
    n_spans = 0
    tm_in_resonance = 0
    for tr in traces:
        spans = tr["spans"]
        n_spans += len(spans)
        imports.append(tr["import_s"])
        for key, v in tr["counts"].items():
            counts[key] = counts.get(key, 0) + v
        child_s = [0.0] * len(spans)
        for layer, t0, t1, parent in spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        for i, (layer, t0, t1, parent) in enumerate(spans):
            self_s[layer] = self_s.get(layer, 0.0) + (t1 - t0) - child_s[i]
            calls[layer] = calls.get(layer, 0) + 1
            if layer == "cavity.transfer_matrix_spectrum":
                p = parent
                while p >= 0 and spans[p][0] != "cavity.resonance":
                    p = spans[p][3]
                tm_in_resonance += p >= 0

    def prefixed(table, prefix):
        return sum(v for k, v in table.items()
                   if k == prefix or k.startswith(prefix + "."))

    m = {
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "cli.commands": calls.get("cli.command", 0),
        "fitting.calls": prefixed(calls, "fitting"),
        "fitting.self_s": prefixed(self_s, "fitting"),
        "trace.spans": n_spans,
    }
    for key in LAYER_METRICS:
        layer, _, what = key.rpartition(".")
        if key in m or key.startswith("trace."):
            continue
        if what == "self_s":
            m[key] = self_s.get(layer, 0.0)
        elif what == "calls":
            m[key] = calls.get(layer, 0)
        else:
            m[key] = counts.get(key, 0)
    fits, resonances = m["tomo.mle_reconstruct.calls"], m["cavity.resonance.calls"]
    m["tomo.mle.nfev_per_fit"] = m["tomo.mle.nfev"] / fits if fits else 0.0
    m["cavity.tm_calls_per_resonance"] = tm_in_resonance / resonances if resonances else 0.0
    return m
