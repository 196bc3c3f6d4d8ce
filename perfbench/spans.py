"""Spans around calls into frdecomp's public functions.

The tracer replaces each listed function with a timing wrapper on every
frdecomp module binding that holds it (``aj_family`` is bound in both
``weights`` and ``lattice``, for instance), keeps spans (name, start, end,
parent) in memory and writes them as JSON lines at the end.  A layer's self
time is its span minus the part its child spans cover.  Counts are computed
from each call's inputs and outputs, not measured.
"""

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

# Per-layer metrics: name -> unit.  Times are self times in seconds; counts
# are computed.  Both are totals over one set-up plus one round of the
# workload's operations (traced rounds are averaged); oracle.greens_oracle_s
# is the checks' call to the Green's oracle.
LAYER_METRICS = {
    "weights.build_bump_profile_s": "s",
    "weights.vt_cheb_coeffs_s": "s",
    "weights.aj_family_s": "s",
    "weights.aj_family_calls": "count",
    "sos.halfline_certificate_cheb_s": "s",
    "sos.cert_degree_sum": "count",
    "lattice.kernel_slice_s": "s",
    "lattice.kernel_slice_calls": "count",
    "lattice.apply_cheb_in_w_s": "s",
    "lattice.slice_entries": "count",
    "lattice.slice_autocorr_s": "s",
    "lattice.slice_autocorr_calls": "count",
    "lattice.greens_tail_s": "s",
    "weights.tail_weight_integral_s": "s",
    "oracle.symbol_transform_s": "s",
    "oracle.greens_oracle_s": "s",
    "continuum.radial_kernel_s": "s",
    "continuum.radial_kernel_calls": "count",
    "continuum.radial_autoconvolution_s": "s",
    "field.sampler_init_s": "s",
    "field.sample_s": "s",
    "field.sample_calls": "count",
    "field.fft_points": "count",
    "field.sweep_s": "s",
    "field.sites_swept": "count",
    "trace.overhead_pct": "%",
}


# Counters take the call's bound arguments and its result.

def _aj_counts(args, cert):
    return {"weights.aj_family_calls": 1, "sos.cert_degree_sum": sum(cert.degrees)}


def _slice_counts(args, slc):
    return {"lattice.kernel_slice_calls": 1,
            "lattice.slice_entries": int(slc.field.values.size)}


def _sample_counts(args, smp):
    sampler = args["self"]
    fft = sampler.side ** sampler.spec.d if sampler.method == "spectral" else 0
    return {"field.sample_calls": 1, "field.fft_points": fft}


def _sweep_counts(args, results):
    sampler = args["sampler"]
    return {"field.sites_swept": args["n_samples"] * sampler.core ** sampler.spec.d}


def frdecomp_targets():
    """(owner, attribute, span name, counter) for every traced function."""
    from frdecomp import continuum, field, lattice, oracle, sos, weights

    def one(key):
        return lambda args, out: {key: 1}

    return [
        (weights, "build_bump_profile", "weights.build_bump_profile", None),
        (weights, "vt_cheb_coeffs", "weights.vt_cheb_coeffs", None),
        (weights, "aj_family", "weights.aj_family", _aj_counts),
        (sos, "halfline_certificate_cheb", "sos.halfline_certificate_cheb", None),
        (lattice, "kernel_slice", "lattice.kernel_slice", _slice_counts),
        (lattice, "apply_cheb_in_w", "lattice.apply_cheb_in_w", None),
        (lattice, "slice_autocorr", "lattice.slice_autocorr",
         one("lattice.slice_autocorr_calls")),
        (lattice, "greens_tail", "lattice.greens_tail", None),
        (weights, "tail_weight_integral", "weights.tail_weight_integral", None),
        (oracle, "symbol_transform", "oracle.symbol_transform", None),
        (continuum, "radial_kernel", "continuum.radial_kernel",
         one("continuum.radial_kernel_calls")),
        (continuum, "radial_autoconvolution", "continuum.radial_autoconvolution", None),
        (field.FieldSampler, "__init__", "field.sampler_init", None),
        (field.FieldSampler, "sample", "field.sample", _sample_counts),
        (field, "sweep_levels", "field.sweep", _sweep_counts),
    ]


class Tracer:
    def __init__(self):
        self.spans = []          # dicts: id, name, phase, start, end, parent, counts
        self.phase = None        # label of spans recorded now; None records nothing
        self.wrappers_on = False
        self._stack = []
        self._restore = []
        self._origin = time.perf_counter()

    # -- recording ------------------------------------------------------------

    @contextmanager
    def span(self, name):
        """A span around a call; phase None records nothing."""
        if self.phase is None:
            yield
            return
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "phase": self.phase, "start": 0.0,
               "end": 0.0, "parent": self._stack[-1] if self._stack else None,
               "counts": {}}
        self.spans.append(rec)
        self._stack.append(sid)
        rec["start"] = time.perf_counter() - self._origin
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._origin
            self._stack.pop()

    @contextmanager
    def during(self, phase, wrappers=True):
        self.phase, self.wrappers_on = phase, wrappers
        try:
            yield
        finally:
            self.phase, self.wrappers_on = None, False

    def _wrap(self, fn, name, counter):
        tracer = self
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.wrappers_on:
                return fn(*args, **kwargs)
            with tracer.span(name) as rec:
                out = fn(*args, **kwargs)
                if counter is not None:
                    rec["counts"] = counter(sig.bind(*args, **kwargs).arguments, out)
            return out

        return traced

    def install(self, targets):
        """Replace each target on its owner and on every frdecomp module
        binding that holds the same function."""
        for owner, attr, name, counter in targets:
            original = getattr(owner, attr)
            wrapped_fn = self._wrap(original, name, counter)
            holders = [owner] if isinstance(owner, type) else [
                mod for key, mod in list(sys.modules.items())
                if mod is not None and (key == "frdecomp" or key.startswith("frdecomp."))
            ]
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is original:
                        setattr(holder, key, wrapped_fn)
                        self._restore.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    # -- analysis -------------------------------------------------------------

    def self_times(self):
        """Span id -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]].append((s["start"], s["end"]))
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s["start"]
            for a, b in sorted(children.get(s["id"], ())):
                a, b = max(a, reach), min(b, s["end"])
                if b > a:
                    covered += b - a
                    reach = b
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def layer_metrics(self, traced_rounds):
        """Totals over the set-up, the checks' explicit spans, and the mean
        traced round."""
        selfs = self.self_times()
        once = dict.fromkeys(LAYER_METRICS, 0)
        traced = dict.fromkeys(LAYER_METRICS, 0)
        for s in self.spans:
            into = traced if s["phase"] == "traced" else once
            key = s["name"] + "_s"
            if key in into:
                into[key] += selfs[s["id"]]
            for ckey, cval in s["counts"].items():
                into[ckey] += cval
        # counts are integers, so whole rounds give exact per-round values
        return {key: once[key] + traced[key] / traced_rounds for key in LAYER_METRICS}

    def write_jsonl(self, path):
        selfs = self.self_times()
        with open(path, "w") as f:
            for s in self.spans:
                row = {"id": s["id"], "name": s["name"], "phase": s["phase"],
                       "start_s": s["start"], "end_s": s["end"],
                       "parent": s["parent"], "self_s": selfs[s["id"]]}
                if s["counts"]:
                    row["computed_counts"] = s["counts"]
                f.write(json.dumps(row) + "\n")


def span_or_nothing(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()
