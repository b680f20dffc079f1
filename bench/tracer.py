"""Outside-in span tracer for the mwfi modules.

The tracer wraps public functions from outside the program. A function is
reached through every module attribute that names it: ``harness`` binds
``simulate_scan`` by ``from .scan_engine import``, while ``calibrate`` looks
it up in ``scan_engine``'s globals, so each binding in each ``mwfi`` module
is replaced, and all are restored on ``uninstall``.

Each wrapped call records one span (name, start, end, parent) in flat arrays,
so long runs with many short spans stay small in memory, plus per-name
counts taken at the same boundary. A span's self time is its duration minus
the time covered by its direct children; the program is single-threaded, so
children never overlap.
"""

import array
import functools
import os
import sys
import time
from collections import Counter

import numpy as np

# kinds of count a target can record (besides calls and errors)
SAMPLES = "samples"
EVENTS = "events"
BYTES = "bytes"
DISTINCT = "distinct"


def _result_size(args, kwargs, result):
    return int(np.size(result))


def _trace_samples(args, kwargs, result):
    return int(result.power.size)


def _lut_samples(args, kwargs, result):
    return int(result.freqs.size)


def _estimate_samples(args, kwargs, result):
    return int(result.freq.size)


def _n_events(args, kwargs, result):
    return len(result)


def _written_bytes(args, kwargs, result):
    return os.path.getsize(kwargs["path"] if "path" in kwargs else args[1])


def _scan_axis_key(args, kwargs, result):
    # scan_frequency(models, drive, grid): the axis depends only on these
    models, drive, grid = args
    return (models.mrr, drive, grid)


# (module, attribute path, {kind: counter}, kinds the benchmark reports).
# The attribute path is a function name or "Class.method". Every target
# records calls, errors and self time; the report column lists the per-layer
# metrics the benchmark prints for it (unreported targets still own their
# self time, so it is not charged to their callers).
SELF, CALLS, ERRORS, RATIO = "self_s", "calls", "errors", "useful_ratio"
TARGETS = (
    ("cli", "main", {}, (SELF,)),
    ("presets", "preset_path", {}, ()),
    ("config", "RunConfig.from_file", {}, (SELF,)),
    ("config", "RunConfig.build_models", {}, (SELF,)),
    ("config", "RunConfig.build_scenario", {}, (SELF,)),
    ("harness", "run", {}, (SELF, CALLS, ERRORS)),
    ("seeding", "derive_seed", {}, ()),
    ("rf_signals", "component_tracks", {}, (SELF, CALLS)),
    ("rf_signals", "instantaneous_components", {}, (SELF, CALLS)),
    ("photonic_link", "modulator_sideband_weight", {SAMPLES: _result_size}, ()),
    ("photonic_link", "mrr_drop_response", {SAMPLES: _result_size}, (SELF, CALLS, SAMPLES)),
    ("photonic_link", "thermal_lag", {SAMPLES: _result_size}, (SELF, CALLS, SAMPLES)),
    ("photonic_link", "pd_detect", {SAMPLES: _result_size}, (SELF, CALLS, SAMPLES)),
    ("photonic_link", "mzi_port_response", {SAMPLES: _result_size}, (SELF, CALLS, SAMPLES)),
    ("photonic_link", "notch_response", {SAMPLES: _result_size}, (SELF, CALLS, SAMPLES)),
    ("scan_engine", "scan_frequency", {DISTINCT: _scan_axis_key}, (SELF, CALLS, DISTINCT, RATIO)),
    ("scan_engine", "simulate_scan", {SAMPLES: _trace_samples}, (SELF, SAMPLES)),
    ("scan_engine", "detect_pulses", {EVENTS: _n_events}, (SELF, CALLS, EVENTS)),
    ("scan_engine", "calibrate", {}, (SELF, CALLS, ERRORS)),
    ("scan_engine", "estimate_frequencies", {}, (SELF, CALLS, ERRORS)),
    ("scan_engine", "measure_span", {}, (SELF, CALLS, ERRORS)),
    ("scan_engine", "estimate_hop_set", {}, (SELF, CALLS, ERRORS)),
    ("scan_engine", "scan_trace_to_csv", {BYTES: _written_bytes}, (SELF, BYTES)),
    ("classifier", "compute_features", {}, (SELF,)),
    ("classifier", "classify", {}, (SELF,)),
    ("ifm_engine", "build_lut", {SAMPLES: _lut_samples}, (SELF, SAMPLES)),
    ("ifm_engine", "simulate_ifm", {SAMPLES: _trace_samples}, (SELF, SAMPLES)),
    ("ifm_engine", "extract_inst_freq", {SAMPLES: _estimate_samples}, (SELF, SAMPLES)),
    ("ifm_engine", "estimate_static_frequency", {}, ()),
    ("ifm_engine", "lut_to_csv", {BYTES: _written_bytes}, (SELF, BYTES)),
    ("ifm_engine", "ifm_trace_to_csv", {BYTES: _written_bytes}, (SELF, BYTES)),
    ("ifm_engine", "inst_freq_to_csv", {BYTES: _written_bytes}, (SELF, BYTES)),
)

LAYERS = tuple(dict.fromkeys(target[0] for target in TARGETS))


def span_name(module, attr):
    return f"{module}.{attr}"


def mwfi_modules():
    """Every imported module of the mwfi package."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "mwfi" or name.startswith("mwfi."))
    ]


class Tracer:
    """Records spans and counts for the wrapped functions of TARGETS."""

    def __init__(self):
        self.names = [span_name(module, attr) for module, attr, _, _ in TARGETS]
        self._span_name = array.array("i")
        self._span_parent = array.array("i")
        self._span_start = array.array("d")
        self._span_end = array.array("d")
        self._stack = []
        self.counts = {name: Counter() for name in self.names}
        self._axes = {name: set() for name in self.names}
        self._patches = []

    # spans ---------------------------------------------------------------
    @property
    def n_spans(self):
        return len(self._span_start)

    def spans(self, first=0):
        """(name index, parent index, start, end) arrays of spans[first:].

        Parent indices are absolute; -1 marks a root span."""
        if first >= self.n_spans:
            return (np.zeros(0, np.int32), np.zeros(0, np.int32), np.zeros(0), np.zeros(0))
        return (
            np.frombuffer(self._span_name, dtype=np.int32)[first:].copy(),
            np.frombuffer(self._span_parent, dtype=np.int32)[first:].copy(),
            np.frombuffer(self._span_start, dtype=np.float64)[first:].copy(),
            np.frombuffer(self._span_end, dtype=np.float64)[first:].copy(),
        )

    def self_times(self, first=0):
        """Self seconds per target name over spans[first:]."""
        name, parent, start, end = self.spans(first)
        duration = end - start
        child = parent >= first
        covered = np.bincount(
            parent[child] - first, weights=duration[child], minlength=name.size
        )
        own = np.bincount(name, weights=duration - covered, minlength=len(self.names))
        return dict(zip(self.names, own.tolist()))

    def root_duration(self, first=0):
        """Summed duration of the outermost spans in spans[first:]."""
        _, parent, start, end = self.spans(first)
        root = parent < first
        return float(np.sum(end[root] - start[root]))

    def take_counts(self):
        """Counts since the last call, then start counting afresh."""
        taken = {name: dict(c) for name, c in self.counts.items()}
        for name in self.names:
            self.counts[name].clear()
            self._axes[name].clear()
        return taken

    def save(self, path):
        """Write every recorded span to an .npz file."""
        name, parent, start, end = self.spans()
        np.savez(path, names=np.array(self.names), name=name, parent=parent, start=start, end=end)

    # wrapping ------------------------------------------------------------
    def _wrap(self, index, fn, counters):
        name = self.names[index]
        counts = self.counts[name]
        axes = self._axes[name]
        names, parents = self._span_name, self._span_parent
        starts, ends = self._span_start, self._span_end
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = len(starts)
            names.append(index)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts["errors"] += 1
                raise
            finally:
                ends[span] = clock()
                stack.pop()
                counts["calls"] += 1
            for kind, counter in counters.items():
                if kind == DISTINCT:
                    axes.add(counter(args, kwargs, result))
                    counts[kind] = len(axes)
                else:
                    counts[kind] += counter(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target at each module attribute bound to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = mwfi_modules()
        by_name = {mod.__name__: mod for mod in modules}
        for index, (module, attr, counters, _) in enumerate(TARGETS):
            home = by_name[f"mwfi.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._patch(cls, meth, classmethod(self._wrap(index, raw.__func__, counters)))
                else:
                    self._patch(cls, meth, self._wrap(index, raw, counters))
                continue
            fn = getattr(home, attr)
            traced = self._wrap(index, fn, counters)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, traced)

    def uninstall(self):
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
