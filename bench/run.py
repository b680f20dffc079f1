"""Layered host-time benchmark for mwfi.

    python3 bench/run.py --workload fttm_measure --seed 3 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from its src/
directory. Workloads and the reason each was chosen are described in
bench/workloads.py.

--trace 0 measures the end-to-end metrics with tracing off:
  wall_s              host seconds per pass (median over passes), rescaled
  sim_msamples_per_s  simulated trace samples per rescaled host second
  setup_s             fresh interpreter importing mwfi.cli and loading the
                      workload's first config (median over several children),
                      rescaled
  peak_rss_mb         peak resident memory of the process running the passes
  artifact_mb         bytes of artifacts written per pass

Rescaled: a shared virtual machine drifts in speed by up to 1.5x over
minutes, which no statistic over one run removes. So a fixed reference task
(reference_s) runs before, between and after the timed invocations of every
pass, and both times are scaled by REF_NOMINAL_S over the mean reference time
of the run. On 10 classify_sweep runs the spread (quartile distance over
median) of wall_s was 0.40 unscaled and 0.06 scaled, and the median setup_s
of two such sets differed by 17% unscaled and 9% scaled. Raw host seconds
are printed and saved beside the metrics.

--trace 1 runs the same passes in a second, traced process and reports the
per-layer metrics (self time and counts per wrapped function and per module),
the tracing overhead, the dominant layer of the workload and of each shipped
preset.

Every invocation is checked: it must exit 0, classify its scenario correctly,
meet the acceptance bounds of tests/test_acceptance.py, and write artifacts
whose digest equals that of the first pass. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics. Passes run
closed loop, one invocation after another, in one process with no worker
threads, until --seconds have passed. Artifacts go to a temporary directory
under .bench_out/ and are deleted after each pass; results and the span dump
of a traced run stay in .bench_out/.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from tracer import BYTES, CALLS, DISTINCT, LAYERS, RATIO, SELF, TARGETS, Tracer, span_name  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 3
REF_NOMINAL_S = 0.1  # reference_s() on an idle 2-vCPU Xeon (Sapphire Rapids) VM
MIN_PASSES = 3
RUN_BUDGET_S = 170.0  # a run must end within 180 s
CHILD_ENV = {
    # for every child process: no worker threads, fixed hashing for repeatable runs
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END = {
    "wall_s": "s",
    "sim_msamples_per_s": "MS/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
}

_UNITS = {SELF: "s", RATIO: "ratio", BYTES: "B"}
PER_LAYER = {
    f"{span_name(module, attr)}.{kind}": _UNITS.get(kind, "count")
    for module, attr, _, kinds in TARGETS
    for kind in kinds
}
PER_LAYER.update({f"layer.{layer}.self_s": "s" for layer in LAYERS})
PER_LAYER["trace.overhead_frac"] = "ratio"

PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
import mwfi.cli
from mwfi.config import RunConfig
RunConfig.from_file(sys.argv[2])
"""


class BenchError(RuntimeError):
    pass


# worker: runs the passes in its own process --------------------------------


def invoke(cli, argv):
    """Call the CLI in-process; returns (exit code, captured output)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, sink.getvalue()


def reference_s():
    """Host seconds of a fixed task that mixes the program's kinds of work.

    Array arithmetic with Philox noise and an IIR filter, CSV number
    formatting, and a scalar Python loop. The task never changes, so a time
    divided by it follows the program while the speed drift of a shared
    machine cancels.
    """
    import numpy as np
    from scipy.signal import lfilter

    started = time.perf_counter()
    x = np.linspace(-5e9, 5e9, 400_000)
    y = 1.0 / (1.0 + (2.0 * x / 875e6) ** 2)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
    y = lfilter([0.0, 0.01], [1.0, -0.99], np.maximum(y + rng.normal(0.0, 0.01, y.size), 0.0))
    float(np.quantile(y, 0.5))
    "".join(f"{a:.10e},{b:.10e}\n" for a, b in zip(x[:25_000].tolist(), y[:25_000].tolist()))
    acc = 0.0
    for k in range(100_000):
        t = k * 1e-9
        phase = t - 2e-7 * math.floor(t / 2e-7)
        if phase < 1.6e-7:
            acc += 12e9 + 6e9 * phase / 1.6e-7
    return time.perf_counter() - started


def run_pass(cli, calls, config_dir, scratch, tracer=None):
    """Run every invocation once; time them, then check and digest outputs."""
    pass_dir = tempfile.mkdtemp(dir=scratch)
    outs = [os.path.join(pass_dir, str(i)) for i in range(len(calls))]
    first_span = tracer.n_spans if tracer else 0
    codes, counts, spent, refs = [], [], [], [reference_s()]
    for inv, out in zip(calls, outs):
        started = time.perf_counter()
        codes.append(invoke(cli, inv.argv(config_dir, out)))
        if tracer:
            counts.append(tracer.take_counts())
        spent.append(time.perf_counter() - started)
        refs.append(reference_s())

    result = {
        "host_s": sum(spent),
        "invocation_s": spent,
        "ref_s": refs,
        "digests": [], "bytes": 0, "reasons": [], "counts": counts,
    }
    for inv, out, (code, text) in zip(calls, outs, codes):
        reasons = []
        if code != 0:
            tail = text.strip().splitlines()[-1:] or [""]
            reasons.append(f"exit {code}: {tail[0]}")
        else:
            reasons.extend(inv.check(out, inv.seed))
        digest, size = workloads.digest_dir(out) if os.path.isdir(out) else ("", 0)
        result["digests"].append(digest)
        result["bytes"] += size
        result["reasons"].append(reasons)
    shutil.rmtree(pass_dir)
    if tracer:
        result["self_s"] = tracer.self_times(first_span)
        result["root_s"] = tracer.root_duration(first_span)
    return result


def _layer_self(self_s):
    per_layer = dict.fromkeys(LAYERS, 0.0)
    for module, attr, _, _ in TARGETS:
        per_layer[module] += self_s[span_name(module, attr)]
    return per_layer


def _shares(per_layer):
    total = sum(per_layer.values()) or 1.0
    return sorted(((v / total, k) for k, v in per_layer.items()), reverse=True)


def worker(spec):
    """Run one workload's passes (traced or not) and write a result file."""
    sys.path.insert(0, SRC)
    import numpy
    import scipy
    import mwfi
    import mwfi.cli as cli
    from mwfi.config import RunConfig
    from mwfi.presets import list_presets, preset_path

    if os.path.dirname(os.path.abspath(mwfi.__file__)) != os.path.join(SRC, "mwfi"):
        raise BenchError(f"imported mwfi from {mwfi.__file__}, not from {SRC}")
    calls = workloads.build(spec["workload"], spec["seed"], spec["config_dir"])
    scratch = spec["scratch"]
    tracer = None
    if spec["traced"]:
        presets = [(name, RunConfig.from_file(preset_path(name)).mode) for name in list_presets()]
        tracer = Tracer()
        tracer.install()
    try:
        # one untimed invocation before timing; setup_s carries the cold cost
        warmup = os.path.join(scratch, "warmup")
        invoke(cli, calls[0].argv(spec["config_dir"], warmup))
        shutil.rmtree(warmup, ignore_errors=True)
        if tracer:
            tracer.take_counts()
        passes = []
        started = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - started < spec["seconds"]:
            passes.append(run_pass(cli, calls, spec["config_dir"], scratch, tracer))
        preset_layers = {}
        if tracer:
            for name, mode in presets:
                first = tracer.n_spans
                out = os.path.join(scratch, "preset_" + name)
                code, text = invoke(cli, [mode, "--config", name, "--out", out])
                shutil.rmtree(out, ignore_errors=True)
                tracer.take_counts()
                self_s = tracer.self_times(first)
                top_fn = max(self_s, key=self_s.get)
                preset_layers[name] = {
                    "exit": code,
                    "top": _shares(_layer_self(self_s))[:3],
                    "top_function": [top_fn, self_s[top_fn] / (sum(self_s.values()) or 1.0)],
                }
    finally:
        if tracer:
            tracer.uninstall()

    failures = []
    for k, p in enumerate(passes):
        for i, inv in enumerate(calls):
            reasons = list(p["reasons"][i])
            if p["digests"][i] != passes[0]["digests"][i]:
                reasons.append("artifact digest differs from the first pass")
            if tracer and p["counts"][i] != passes[0]["counts"][i]:
                reasons.append("per-layer counts differ from the first pass")
            failures.extend(
                {"invocation": inv.name, "seed": inv.seed, "pass": k, "reason": r} for r in reasons
            )
    for name, info in preset_layers.items():
        if info["exit"] != 0:
            failures.append({"invocation": f"preset {name}", "seed": None, "pass": None,
                             "reason": f"exit {info['exit']}"})

    result = {
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "mwfi": mwfi.__version__},
        "invocations": [inv.name for inv in calls],
        "attempted": len(passes) * len(calls) + len(preset_layers),
        "failures": failures,
        "host_s": [p["host_s"] for p in passes],
        "scale": REF_NOMINAL_S / statistics.fmean(t for p in passes for t in p["ref_s"]),
        "invocation_s": [p["invocation_s"] for p in passes],
        "ref_s": [p["ref_s"] for p in passes],
        "artifact_bytes": [p["bytes"] for p in passes],
        "digests": passes[0]["digests"],
        "samples_per_pass": sum(inv.samples for inv in calls),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        totals = {name: Counter() for name in tracer.names}
        for per_inv in passes[0]["counts"]:
            for name, kinds in per_inv.items():
                totals[name].update(kinds)
        result["counts"] = totals
        result["self_s"] = {
            name: statistics.median(p["self_s"][name] for p in passes) for name in tracer.names
        }
        result["layer_self_s"] = {
            layer: statistics.median(_layer_self(p["self_s"])[layer] for p in passes)
            for layer in LAYERS
        }
        result["root_s"] = [p["root_s"] for p in passes]
        result["presets"] = preset_layers
        tracer.save(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


# parent: set-up probes, workers, metrics ----------------------------------


def _remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 1.0:
        raise BenchError("run budget exhausted")
    return left


def setup_times(config_path, deadline):
    """Host seconds of each set-up probe."""
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, SRC, config_path], cwd=ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=_remaining(deadline),
        )
        times.append(time.perf_counter() - started)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return times


def run_worker(args, work, traced, deadline):
    tag = "traced" if traced else "plain"
    spec = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "traced": traced, "config_dir": os.path.join(work, "configs"),
        "scratch": tempfile.mkdtemp(prefix=tag + "-", dir=work),
        "result": os.path.join(work, tag + ".json"),
        "spans": os.path.join(OUT, f"spans-{args.workload}.npz"),
    }
    spec_path = os.path.join(work, tag + "-spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", spec_path],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=_remaining(deadline),
    )
    if proc.returncode != 0:
        raise BenchError(f"{tag} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(spec["result"]) as fh:
        return json.load(fh)


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _failed(results):
    keys = set()
    for tag, res in results.items():
        keys.update((tag, f["pass"], f["invocation"]) for f in res["failures"])
    return len(keys)


def end_to_end(plain, setup):
    wall = statistics.median(plain["host_s"]) * plain["scale"]
    return {
        "wall_s": wall,
        "sim_msamples_per_s": plain["samples_per_pass"] / 1e6 / wall,
        "setup_s": statistics.median(setup) * plain["scale"],
        "peak_rss_mb": plain["peak_rss_kb"] * 1024 / 1e6,
        "artifact_mb": statistics.median(plain["artifact_bytes"]) / 1e6,
    }


def per_layer(plain, traced):
    values = {}
    for module, attr, _, kinds in TARGETS:
        name = span_name(module, attr)
        counts = traced["counts"].get(name, {})
        for kind in kinds:
            if kind == SELF:
                value = traced["self_s"][name]
            elif kind == RATIO:
                calls = counts.get(CALLS, 0)
                value = counts.get(DISTINCT, 0) / calls if calls else 0.0
            else:
                value = counts.get(kind, 0)
            values[f"{name}.{kind}"] = value
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = traced["layer_self_s"][layer]
    plain_s, traced_s = (statistics.median(r["host_s"]) * r["scale"] for r in (plain, traced))
    values["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    return values


def summary_lines(args, results, setup):
    lines = [
        f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}",
        "provenance: python {python} numpy {numpy} scipy {scipy} mwfi {mwfi}".format(
            **results["plain"]["versions"])
        + f" nproc {os.cpu_count()} commit {git_commit()}",
    ]
    for tag, res in results.items():
        walls = ", ".join(
            "{:.3f} ({})".format(w, " ".join(f"{t:.2f}" for t in inv))
            for w, inv in zip(res["host_s"], res["invocation_s"])
        )
        refs = [t for p in res["ref_s"] for t in p]
        lines.append(f"{tag} passes: {len(res['host_s'])} of {res['invocations']}")
        lines.append(f"{tag} host seconds per pass (per invocation): [{walls}]")
        lines.append(f"{tag} reference task: mean {statistics.fmean(refs):.4f} s over {len(refs)} runs;"
                     f" host seconds are scaled by {res['scale']:.4f}")
        digest = hashlib.sha256("".join(res["digests"]).encode()).hexdigest()
        lines.append(f"{tag} output digest: {digest}")
    if setup:
        lines.append("setup probes, host seconds: " + ", ".join(f"{t:.3f}" for t in setup))
    traced = results.get("traced")
    if traced:
        coverage = sum(traced["root_s"]) / sum(traced["host_s"])
        lines.append(f"spans cover {coverage:.2%} of the traced wall")
        ranked = _shares(traced["layer_self_s"])
        lines.append("dominant layer: " + ", ".join(f"{k} {s:.1%}" for s, k in ranked[:4]))
        ranked_fn = sorted(traced["self_s"].items(), key=lambda kv: -kv[1])
        total = sum(traced["self_s"].values()) or 1.0
        lines.append("top functions: " + ", ".join(f"{k} {v / total:.1%}" for k, v in ranked_fn[:5]))
        for name, info in traced["presets"].items():
            top = ", ".join(f"{k} {s:.1%}" for s, k in info["top"])
            fn, share = info["top_function"]
            lines.append(f"preset {name}: {top}; top function {fn} {share:.1%}")
    for tag, res in results.items():
        for f in res["failures"]:
            lines.append(f"FAIL [{tag}] {f['invocation']} seed {f['seed']} pass {f['pass']}: {f['reason']}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.update(CHILD_ENV)
    if args.worker:
        with open(args.worker) as fh:
            worker(json.load(fh))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "mwfi", "cli.py")):
        print(f"bench: no mwfi sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=OUT)
    try:
        calls = workloads.build(args.workload, args.seed, os.path.join(work, "configs"))
        setup = []
        results = {}
        if args.trace == 0:
            setup = setup_times(os.path.join(work, "configs", calls[0].config), deadline)
            results["plain"] = run_worker(args, work, False, deadline)
            metrics = end_to_end(results["plain"], setup)
            units = END_TO_END
        else:
            results["plain"] = run_worker(args, work, False, deadline)
            results["traced"] = run_worker(args, work, True, deadline)
            if results["traced"]["digests"] != results["plain"]["digests"]:
                results["traced"]["failures"].append(
                    {"invocation": "all", "seed": args.seed, "pass": 0,
                     "reason": "traced outputs differ from untraced outputs"})
            metrics = per_layer(results["plain"], results["traced"])
            units = PER_LAYER
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = _failed(results)
    attempted = sum(res["attempted"] for res in results.values())
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(), "nproc": os.cpu_count(),
        "setup_s": setup, "result": line, "runs": results,
    }
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for text in summary_lines(args, results, setup):
        print(text)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
