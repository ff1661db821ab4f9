"""Closed-loop benchmark of freemeixner.

Run from the root of a checkout:

    python3 benchmark/run.py --workload exact-ladder --seed 1 --seconds 20 --trace 0

Workloads: exact-ladder, pair-verification, float-analytic, cli-cold
(--workload all runs the four in turn and merges their results).  Each
has one caller that waits for every answer before it asks the next
question, in a single process (cli-cold: one child process at a time).  The
timed phase repeats a fixed epoch of requests until --seconds have passed,
finishing the epoch it is in, so every run measures whole epochs of the
same mix.  Inputs come from --seed only.  Every answer is checked after the
timed phase against an independent route, and every workload carries
negative controls whose correct outcome is a failure.

Times are rescaled to a reference host by a speed probe timed right before
and after each request (harness.Calibration): a shared host can change speed by 1.4x and more,
within seconds and for minutes at a time.  setup_s is the median
of five fresh child processes set up after the timed phase.

--trace 0 prints the end-to-end metrics; --trace 1 runs half the time
untraced, replays the same epochs with spans around every public library
call, and prints the per-layer metrics (raw wall times; no probes, no
setup samples).  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import time

T_START = time.perf_counter()

import argparse
import importlib
import json
import os
import resource
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = {
    "exact-ladder": "wl_exact",
    "pair-verification": "wl_pair",
    "float-analytic": "wl_float",
    "cli-cold": "wl_cli",
}

SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
# share of the traced wall time the top-level spans must cover
MIN_TRACE_COVERAGE = 0.9

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_rps", "requests/s"),
    ("peak_rss_mb", "MB"),
)

_FUNCTION_SHARES = (
    "cli.main",
    "ncpart.enumerate_nc_le2",
    "cumulants.cumulants_to_moments",
    "cumulants.moments_to_cumulants",
    "cumulants.q_cumulants",
    "cumulants.free_pair_moment",
    "meixner.moments",
    "meixner.cumulants.nc_le2",
    "meixner.cumulants.semicircle",
    "meixner.cumulants.from_moments",
    "meixner.density",
    "meixner.atoms",
    "meixner.cauchy_transform",
    "meixner.r_transform",
    "meixner.moment_generating",
    "verify.build_free_pair",
    "verify.verify_linear_regression",
    "verify.verify_quadratic_variance",
    "verify.verify_mixed_cumulants",
    "verify.verify_moment_recursion",
    "verify.verify_levy_martingale",
    "numerics.gauss_rule",
    "numerics.integrate_against_law",
    "numerics.stieltjes_invert",
)
_FUNCTION_CALLS = (
    "cli.main",
    "ncpart.enumerate_nc_le2",
    "cumulants.cumulants_to_moments",
    "cumulants.moments_to_cumulants",
    "cumulants.q_cumulants",
    "cumulants.free_pair_moment",
    "meixner.moments",
    "numerics.gauss_rule",
    "numerics.integrate_against_law",
)
_LAYER_NAMES = ("ncpart", "cumulants", "meixner", "verify", "numerics", "cli")

# (name, unit) of every metric a traced run reports.  Self times are given
# as shares of the traced wall time (trace.traced_wall_s), so a layer a
# workload never calls reads 0 as a share, never as a time.
PER_LAYER = (
    (("import.freemeixner_s", "s"), ("import.scipy_s", "s"), ("import.numpy_s", "s"))
    + tuple((f"{name}.calls", "count") for name in _FUNCTION_CALLS)
    + tuple((f"{name}.self_share", "ratio") for name in _FUNCTION_SHARES)
    + tuple((f"{layer}.self_share", "ratio") for layer in _LAYER_NAMES)
    + tuple((f"{layer}.raised", "count") for layer in _LAYER_NAMES)
    + (
        ("ncpart.partitions_returned", "count"),
        ("cumulants.free_pair_moment.letters", "count"),
        ("cumulants.free_pair_moment.beyond_cache_share", "ratio"),
        ("verify.orders_checked", "count"),
        ("verify.controls_caught_ratio", "ratio"),
        ("numerics.gauss_rule.nodes_dropped", "count"),
        ("numerics.integrate_against_law.numeric_errors", "count"),
        ("trace.overhead_frac", "ratio"),
        ("trace.unattributed_share", "ratio"),
        ("trace.traced_wall_s", "s"),
    )
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def warm_up(requests):
    """One untimed request of each kind, so caches are filled before timing."""
    seen = set()
    for req in requests:
        if req.kind not in seen:
            seen.add(req.kind)
            try:
                req.call()
            except Exception:  # the timed request of this kind reports it
                pass


def setup_samples(args, calibration):
    """setup_s samples, each from a fresh child process (``--setup-probe``).

    A child reports the time it spent starting and importing (for cli-cold,
    also one child import of freemeixner.cli) and, already rescaled by the
    CPU probe, the rest of its set-up.  The import part is rescaled here by
    the import probe run before and after the child.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    samples = []
    probe = calibration.kernel()
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        parts = json.loads(proc.stdout.strip().splitlines()[-1])
        after = calibration.kernel()
        samples.append(parts["import_s"] * calibration.factor(probe, after) + parts["rest_s"])
        probe = after
    return samples


def import_times():
    """Median import.* figures from ``python -X importtime -c 'import freemeixner'``."""
    runs = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import freemeixner"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.strip()[-500:]}")
        totals = {"freemeixner": 0.0, "scipy": 0.0, "numpy": 0.0}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "imported package" in line:
                continue
            self_us, cumulative_us, name = line[len("import time:"):].split("|")
            top = name.strip()
            package = top.split(".")[0]
            if top == "freemeixner" and name.startswith(" freemeixner"):
                totals["freemeixner"] = int(cumulative_us) / 1e6
            elif package in totals and package != "freemeixner":
                totals[package] += int(self_us) / 1e6
        runs.append(totals)
    return {key: sorted(r[key] for r in runs)[len(runs) // 2] for key in runs[0]}


def layer_metrics(tracer, recorder, wall_untraced, wall_traced, import_figures):
    selfs = tracer.self_times()
    calls = tracer.calls()
    raised = tracer.raised()
    layer_self = {}
    for name, t in selfs.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + t
    counters = tracer.counters
    fpm_calls = calls.get("cumulants.free_pair_moment", 0)
    numeric_errors = sum(
        1 for span in tracer.spans
        if span[3] == "numerics.integrate_against_law" and span[6] == "NumericError"
    )
    values = {
        "import.freemeixner_s": import_figures["freemeixner"],
        "import.scipy_s": import_figures["scipy"],
        "import.numpy_s": import_figures["numpy"],
        "ncpart.partitions_returned": counters["ncpart.partitions_returned"],
        "cumulants.free_pair_moment.letters": counters["cumulants.free_pair_moment.letters"],
        "cumulants.free_pair_moment.beyond_cache_share":
            counters["cumulants.free_pair_moment.beyond_cache"] / fpm_calls if fpm_calls else 0.0,
        "verify.orders_checked": counters["verify.orders_checked"],
        "verify.controls_caught_ratio":
            recorder.controls_caught / recorder.controls_run if recorder.controls_run else 0.0,
        "numerics.gauss_rule.nodes_dropped": counters["numerics.gauss_rule.nodes_dropped"],
        "numerics.integrate_against_law.numeric_errors": numeric_errors,
        "trace.overhead_frac": wall_traced / wall_untraced - 1.0,
        "trace.unattributed_share": 1.0 - tracer.top_level_time() / wall_traced,
        "trace.traced_wall_s": wall_traced,
    }
    for name in _FUNCTION_CALLS:
        values[f"{name}.calls"] = calls.get(name, 0)
    for name in _FUNCTION_SHARES:
        values[f"{name}.self_share"] = selfs.get(name, 0.0) / wall_traced
    for layer in _LAYER_NAMES:
        values[f"{layer}.self_share"] = layer_self.get(layer, 0.0) / wall_traced
        values[f"{layer}.raised"] = raised.get(layer, 0)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def run_all(args):
    """Run every workload in turn, each in its own process, and merge the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, capture_output=True,
                              text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "freemeixner", "__init__.py")):
        print(f"error: no freemeixner sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    from harness import CPU, Recorder, check_answers, imports, median, run_loop, tail
    import tracer as tracing

    wl = importlib.import_module(WORKLOADS[args.workload])
    if wl.IN_PROCESS:
        import freemeixner  # noqa: F401  (timed as part of set-up)
    imported = time.perf_counter()
    cpu_before = CPU.kernel()
    inputs = wl.prepare(args.seed, ROOT, child_env())
    requests = wl.epoch(inputs)
    if wl.IN_PROCESS:
        warm_up(requests)
        import_s = imported - T_START
    else:
        import_s = imported - T_START + wl.import_child(inputs)
    if args.setup_probe:
        rest_s = (time.perf_counter() - imported) * CPU.factor(cpu_before, CPU.kernel())
        print(json.dumps({"import_s": import_s, "rest_s": rest_s}))
        return 0
    import_probe = imports(ROOT, child_env())
    calibration = CPU if wl.IN_PROCESS else import_probe

    recorder = Recorder()
    tracer = None
    if args.trace:
        wall_untraced, epochs = run_loop(requests, recorder, seconds=args.seconds / 2)
        tracer = tracing.Tracer()
        traced_requests = wl.epoch(inputs, tracer=tracer)
        if wl.IN_PROCESS:
            tracer.install()
        try:
            wall_traced, _ = run_loop(traced_requests, recorder, epochs=epochs,
                                      before=lambda i: setattr(tracer, "request", i))
        finally:
            tracer.uninstall()
    else:
        wall, epochs = run_loop(requests, recorder, seconds=args.seconds, calibration=calibration)
    who = resource.RUSAGE_SELF if wl.IN_PROCESS else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    if args.trace:
        import_figures = import_times()
    else:
        setup_s = setup_samples(args, import_probe)

    bad, self_check_failures = check_answers(recorder, wl.tamper)
    failed_at = dict(recorder.failed_at)
    for index, key in enumerate(recorder.keys):
        if key in bad and index not in failed_at:
            failed_at[index] = bad[key]
    leftovers = tracing.wrapped_functions()
    if args.trace:
        coverage = tracer.top_level_time() / wall_traced
        if coverage < MIN_TRACE_COVERAGE:
            self_check_failures.append(
                f"top-level spans cover only {coverage:.1%} of the traced wall time")
    attempted = len(recorder.latencies)
    failed = len(failed_at)
    correct = failed == 0 and not self_check_failures and not leftovers

    lat_ms = [x * 1000.0 for x in recorder.latencies]
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}, seed {args.seed}, {mode}: {attempted} requests "
          f"({recorder.controls_run} controls) in {epochs} epochs of {len(requests)}")
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
        metrics = layer_metrics(tracer, recorder, wall_untraced, wall_traced,
                                import_figures)
        for name, m in metrics.items():
            print(f"  {name:52s} {m['value']:.6g} {m['unit']}")
    else:
        p50 = median(lat_ms)
        tail_ms, pct = tail(lat_ms)
        metrics = {
            "setup_s": median(setup_s),
            "latency_p50_ms": p50,
            "latency_tail_ms": tail_ms,
            "throughput_rps": attempted / sum(recorder.latencies),
            "peak_rss_mb": peak_rss_mb,
        }
        notes = {
            "setup_s": f"median of {len(setup_s)} setups",
            "latency_p50_ms": f"n={attempted}",
            "latency_tail_ms": f"p{pct:.2f}, 10 samples beyond, n={attempted}",
            "throughput_rps": f"n={attempted}, {sum(recorder.latencies):.2f} s scaled busy "
                              f"time in {wall:.2f} s wall",
            "peak_rss_mb": "RUSAGE_SELF" if wl.IN_PROCESS else "max over child processes",
        }
        for name, unit in END_TO_END:
            print(f"  {name:16s} {metrics[name]:12.6g} {unit:11s} ({notes[name]})")
        print(f"  {'failed_frac':16s} {failed / attempted:12.6g} {'ratio':11s} "
              f"({failed} of {attempted})")
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    print(f"  controls caught: {recorder.controls_caught} of {recorder.controls_run}")
    print(f"  library functions are the original objects: {'yes' if not leftovers else leftovers}")
    for line in getattr(wl, "notes", lambda rec: [])(recorder):
        print(f"  note: {line}")
    for msg in self_check_failures:
        print(f"  CHECK FAILED: {msg}")
    for index in sorted(failed_at)[:50]:
        print(f"  FAILED request {index}: {failed_at[index]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
