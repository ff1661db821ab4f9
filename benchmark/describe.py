"""Print the traffic descriptors of every workload as JSON.

    python3 benchmark/describe.py > benchmark/traffic.json

Run from the repository root.  For each workload: why it exists, its loop,
the op mix and order histogram of one epoch, the exact/float share and the
free-pair word lengths, with the share of words beyond ncpart's partition
cache.  It also records which end-to-end metric each per-layer metric
should move, on which workload.  The epoch's composition does not depend
on the seed (only the parameter values do; in exact-ladder and for the exact
pair triples, only the signs of a), so seed 1 stands for all.
"""

import importlib
import json
import os
import sys
from collections import Counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.getcwd(), "src"), BENCH_DIR]

import run  # noqa: E402
from tracer import NC_CACHE_LIMIT  # noqa: E402

WHY = {
    "exact-ladder": "Fraction moments, cumulants (3 methods), round trips, q-cumulants and "
    "convolution powers at orders 8-32 on all six types: loads ncpart NC<=2 and the exact "
    "transforms, bypasses free-pair moments and the float layer.",
    "pair-verification": "build_free_pair plus one identity suite per request: loads "
    "free_pair_moment (a walk over NC(n)) and verify, with words on both sides of the "
    "NC cache limit (n <= 10); orders stay <= 12, so transform-only changes should not move it.",
    "float-analytic": "one float report per law over the six types and their edges: loads "
    "numerics and the float side of meixner, and runs the cumulants/meixner code of "
    "exact-ladder on floats.",
    "cli-cold": "a fresh CLI process per request on the README command lines at orders <= 10 "
    "plus exit-2 controls: only interpreter start, import and cli work move it.",
}

MOVES = {
    "import.*": {"moves": ["setup_s"], "on": ["exact-ladder", "pair-verification",
                                              "float-analytic", "cli-cold"],
                 "also": "latency_p50_ms, latency_tail_ms and throughput_rps on cli-cold"},
    "cli.*": {"moves": ["latency_p50_ms", "latency_tail_ms", "throughput_rps"],
              "on": ["cli-cold"], "no_change": ["exact-ladder", "pair-verification",
                                                "float-analytic"]},
    "ncpart.*": {"moves": ["throughput_rps", "latency_tail_ms", "peak_rss_mb"],
                 "on": ["exact-ladder"], "no_change": ["float-analytic", "cli-cold"],
                 "also": "pair-verification through verify_moment_recursion (nc_le2 cumulants)"},
    "cumulants.{cumulants_to_moments,moments_to_cumulants,q_cumulants}.*": {
        "moves": ["throughput_rps", "latency_tail_ms"], "on": ["exact-ladder"],
        "also": "the float share of float-analytic; small on pair-verification"},
    "cumulants.free_pair_moment.*": {
        "moves": ["throughput_rps", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb"],
        "on": ["pair-verification"], "no_change": ["exact-ladder", "float-analytic"]},
    "meixner.{moments,cumulants.*}.*": {"moves": ["throughput_rps"],
                                        "on": ["exact-ladder", "float-analytic"]},
    "meixner.{density,atoms,cauchy_transform,r_transform,moment_generating}.*": {
        "moves": ["latency_p50_ms", "throughput_rps"], "on": ["float-analytic"]},
    "verify.*": {"moves": ["latency_p50_ms", "throughput_rps", "failed"],
                 "on": ["pair-verification"]},
    "numerics.*": {"moves": ["latency_p50_ms", "throughput_rps", "latency_tail_ms"],
                   "on": ["float-analytic"], "no_change": ["exact-ladder", "pair-verification"]},
    "*.raised": {"moves": ["failed"], "on": ["exact-ladder", "pair-verification",
                                            "float-analytic", "cli-cold"]},
    "trace.*": {"moves": [], "on": [], "also": "tracing cost and coverage only"},
}

NOTES = [
    "Every workload is a closed loop with one caller and no queue, so waiting time is zero "
    "by construction and is not reported.",
    "Self times are shares of trace.traced_wall_s: a layer's self time is its span minus the "
    "child spans it covers, divided by the traced wall time.",
    "Spans are recorded from outside the library, around public functions only.  The "
    "enumeration free_pair_moment does through the private ncpart._nc_zero stays in "
    "cumulants.free_pair_moment's self time; spans inside the library are later work.",
    "End-to-end times are seconds on a reference host: each latency is its wall time times "
    "ref / (mean of a host-speed probe timed right before and after it).  The probe is "
    "harness.cpu_kernel (stdlib Fraction and dict work, ref 0.5 ms) for the in-process "
    "workloads and harness.import_kernel (a child interpreter importing numpy, ref 0.15 s) "
    "for cli-cold and for the start-and-import part of setup_s.  A shared host can change "
    "speed by 1.4x and more within seconds and for minutes at a time; the probes cancel "
    "most of it.  No "
    "library change can speed a probe up.  Traced runs report raw wall times.",
    "throughput_rps is requests / sum of rescaled latencies of the timed phase.",
    "failed_frac (failed / attempted) is printed by every untraced run but is not a "
    "BENCHMARK.json metric, because it is 0 on correct code; the JSON line carries "
    "'failed' and 'attempted' instead.",
]


def describe(name):
    wl = importlib.import_module(run.WORKLOADS[name])
    inputs = wl.prepare(1, os.getcwd(), run.child_env())
    requests = wl.epoch(inputs)
    words = Counter(n for req in requests for n in req.words)
    total_words = sum(words.values())
    controls = sum(req.control is not None for req in requests)
    return {
        "why": WHY[name],
        "loop": "closed, one caller, one request in flight",
        "epoch_requests": len(requests),
        "controls_per_epoch": controls,
        "op_mix": dict(sorted(Counter(req.kind for req in requests).items())),
        "order_histogram": {str(k): v for k, v in sorted(
            Counter(req.order for req in requests if req.order is not None).items())},
        "exact_share": sum(req.exact for req in requests) / len(requests),
        "float_share": sum(not req.exact for req in requests) / len(requests),
        "free_pair_words": {
            "per_epoch": total_words,
            "length_histogram": {str(k): v for k, v in sorted(words.items())},
            "beyond_nc_cache_share": (sum(v for k, v in words.items() if k > NC_CACHE_LIMIT)
                                      / total_words if total_words else 0.0),
        },
    }


def main():
    out = {
        "workloads": {name: describe(name) for name in run.WORKLOADS},
        "per_layer_moves": MOVES,
        "notes": NOTES,
    }
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
