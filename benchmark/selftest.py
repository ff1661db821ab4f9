"""Self-test of the benchmark.  Run from the repository root:

    python3 benchmark/selftest.py

For every workload, a one-epoch run (--seconds 1) untraced and traced must
print every metric BENCHMARK.json names (and failed_frac) with its unit,
catch every negative control, answer every request correctly, and leave
the library's own function objects in place.  It also checks that
BENCHMARK.json lists the per-layer metrics run.py reports, that
traffic.json is what describe.py prints, and that the benchmark exits
non-zero, printing no result, where there are no sources to run.
Exits 1 if any check fails.
"""

import json
import os
import re
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

RUN = [sys.executable, os.path.join(BENCH_DIR, "run.py")]
failures = []


def expect(ok, what):
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        failures.append(what)


def run_once(workload, trace):
    proc = subprocess.run(RUN + ["--workload", workload, "--seed", "1", "--seconds", "1",
                                 "--trace", str(trace)], capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1]) if lines else None


def main():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER),
           "BENCHMARK.json per_layer matches run.PER_LAYER")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads match run.WORKLOADS")

    described = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "describe.py")],
                               capture_output=True, text=True, timeout=300).stdout
    with open(os.path.join(BENCH_DIR, "traffic.json")) as fh:
        expect(json.loads(described) == json.load(fh), "traffic.json is describe.py's output")

    for workload in run.WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, lines, result = run_once(workload, trace)
            tag = f"{workload} --trace {trace}"
            expect(code == 0 and result is not None, f"{tag}: exits 0 with a result line")
            if result is None:
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result has exactly correct/attempted/failed/metrics")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{tag}: every answer correct")
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(emitted == {m["name"]: m["unit"] for m in listed},
                   f"{tag}: emits every listed metric with its unit")
            text = "\n".join(lines[:-1])
            if trace == 0:
                expect(all(re.search(rf"^\s+{name}\s", text, re.M)
                           for name in list(emitted) + ["failed_frac"]),
                       f"{tag}: prints the six end-to-end metrics by name")
            caught = re.search(r"controls caught: (\d+) of (\d+)", text)
            expect(caught is not None and caught.group(1) == caught.group(2) != "0",
                   f"{tag}: every control caught")
            expect("library functions are the original objects: yes" in text,
                   f"{tag}: library functions are the original objects afterwards")

    bare = os.path.join(".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "benchmark"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "exact-ladder",
                               "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
                              capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without sources: non-zero exit and no result")
    finally:
        shutil.rmtree(bare)

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
