#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size.

    python3 perfbench/selftest.py

Run from the repository root.  For every workload it runs the benchmark
twice at smoke size (once untraced, once traced, same seed) and checks:

  * both runs exit 0 with zero failed operations;
  * the untraced run emits exactly the end_to_end metrics of
    BENCHMARK.json with their units, every value above zero; the traced
    run emits exactly the per_layer metrics with their units;
  * the identity replay's FNVs and det_s repeat exactly across the runs;
  * the service generator never has more than 4 requests outstanding;
  * the traced run wrote a Chrome trace-event file.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = "7"


def run(workload, trace, trace_out):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", SEED, "--seconds", "2", "--trace", trace,
           "--smoke", "--trace-out", trace_out]
    done = subprocess.run(cmd, capture_output=True, text=True)
    return done.returncode, done.stdout.strip().splitlines(), done.stderr


def main():
    spec = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    for w in [x["name"] for x in spec["workloads"]]:
        trace_out = os.path.join(target, "traces", f"selftest-{w}.json")
        identity = {}
        for trace in ("0", "1"):
            rc, lines, err = run(w, trace, trace_out)
            tag = f"{w} --trace {trace}"
            if rc != 0 or not lines:
                problems.append(f"{tag}: exit {rc}\n{err[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{tag}: {result['failed']} failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got if k in expected[trace]
                               and got[k] != expected[trace][k])
                problems.append(f"{tag}: metric mismatch missing={missing} "
                                f"extra={extra} wrong_unit={wrong}")
            if trace == "0":
                zero = [k for k, v in result["metrics"].items()
                        if not v["value"] > 0]
                if zero:
                    problems.append(f"{tag}: non-positive metrics {zero}")
            identity[trace] = [l for l in lines if l.startswith("identity:")]
            for l in lines:
                m = re.search(r"max_outstanding=(\d+)", l)
                if m and int(m.group(1)) > 4:
                    problems.append(f"{tag}: {m.group(1)} requests "
                                    "outstanding")
            if trace == "1":
                try:
                    events = json.load(open(trace_out))["traceEvents"]
                    if not events:
                        problems.append(f"{tag}: empty trace")
                except (OSError, ValueError, KeyError) as e:
                    problems.append(f"{tag}: bad trace file: {e}")
        if len(identity) == 2 and (identity["0"] != identity["1"]
                                   or not identity["0"]):
            problems.append(f"{w}: identity replay differs between runs")
        print(f"selftest: {w} done", file=sys.stderr)
    for p in problems:
        print("selftest FAIL:", p)
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
