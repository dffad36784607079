#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload mesh-k64 --seed 1 --seconds 30 --trace 0

Run from the repository root.  Configures and builds perfbench/ (the
partitioner library from src/ plus the benchmark binary) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs the
binary with the given arguments.  Its stdout is passed through;
its last line is the JSON result.  Build output goes to stderr.  The exit
status is the binary's, or 2 when the build fails (no result is printed).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            print(f"perfbench: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    exe = os.path.join(build_dir, "perfbench")
    return exe if os.path.exists(exe) else None


def main():
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_root = os.path.join(root, target)
    exe = build(os.path.join(build_root, "perfbench"))
    if exe is None:
        return 2
    args = list(sys.argv[1:])
    if "--trace-out" not in args and "--workload" in args[:-1]:
        # One trace file per workload: the latest traced run's.
        workload = args[args.index("--workload") + 1]
        args += ["--trace-out", os.path.join(build_root, "traces",
                                             workload + ".json")]
    return subprocess.run([exe] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
