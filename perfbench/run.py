#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The harness is built in release mode into
$CARGO_TARGET_DIR (default `.bench_build`); its last line of output is the
run's JSON result. A failed build exits non-zero without printing a result.
The harness runs pinned to one CPU, so that its reference-speed thread
shares the workload's core (see harness/src/speed.rs).
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "harness", "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: harness build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "ccmatic-perfbench")
    cpu = max(os.sched_getaffinity(0))
    return subprocess.run([exe] + sys.argv[1:], env=env,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu})).returncode


if __name__ == "__main__":
    sys.exit(main())
