#!/usr/bin/env python3
"""Build `unitsd` and the perfbench driver from source, then run one benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

Both release builds go to $CARGO_TARGET_DIR (default `.bench_build`). Build
output goes to stderr; the driver's report, ending in one JSON line, goes to
stdout. A failed build exits non-zero without printing a result.

The driver, and the `unitsd` processes it spawns, run pinned to one CPU: the
load is one request or program at a time, and on one CPU the hand-off between
driver and daemon is a local context switch rather than a cross-CPU wake-up,
whose cost depends on the host more than on the program.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cargo_build(args, env):
    """Runs one offline release build, its output sent to stderr."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode


def pin_to_one_cpu():
    """Restricts the calling process to the highest CPU it may use."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main():
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("perfbench: no Cargo.toml at the checkout root", file=sys.stderr)
        return 2
    for args in (["-p", "units-serve", "--bin", "unitsd"],
                 ["--manifest-path", os.path.join("perfbench", "Cargo.toml")]):
        code = cargo_build(args, env)
        if code != 0:
            print("perfbench: build failed", file=sys.stderr)
            return code
    release = os.path.join(target, "release")
    driver = [os.path.join(release, "perfbench"),
              "--unitsd", os.path.join(release, "unitsd"),
              # Relative to the checkout root, so socket paths stay short.
              "--work-dir", os.path.join(".bench_build", "perfbench-work")]
    return subprocess.run(driver + sys.argv[1:], cwd=ROOT,
                          preexec_fn=pin_to_one_cpu).returncode


if __name__ == "__main__":
    sys.exit(main())
