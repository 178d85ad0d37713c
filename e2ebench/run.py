#!/usr/bin/env python3
"""Build and run the DPS end-to-end benchmark.

Usage, from the repository root:

    python3 e2ebench/run.py --workload lu-mt --seed 1 --seconds 40 --trace 0

Builds `e2ebench/` in release mode (into `$CARGO_TARGET_DIR`, default
`.bench_build`), then runs the benchmark binary. The binary's last stdout
line is the result object. The build and the binary each run in a process
group of their own; whatever happens, that group (the binary and any worker
processes it spawned) is killed and waited for before this script exits.
"""

import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A build from scratch may take this long.
BUILD_LIMIT_S = 850
# The binary bounds every operation itself; this is the backstop.
RUN_LIMIT_S = 170

# The process group in flight, for the signal handler.
current = None


def stop_group(child):
    """SIGKILL every process in the child's group, reap the child, and wait
    (bounded) until no process of the group is left."""
    pgid = child.pid
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_group(cmd, limit, **kwargs):
    """Run `cmd` in a new process group; return its exit code, or None if it
    outlived `limit` seconds. The group is stopped either way."""
    global current
    current = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kwargs)
    try:
        code = current.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        code = None
    stop_group(current)
    return code


def on_signal(signum, _frame):
    if current is not None:
        stop_group(current)
    sys.exit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = run_group(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        BUILD_LIMIT_S, env=env, stdout=sys.stderr)
    if build != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(target, "release", "dps-e2ebench")
    code = run_group([exe] + sys.argv[1:], RUN_LIMIT_S, env=env)
    if code is None:
        print(f"e2ebench: no result within {RUN_LIMIT_S} s", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
