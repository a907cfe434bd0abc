#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload matrix-small --seed 1 --seconds 10 --trace 0

Builds the `perfbench` package (its own Cargo workspace, with `isacmpd`
built from the repository's source beside it) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs `perfbench` with the same arguments.
Its standard output passes through untouched; the last line is the JSON
result. The run is killed, with everything it started, if it outlives
RUN_TIMEOUT_S.
"""

import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(here, "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    exe = os.path.join(os.path.abspath(target), "release", "perfbench")
    # A session of its own, so a timeout can stop the daemon it spawns too.
    child = subprocess.Popen([exe] + sys.argv[1:], start_new_session=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if child.poll() is None or child.returncode != 0:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
