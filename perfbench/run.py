#!/usr/bin/env python3
"""Build the server and the benchmark client from source, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload solve-cold --seed 1 --seconds 20 --trace 0

Every argument is passed to the client (perfbench/bench.ml); see
perfbench/README.md. Build output goes to _build/, run output (server
logs, traces, work fingerprints) to .perfbench/. The last line of
standard output is the client's JSON result; build messages go to
standard error. Exits non-zero, printing no result, when the build
fails.
"""

import os
import signal
import subprocess
import sys

BUILD_TARGETS = ["./bin/schedtool.exe", "./perfbench/bench.exe"]
CLIENT = os.path.join("_build", "default", "perfbench", "bench.exe")
SERVER = os.path.join("_build", "default", "bin", "schedtool.exe")
OUT = ".perfbench"
# the client's own runs end well inside this; past it, stop it
CLIENT_TIMEOUT_S = 170


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", *BUILD_TARGETS],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    # own process group: the client and the server it spawns can be
    # stopped together
    client = subprocess.Popen(
        [CLIENT, "--schedtool", SERVER, "--out", OUT, *sys.argv[1:]],
        start_new_session=True,
    )
    try:
        return client.wait(timeout=CLIENT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # SIGTERM first: the client stops its server and exits
        os.killpg(client.pid, signal.SIGTERM)
        try:
            client.wait(timeout=5)
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(client.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        client.wait()
        print("perfbench: client timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
