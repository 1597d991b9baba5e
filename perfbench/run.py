#!/usr/bin/env python3
"""Build the benchmark binary from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The binary is built with cargo into $CARGO_TARGET_DIR (default
`.bench_build` under the current directory). Build output goes to standard
error, so the last line of standard output is the run's JSON result. With
`--trace 1` the recorded spans are written, one JSON object per line, to
`<target dir>/perfbench-spans/<workload>-seed<n>.jsonl`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def flag(args, name):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    command = [os.path.join(target, "release", "snap-perfbench")] + args
    if flag(args, "--trace") == "1":
        name = "%s-seed%s.jsonl" % (flag(args, "--workload"), flag(args, "--seed"))
        command += ["--spans", os.path.join(target, "perfbench-spans", name)]
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
