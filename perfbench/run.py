#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is the Go program in this directory, a module of its own
that builds against the repository's module one directory up. It is built
into .bench_build (or $CARGO_TARGET_DIR), with the Go build cache and all
Go tool state kept there too, and then run from the checkout root. The
last line of its standard output is one JSON object with the results;
this script passes the output through and exits with the program's exit
code. With --trace 1 the sampled span trees are written to
<build dir>/trace/<workload>-seed<seed>.jsonl.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = os.path.abspath(build)
    gohome = os.path.join(build, "gohome")
    for d in (build, gohome):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOENV": "off",
        "GOWORK": "off",
        # Keep the Go command's own state (telemetry, config) inside the
        # checkout.
        "HOME": gohome,
        "XDG_CONFIG_HOME": os.path.join(gohome, "config"),
        "XDG_CACHE_HOME": os.path.join(gohome, "cache"),
    })

    go = shutil.which("go") or "/usr/local/go/bin/go"
    binary = os.path.join(build, "perfbench")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed:\n" + built.stdout)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["--spans", os.path.join(build, "trace", "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        ran = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
