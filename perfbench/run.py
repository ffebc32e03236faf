#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload steady-read --seed 1 --seconds 10 --trace 0

The simulator and the benchmark (perfbench/bench.ml) are built with dune in
the release profile, then the benchmark executable runs the workload. Its
standard output is passed through; the last line is the JSON result. Traced
runs (--trace 1) also write Chrome trace_event JSON into perfbench/out/.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    root = os.getcwd()
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, needed)):
            fail("run from the repository root: %s is missing" % needed)
    # The shared dune cache lives outside the checkout: keep the build in it.
    build_env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "./perfbench/bench.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=build_env)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        fail("build failed")
    out_dir = os.path.join(root, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ)
    # The runtime-events ring of a traced run lives here, not in the cwd.
    env["OCAML_RUNTIME_EVENTS_DIR"] = out_dir
    env.pop("OCAML_RUNTIME_EVENTS_PRESERVE", None)
    env.pop("OCAMLRUNPARAM", None)
    proc = subprocess.run([EXE] + sys.argv[1:] + ["--out", out_dir], env=env)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
