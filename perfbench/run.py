#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload shuffle_128x4 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --pin     # re-pin perfbench/reference.json

Run from the repository root. Builds the `perfbench` package (release,
offline) into $CARGO_TARGET_DIR (default perfbench/target), prints the
host fingerprint, then runs the benchmark binary in its own process:
SIM_THREADS=1 for timed runs, 2 for traced runs. The binary's last
stdout line is the JSON result; its exit code is passed through.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def output_of(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, cwd=HERE).stdout.strip()
    except OSError:
        return ""


def fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = output_of(["git", "rev-parse", "--short=12", "HEAD"]) or "unknown"
    return (f"# host nproc={os.cpu_count()} cpu={model!r}"
            f" rustc={output_of(['rustc', '--version'])!r} commit={commit}")


def main():
    args = sys.argv[1:]
    binary = build()
    if args == ["--pin"]:
        doc = subprocess.run([binary, "--pin"], stdout=subprocess.PIPE, text=True, check=True,
                             env=dict(os.environ, SIM_THREADS="2")).stdout
        with open(os.path.join(HERE, "reference.json"), "w") as f:
            f.write(doc)
        return 0
    trace = "--trace" in args and args[args.index("--trace") + 1:][:1] != ["0"]
    print(fingerprint(), flush=True)
    env = dict(os.environ, SIM_THREADS="2" if trace else "1")
    return subprocess.run([binary] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
