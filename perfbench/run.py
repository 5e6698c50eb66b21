#!/usr/bin/env python3
"""Build and run the SecureCloud benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds perfbench/ (which
compiles the stack from src/) into .bench_build/, or into
$CARGO_TARGET_DIR when that is set, then runs the perfbench binary with
the given arguments. Build output goes to stderr, so the last line on
stdout is the binary's JSON result. With --trace 1 the traced run's spans
are written to <build dir>/spans/<workload>-seed<N>.jsonl.

Exits nonzero without a result when the build fails (for instance when
src/ is missing) or when the benchmark does.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def arg_value(args, name):
    for i, arg in enumerate(args[:-1]):
        if arg == name:
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 3
    if arg_value(args, "--trace") == "1" and "--spans" not in args:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        name = f"{arg_value(args, '--workload')}-seed{arg_value(args, '--seed')}.jsonl"
        args += ["--spans", os.path.join(spans, name)]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
