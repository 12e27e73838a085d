#!/usr/bin/env python3
"""Build the pipeline benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --list

Builds `perfbench/` in release mode (offline; target directory
`$CARGO_TARGET_DIR`, default `.bench_build`), then runs it with the given
arguments. Build output goes to stderr; the benchmark's last stdout line is
its JSON result. A traced run (`--trace 1`) also writes its spans as
Perfetto JSON under `<target>/perfbench-traces/`. Exits non-zero, without a
result, if the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tool_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def arg_value(args, flag, default):
    return args[args.index(flag) + 1] if flag in args[:-1] else default


def main():
    args = sys.argv[1:]
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    env["PERFBENCH_RUSTC"] = tool_output(["rustc", "-V"])
    # Only this checkout's own history names the commit measured.
    env["PERFBENCH_COMMIT"] = (tool_output(["git", "rev-parse", "HEAD"])
                               if os.path.exists(os.path.join(ROOT, ".git")) else "unknown")
    if arg_value(args, "--trace", "0") == "1" and "--trace-out" not in args:
        name = "%s-seed%s.json" % (arg_value(args, "--workload", "run"), arg_value(args, "--seed", "default"))
        args += ["--trace-out", os.path.join(target, "perfbench-traces", name)]
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
