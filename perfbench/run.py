#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 10 --trace 0

Everything the build and the run write goes under .bench_build/ (or
$CARGO_TARGET_DIR when set) in the repository root. The last line of
standard output is the workload's JSON result; see perfbench/README.md.
"""
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.isfile(os.path.join(root, "go.mod")):
        sys.exit("perfbench: no go.mod at %s: the program's sources are missing" % root)
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        # The go command keeps its telemetry counters under the user
        # config directory; keep them in the build directory too.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
        CGO_ENABLED="0",
        PERFBENCH_GIT_SHA=git_sha(root),
    )
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit("perfbench: build failed: %s" % e)
    if built.returncode != 0:
        sys.exit("perfbench: build failed (exit %d)" % built.returncode)
    sys.stdout.flush()
    try:
        ran = subprocess.run([binary, "--out", build] + sys.argv[1:], cwd=root, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %ds" % RUN_TIMEOUT_S)
    sys.exit(ran.returncode)


def git_sha(root):
    """The checkout's commit, or a note that it has none."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "none (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


if __name__ == "__main__":
    main()
