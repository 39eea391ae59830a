#!/usr/bin/env python3
"""Builds and runs the limcap benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and compiles perfbench/ (which compiles the
library from src/) into the build directory, `$CARGO_TARGET_DIR` when set
and `.bench_build` otherwise; later calls rebuild incrementally. The
benchmark's own output passes through unchanged: human-readable lines,
then one JSON result object as the last line. Build output goes to
standard error. Any failure exits non-zero without printing a result.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_quietly(cmd):
    """Runs a build step, sending its output to stderr; True on success."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no src/ tree next to perfbench/; nothing to build",
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if not run_quietly(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    return run_quietly(["cmake", "--build", out, "-j", jobs])


def revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main(argv):
    out = build_dir()
    if not build(out):
        print("run.py: build failed", file=sys.stderr)
        return 1
    if argv == ["--selftest"]:
        return subprocess.run([os.path.join(out, "perfbench_selftest")],
                              cwd=ROOT).returncode
    cmd = [os.path.join(out, "limcap_perfbench")] + argv
    cmd += ["--revision", revision()]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not valid_result(lines[-1]):
        sys.stderr.write(proc.stdout)
        print("run.py: the benchmark failed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


def valid_result(line):
    """True when `line` is the result object the benchmark promises."""
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and
            set(result) == {"correct", "attempted", "failed", "metrics"} and
            isinstance(result["metrics"], dict))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
