#!/usr/bin/env python3
"""Builds and runs the end-to-end forensic-pipeline benchmark.

Run from the root of a checkout:

    python3 pipebench/run.py --workload <investigate|reaudit|recover|fleet>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 pipebench/run.py --self-test

The benchmark is compiled from this directory's CMake package, which builds
the repository's src/ modules it drives, as a Release build under
$CARGO_TARGET_DIR/pipebench (default .bench_build/pipebench). Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
Exits non-zero without a result when the build fails, for example when the
checkout holds no sources.
"""

import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent


def log(msg):
    print(f"pipebench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; returns the exit code."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build(build_dir, target):
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_quiet(cmd) != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    return run_quiet(["cmake", "--build", str(build_dir), "--target", target,
                      "-j", jobs]) == 0


def commit_id(root):
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for sub in ("src", BENCH_DIR.name):
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main(argv):
    root = pathlib.Path.cwd()
    target_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))
    build_dir = (root / target_dir / "pipebench").resolve()
    self_test = argv == ["--self-test"]
    target = "pipebench_stats_test" if self_test else "pipebench"
    if not build(build_dir, target):
        log("build failed")
        return 1
    binary = build_dir / target
    if not binary.exists():
        log(f"{binary} was not built")
        return 1
    env = dict(os.environ, PIPEBENCH_COMMIT=commit_id(root))
    proc = subprocess.Popen([str(binary)] + ([] if self_test else argv),
                            env=env, cwd=root)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
