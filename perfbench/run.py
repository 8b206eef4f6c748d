#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload hot_reuse --seed 1 --seconds 10 --trace 0

Configures perfbench/ (which pulls in the cne library one directory up) in
Release under .bench_build, or under $CARGO_TARGET_DIR when set, builds the
`perfbench` binary, and runs it with the given arguments plus the source
revision. Build output goes to stderr; the binary's last stdout line is the
result JSON. Exits non-zero without a result when the library sources or
the toolchain are missing.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"


def fail(message):
    print(f"[perfbench] {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures (first run only) and builds the binary; returns its path."""
    if not (ROOT / "src" / "service" / "query_service.h").is_file():
        fail(f"cne library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found on PATH")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return out / "perfbench"


def commit():
    """The git commit of the checkout, or "unknown" outside a git repo."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the sources the binary is built from, so a run names
    the code it measured even where no git metadata exists."""
    files = [ROOT / "CMakeLists.txt", BENCH_DIR / "CMakeLists.txt"]
    for folder in (ROOT / "src", BENCH_DIR / "src"):
        files += sorted(p for p in folder.rglob("*") if p.is_file())
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    binary = build()
    args = [str(binary), *sys.argv[1:], "--commit", commit(),
            "--source-digest", source_digest()]
    sys.exit(subprocess.run(args, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
