#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload vqe_uccsd --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run it from the root of a checkout. It configures and builds
perfbench/ (which builds the qcc library from the checkout's own
sources) into .bench_build/, then runs qcc_perfbench, whose last line of
standard output is the result object. Build output goes to standard
error. Result documents and Chrome traces land in .bench_out/.

Environment variables named QCC_* are dropped before qcc_perfbench
starts, so a shell's QCC_THREADS, QCC_STORE_DIR or QCC_SEED cannot
change what is measured.
"""

import argparse
import hashlib
import os
import pathlib
import signal
import subprocess
import sys

ROOT = pathlib.Path.cwd()
HERE = pathlib.Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
BINARY = BUILD / "qcc_perfbench"
GOLDEN = HERE / "golden.json"

# A run must end well inside three minutes, workers included.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def have_sources():
    return (ROOT / "CMakeLists.txt").is_file() and (
        ROOT / "src" / "api" / "experiment.hh"
    ).is_file()


def build():
    """Configure once, then an incremental build of qcc_perfbench."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"]
        )
    steps.append(
        ["cmake", "--build", str(BUILD), "--target", "qcc_perfbench",
         "-j", jobs]
    )
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return BINARY.is_file()


def git_sha():
    """The checkout's commit, or "none" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def source_digest():
    """sha256 over the library and benchmark sources and build files."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", HERE / "CMakeLists.txt"]
    for top in (ROOT / "src", HERE / "src"):
        files += sorted(p for p in top.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def run_benchmark(args):
    env = {k: v for k, v in os.environ.items() if not k.startswith("QCC_")}
    # Own process group: a timeout must take the sweepd workers too.
    proc = subprocess.Popen(
        [str(BINARY)] + args, env=env, start_new_session=True
    )
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"qcc_perfbench exceeded {RUN_TIMEOUT_S} s; killing it")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="tiny version of every workload, twice per seed")
    ap.add_argument("--record", action="store_true",
                    help="rewrite perfbench/golden.json at the default seed")
    a = ap.parse_args()

    if not have_sources():
        log("no qcc sources (CMakeLists.txt, src/) in " + str(ROOT))
        return 2
    if not (a.selftest or a.record or a.workload):
        ap.error("--workload is required")
    if not build():
        return 2

    OUT.mkdir(exist_ok=True)
    if a.selftest:
        return run_benchmark(["--selftest", "--out", str(OUT)])
    if a.record:
        return run_benchmark(["--record", "--golden", str(GOLDEN),
                              "--out", str(OUT)])
    return run_benchmark([
        "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", str(a.trace),
        "--out", str(OUT), "--golden", str(GOLDEN),
        "--git-sha", git_sha(), "--source-digest", source_digest(),
    ])


if __name__ == "__main__":
    sys.exit(main())
