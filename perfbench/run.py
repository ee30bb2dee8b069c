#!/usr/bin/env python3
"""Build and run the BLU fleet benchmark.

One workload per process:

    python3 perfbench/run.py --workload serve_phased --seed 1 --seconds 35 --trace 0

Every workload in turn, each in a fresh process, with a summary table:

    python3 perfbench/run.py --all [--seed 1] [--seconds 35] [--trace 0]

Run from anywhere; the benchmark works from the repository root. It
builds `perfbench/` (its own Cargo package) into `$CARGO_TARGET_DIR`
(default `.bench_build`), pins `RAYON_NUM_THREADS` to one less than the
CPU count (at least 1), so that the daemon's engine and connection
threads and the two clients keep a CPU of their own, and sets
`RUST_BACKTRACE=0`. The last line of a single run's standard output
is its JSON result; the exit code is nonzero when the build fails or the
correctness gate fails.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["serve_phased", "serve_churn", "chaos_storm"]


def revision():
    """Git revision of the checkout, else a digest of the sources."""
    try:
        if not (ROOT / ".git").exists():
            raise OSError("not a git checkout")
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ["Cargo.toml", "crates", "perfbench/src", "perfbench/Cargo.toml"]:
        base = ROOT / top
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for path in files:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:12]


def environment():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["RAYON_NUM_THREADS"] = str(max(1, len(os.sched_getaffinity(0)) - 1))
    env["RUST_BACKTRACE"] = "0"
    env["BLU_BENCH_REVISION"] = revision()
    return env


def build(env):
    """Build the benchmark; returns the binary's path or None."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return None
    binary = Path(env["CARGO_TARGET_DIR"]) / "release" / "blu-perfbench"
    return binary if binary.is_absolute() else ROOT / binary


def run_one(binary, env, args, capture=False):
    cmd = [str(binary)] + args
    if not capture:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=175).returncode, None
    done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=175, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, result


def option(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def run_all(binary, env, argv):
    seed = option(argv, "--seed", "1")
    seconds = option(argv, "--seconds", "35")
    trace = option(argv, "--trace", "0")
    results, failed = {}, False
    for w in WORKLOADS:
        print(f"\n=== {w} ===", flush=True)
        code, result = run_one(binary, env, ["--workload", w, "--seed", seed,
                                             "--seconds", seconds, "--trace", trace], True)
        failed |= code != 0 or result is None or not result["correct"]
        results[w] = result
    names = []
    for result in results.values():
        for name, m in (result or {}).get("metrics", {}).items():
            if (name, m["unit"]) not in names:
                names.append((name, m["unit"]))
    print("\n" + f"{'metric':<34} {'unit':<10}" + "".join(f"{w:>16}" for w in WORKLOADS))
    for name, unit in names:
        row = f"{name:<34} {unit:<10}"
        for w in WORKLOADS:
            m = (results[w] or {}).get("metrics", {}).get(name)
            row += f"{m['value']:>16.6g}" if m else f"{'-':>16}"
        print(row)
    print(f"{'correct':<45}" + "".join(f"{str((r or {}).get('correct')):>16}" for r in results.values()))
    return 1 if failed else 0


def main(argv):
    env = environment()
    binary = build(env)
    if binary is None:
        return 1
    if "--all" in argv:
        return run_all(binary, env, [a for a in argv if a != "--all"])
    code, _ = run_one(binary, env, argv)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
