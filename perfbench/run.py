#!/usr/bin/env python3
"""Build and run the two-clock benchmark of the Aurora simulation.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>] [--trace <0|1>]
    python3 perfbench/run.py --selftest [--seed <n>]

The benchmark is its own Cargo package (perfbench/Cargo.toml) that builds
against the repository's crates by path. It is built in release mode into
$CARGO_TARGET_DIR, or .bench_build at the repository root when that is
unset. Build output goes to stderr; a failed build exits non-zero and prints
no result.

One workload per run: the last stdout line is the JSON result. `all` runs
every workload in turn, prints every metric by name and unit, and exits
non-zero if any workload fails its checks. `--selftest` runs each workload
twice in separate processes with one seed and checks that both print the
same digest of their simulated-time results.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["oltp-ladder", "read-miss", "sessions-32k", "dst-moderate"]


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml"),
    ]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def run_one(binary, args, capture=False):
    """Run the benchmark binary; returns (exit code, stdout or None)."""
    proc = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE if capture else None,
                          text=True)
    return proc.returncode, proc.stdout


def option(argv, flag, default):
    if flag in argv:
        i = argv.index(flag)
        if i + 1 < len(argv):
            return argv[i + 1]
    return default


def main(argv):
    workload = option(argv, "--workload", None)
    if "--selftest" not in argv and workload is None:
        sys.exit(__doc__)
    binary = build()
    seed = option(argv, "--seed", "1")
    seconds = option(argv, "--seconds", "10")
    trace = option(argv, "--trace", "0")

    if "--selftest" in argv:
        ok = True
        for w in WORKLOADS:
            digests = []
            for _ in range(2):
                code, out = run_one(binary, ["--workload", w, "--seed", seed, "--seconds", "0",
                                             "--trace", "0"], capture=True)
                if code != 0:
                    sys.exit(f"selftest: {w} failed its checks")
                digests.append([l for l in out.splitlines() if l.startswith("digest ")])
            same = digests[0] == digests[1] and digests[0]
            ok = ok and bool(same)
            print(f"selftest {w} seed {seed}: {'same digest' if same else 'DIGESTS DIFFER'} "
                  f"{digests[0]} {digests[1] if not same else ''}")
        sys.exit(0 if ok else 1)

    if workload == "all":
        failed = []
        for w in WORKLOADS:
            code, _ = run_one(binary, ["--workload", w, "--seed", seed, "--seconds", seconds,
                                       "--trace", trace])
            if code != 0:
                failed.append(w)
        if failed:
            sys.exit(f"perfbench: failed: {', '.join(failed)}")
        return

    code, _ = run_one(binary, argv)
    sys.exit(code)


if __name__ == "__main__":
    main(sys.argv[1:])
