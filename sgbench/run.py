#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 sgbench/run.py --workload <web-open-loop|swifi-campaign|tracked-invoke>
                           --seed N --seconds S --trace 0|1 [--small]

Run it from the repository root. It configures and builds the `sgbench`
binary (Release) and the simulator libraries it links into `.bench_build/`,
then runs it and passes its output through: a run header, one
`metric <name> <value> <unit>` line per metric, and as the last line the
result JSON. `--trace 1` also writes the benchmark's spans as Chrome
trace_event JSON to `.bench_build/spans/`. See sgbench/README.md.

The benchmark runs pinned to one host CPU, the lowest this process may use,
and with SG_PIN_CPU=1 unless the environment sets SG_PIN_CPU. The simulator
hands the one virtual CPU between host threads; spread over several host
CPUs, every handoff is a cross-CPU wakeup, and on a shared VM that made
host time up to twice as long and its run-to-run spread several times wider.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "sgbench"
WORKLOADS = ("web-open-loop", "swifi-campaign", "tracked-invoke")


def fail(message):
    print(f"sgbench: {message}", file=sys.stderr)
    return 1


def build():
    """Configures once, then builds incrementally. Build output goes to
    stderr so the last line of stdout stays the result."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        return fail(f"simulator sources not found under {ROOT / 'src'}; "
                    "run from a full checkout of the repository")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "sgbench", "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            return fail("build failed: " + " ".join(step))
    return 0


def git_sha():
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--small", action="store_true",
                        help="tiny units and probes (the smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")

    status = build()
    if status != 0:
        return status

    command = [str(BUILD / "sgbench"), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.small:
        command.append("--small")
    if args.trace == "1":
        spans = ROOT / ".bench_build" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        command += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.json")]
    env = dict(os.environ)
    env.setdefault("SG_PIN_CPU", "1")
    env["SGBENCH_GIT_SHA"] = git_sha()
    cpu = min(os.sched_getaffinity(0))
    return subprocess.run(command, env=env,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu})).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
