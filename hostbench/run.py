#!/usr/bin/env python3
"""Entry point of the BridgeCL host benchmark (see README.md here).

    python3 hostbench/run.py --workload corpus|translate|launch_storm|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the `hostbench` binary from the
repository's sources (Release, under .bench_build/ or $CARGO_TARGET_DIR),
measures set-up time from outside by starting the binary several times,
then runs the workload once. The binary's report lines are passed through;
the last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The exit code is 0 only when every
operation matched its expected value.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("corpus", "translate", "launch_storm")
SETUP_PROBES = 9        # extra set-up-only starts per untraced run
RUN_DEADLINE_S = 170    # a run must end well inside 180 s


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return base.resolve() / "hostbench"


def build(bdir):
    """Configures and builds the optimized benchmark binary."""
    cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (bdir / "CMakeCache.txt").exists():
        cmd += ["-G", "Ninja"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", str(bdir), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return bdir / "hostbench"


class Run:
    """One start of the binary; records when it reported READY."""

    def __init__(self, argv):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        self.ready_s = None
        self.lines = []

    def communicate(self, deadline):
        """Reads every line; kills the process if it outlives `deadline`."""
        watchdog = threading.Timer(max(0.0, deadline - time.perf_counter()),
                                   self.proc.kill)
        watchdog.start()
        try:
            for line in self.proc.stdout:
                if self.ready_s is None and line.strip() == "READY":
                    self.ready_s = time.perf_counter() - self.start
                    continue
                self.lines.append(line.rstrip("\n"))
            return self.proc.wait()
        finally:
            watchdog.cancel()
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()


def run_workload(binary, args, workload, deadline):
    argv = [str(binary), "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--expected", str(HERE / "expected")]
    if args.trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        argv += ["--trace-out",
                 str(traces / f"{workload}-seed{args.seed}.trace.json")]
    argv += args.extra
    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = Run(argv + ["--setup-only"])
            if probe.communicate(deadline) != 0 or probe.ready_s is None:
                return None
            setup.append(probe.ready_s)
    main = Run(argv)
    code = main.communicate(deadline)
    for line in main.lines[:-1]:
        print(line)
    if not main.lines or not main.lines[-1].startswith("RESULT "):
        log(f"{workload}: no result (exit code {code})")
        return None
    result = json.loads(main.lines[-1][len("RESULT "):])
    if not args.trace:
        setup.append(main.ready_s)
        result["metrics"]["setup_s"] = {"value": statistics.median(setup),
                                        "unit": "s"}
        print(f"SETUP samples_s={[round(s, 6) for s in setup]}")
    if (code != 0) != (not result["correct"]):
        log(f"{workload}: exit code {code} disagrees with the result")
        result["correct"] = False
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("extra", nargs="*",
                    help="passed to the binary after `--` (self-tests: "
                         "--ops N --smoke --corrupt-expected)")
    args = ap.parse_args()

    binary = build(build_dir())
    if binary is None:
        log("build failed")
        return 1
    started = time.perf_counter()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        res = run_workload(binary, args, name, started + RUN_DEADLINE_S
                           * (len(names) if args.workload == "all" else 1))
        if res is None:
            return 1
        results[name] = res

    if len(names) == 1:
        final = results[names[0]]
    else:
        # One line per workload above; the combined line names each metric
        # `<workload>.<metric>`.
        for name, res in results.items():
            print(f"WORKLOAD {name} {json.dumps(res)}")
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    out = build_dir() / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(final, indent=1) + "\n")
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
