"""toricreg benchmark: one workload run, metrics as JSON on the last line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout that holds src/toricreg.  Workloads:
enum-projective, product-p21, degset, ideal-stream (see README.md).
Each run compiles the package's bytecode (the build), starts a fresh
worker process for the workload, and with --trace 0 reports the
end-to-end metrics; with --trace 1 the worker adds a traced pass and
reports the per-layer metrics instead.  Set-up is measured in the worker
and in SETUP_PROBES extra processes that stop once their inputs are
ready; setup_s is the median of those samples.  Times are nominal
seconds: measured times rescaled to a fixed host speed (hostmeter.py).

Exit status: 0 with a result line; 1 when a worker fails or times out;
2 when the checkout holds no toricreg sources.
"""

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6
DEADLINE_S = 170

sys.path.insert(0, str(HERE))
from layers import metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def worker(args, deadline, setup_only=False):
    argv = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("error: worker exceeded the run deadline", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"error: worker exited with status {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description="toricreg benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    package = ROOT / "src" / "toricreg"
    if not (package / "cli.py").is_file():
        print(f"error: no toricreg sources under {package}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(package), quiet=1):
        print("error: toricreg sources do not compile", file=sys.stderr)
        return 1

    probes = 0 if args.trace else SETUP_PROBES
    setups = []

    def probe(count):
        for _ in range(count):
            sample = worker(args, deadline, setup_only=True)
            if sample is None:
                return False
            setups.append(sample["setup_s"])
        return True

    # half the probes before the workload and half after, so that a slow
    # spell of the host does not set every sample of the run
    if not probe(probes // 2):
        return 1
    result = worker(args, deadline)
    if result is None or not probe(probes - probes // 2):
        return 1
    setups.append(result["setup_s"])

    if args.trace:
        units = metric_units()
    else:
        result["metrics"]["setup_s"] = statistics.median(setups)
        units = END_TO_END_UNITS
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    for line in result.get("report", []):
        print(line)
    samples = result["samples"]

    def show(values):
        return " ".join(f"{x:.3f}" for x in values)

    print(f"workload {args.workload} seed {args.seed}: {len(samples['walls'])} passes of "
          f"{show(samples['walls'])} nominal s ({show(samples['raw_walls'])} s measured, "
          f"host slowdown {result['slowdown']:.2f}), {samples['requests']} untraced "
          f"request latencies, {len(setups)} set-ups of {show(sorted(setups))} nominal s")
    for name, metric in metrics.items():
        print(f"  {name:<52} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
