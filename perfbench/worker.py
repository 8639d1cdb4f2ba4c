"""One workload run in a fresh process; run.py starts it.

A single client sends the workload's request list in a closed loop, one
`toricreg.cli.main(argv)` call at a time with stdout captured, and
repeats the list while another pass fits in --seconds of measured time.
Outputs are checked after each pass, outside the timed region.  With
--trace 1 a further pass runs under the outside-in tracer and yields the
per-layer metrics; its outputs must match the untraced ones byte for byte.

Times are nominal seconds (see hostmeter.py); the host meter runs from
before `import toricreg.cli` to the end of the run.
The last stdout line is a JSON object for run.py.
"""

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from hostmeter import WINDOW_S, HostMeter


def send(requests, meter, tracer=None):
    """One pass over the list: (mark before and after each request, [(code, stdout)])."""
    import toricreg.cli

    marks, outputs = [], []
    for index, argv in enumerate(requests):
        out = io.StringIO()
        began = meter.mark()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                if tracer is None:
                    code = toricreg.cli.main(argv)
                else:
                    with tracer.request(index):
                        code = toricreg.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
        except Exception:  # a request that raises counts as failed; keep going
            traceback.print_exc()
            code = -1
        marks.append((began, meter.mark()))
        outputs.append((code, out.getvalue()))
    return marks, outputs


class Pass:
    """Timings of one pass in nominal seconds; build it only after the
    meter has sampled the window that follows the pass."""

    def __init__(self, meter, marks):
        first, last = marks[0][0], marks[-1][1]
        self.latencies = [meter.nominal(a, b) for a, b in marks]
        self.wall = meter.nominal(first, last)
        self.raw_wall = (last[0] - first[0]) - (last[1] - first[1])


def verb_seconds(requests, latencies):
    out = defaultdict(float)
    for argv, seconds in zip(requests, latencies):
        out[argv[0]] += seconds
    return out


def end_to_end(walls, latencies):
    """Untraced metrics of the worker; run.py adds setup_s."""
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "wall_s": statistics.median(walls),
        "req_p50_ms": 1e3 * statistics.median(latencies),
        "req_p90_ms": 1e3 * deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def report_failures(label, failures, requests):
    for index, reason in failures:
        print(f"FAIL {label} {' '.join(requests[index])}: {reason}", file=sys.stderr)


def run(args, meter):
    root = Path(args.root)
    sys.path.insert(0, str(root / "src"))
    began = meter.mark()
    import toricreg.cli
    import workloads

    items, requests = workloads.build(args.workload, args.seed)
    ready = meter.mark()
    package = Path(toricreg.cli.__file__).resolve().parent
    if package != (root / "src" / "toricreg").resolve():
        print(f"error: imported toricreg from {package}, not from {root / 'src'}",
              file=sys.stderr)
        return None
    if args.setup_only:
        time.sleep(WINDOW_S)  # let the meter sample the window after set-up
        return {"setup_s": meter.nominal(began, ready)}

    expected = None if items is not None else workloads.load_expected()
    passes = []
    attempted = failed = 0
    measured = 0.0
    while True:
        marks, outputs = send(requests, meter)
        failures = workloads.check(args.workload, items, requests, outputs, expected)
        report_failures("untraced", failures, requests)
        attempted += len(requests)
        failed += len({i for i, _ in failures})
        if not passes:
            reference = outputs
        passes.append(marks)
        first, last = marks[0][0], marks[-1][1]
        measured += (last[0] - first[0]) - (last[1] - first[1])
        if measured * (len(passes) + 1) / len(passes) > args.seconds:
            break

    traced = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer(clock=meter.clock)
        tracer.install()
        try:
            traced_marks, traced = send(requests, meter, tracer)
        finally:
            tracer.restore()
    time.sleep(WINDOW_S)  # let the meter sample the window after the last pass
    passes = [Pass(meter, marks) for marks in passes]
    walls = [p.wall for p in passes]
    latencies = [x for p in passes for x in p.latencies]
    result = {"setup_s": meter.nominal(began, ready), "attempted": attempted,
              "failed": failed, "slowdown": meter.slowdown(),
              "samples": {"walls": walls, "raw_walls": [p.raw_wall for p in passes],
                          "requests": len(latencies)}}
    if traced is None:
        result["metrics"] = end_to_end(walls, latencies)
        return result

    failures = workloads.check(args.workload, items, requests, traced, expected)
    failures += [(i, "traced output differs from the untraced output")
                 for i, (a, b) in enumerate(zip(reference, traced)) if a != b]
    report_failures("traced", failures, requests)
    result["attempted"] += len(requests)
    result["failed"] += len({i for i, _ in failures})
    median_verbs = {verb: statistics.median(
        verb_seconds(requests, p.latencies).get(verb, 0.0) for p in passes)
        for verb in layers.VERBS}
    result["metrics"] = layers.per_layer(
        tracer, median_verbs, statistics.median(walls), Pass(meter, traced_marks).wall)
    result["report"] = layers.phase_table(tracer, requests)
    spans_path = root / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(spans_path)
    result["report"].append(f"{len(tracer.spans)} spans written to {spans_path.relative_to(root)}")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout holding src/toricreg")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once the inputs are ready; report the set-up time")
    args = parser.parse_args(argv)
    meter = HostMeter()
    meter.start()
    try:
        result = run(args, meter)
    finally:
        meter.stop()
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
