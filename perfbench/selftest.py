"""Smoke test of the benchmark itself; takes a few seconds.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Sends a few cheap requests of every
workload, untraced and then traced, and checks that
  - the metric names and units the benchmark emits match BENCHMARK.json;
  - the traced pass leaves every toricreg attribute as it found it, and
    its outputs are byte-identical to the untraced ones;
  - the outputs pass the workload checks (recorded digests included).
Exit status 0 when every check holds, 1 otherwise.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from hostmeter import WINDOW_S, HostMeter  # noqa: E402

STREAM_SMOKE_IDEALS = 4


def smoke_requests():
    """Cheap fixed requests per workload, and the first ideals of a stream."""
    cheap = {"product-p21": (3, 4), "degset": (4,)}
    fixed = [wl.FIXED[name][i] for name, picks in cheap.items() for i in picks]
    items, stream = wl.generate_stream(seed=0)
    return fixed, items[:STREAM_SMOKE_IDEALS], stream[:3 * STREAM_SMOKE_IDEALS]


def main():
    problems = []
    with open(HERE.parent / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        bench = json.load(handle)
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if declared_e2e != run.END_TO_END_UNITS:
        problems.append(f"end_to_end names/units differ: {declared_e2e} vs {run.END_TO_END_UNITS}")
    if declared_layer != layers.metric_units():
        problems.append("per_layer names/units differ: "
                        f"{sorted(set(declared_layer) ^ set(layers.metric_units()))}")
    if {w["name"] for w in bench["workloads"]} != set(wl.WORKLOADS):
        problems.append("workload names differ from workloads.WORKLOADS")

    fixed, items, stream = smoke_requests()
    requests = fixed + stream
    meter = HostMeter()
    meter.start()
    try:
        marks, plain = worker.send(requests, meter)
        before = tr.module_bindings()
        tracer = tr.Tracer(clock=meter.clock)
        tracer.install()
        try:
            traced_marks, traced = worker.send(requests, meter, tracer)
        finally:
            tracer.restore()
        after = tr.module_bindings()
        time.sleep(WINDOW_S)
    finally:
        meter.stop()
    untraced, traced_pass = worker.Pass(meter, marks), worker.Pass(meter, traced_marks)
    emitted = set(worker.end_to_end([untraced.wall], untraced.latencies)) | {"setup_s"}
    if emitted != set(run.END_TO_END_UNITS):
        problems.append(f"worker emits {sorted(emitted)}")
    changed = [key for key in before.keys() | after.keys()
               if before.get(key) is not after.get(key)]
    if changed:
        problems.append(f"attributes not restored: {sorted(changed)}")
    if plain != traced:
        problems.append("traced outputs differ from untraced outputs")
    seen = {span[tr.NAME] for span in tracer.spans}
    missing = [f"{m}.{p}" for m, p in tr.TARGETS if f"{m}.{p}" not in seen]
    if missing:
        problems.append(f"no spans recorded for {missing}")
    values = layers.per_layer(tracer, worker.verb_seconds(requests, untraced.latencies),
                              untraced.wall, traced_pass.wall)
    if set(values) != set(layers.metric_units()):
        problems.append("per_layer() keys differ from metric_units()")

    expected = wl.load_expected()
    failures = wl.check_fixed(fixed, plain[:len(fixed)], expected)
    failures += [(len(fixed) + i, why) for i, why in wl.check_stream(items, plain[len(fixed):])]
    problems.extend(f"check: {' '.join(requests[i])}: {why}" for i, why in failures)

    for line in problems:
        print(f"FAIL {line}")
    print(f"selftest: {len(requests)} requests, {len(tracer.spans)} spans, "
          f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
