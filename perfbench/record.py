"""Record expected.json: the stdout digest and values of every fixed request.

    python3 perfbench/record.py

Run from the root of a checkout.  Each fixed request is sent once; the
script refuses to write when an exit code or a value differs from the
known results below, so a digest is only ever recorded for a correct
output.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import toricreg.cli  # noqa: E402
import workloads as wl  # noqa: E402

# count and Gotzmann number per enumeration; bound-region generators per
# uniform bound; every degree set passes its supportive check.
KNOWN = {
    "enumerate P(2) 4*t+1": {"count": 330, "gotzmann": 7},
    "enumerate P(3) 3*t+1": {"count": 314, "gotzmann": 4},
    "enumerate PxP(2,1) 3*t1+1": {"count": 174, "gotzmann": 4},
    "enumerate PxP(2,1) 3*t2+1": {"count": 0, "gotzmann": 0},
    "regularity PxP(2,1) 3*t1+1": {"generators": [[3, 3]]},
    "regularity PxP(2,1) 2*t1+t2+1": {"generators": [[2, 2]]},
    "regularity PxP(2,1) t1+2*t2+1": {"generators": [[2, 2]]},
}


def known_values(argv):
    if argv[0] == "degset":
        return {"supportive": True}
    return KNOWN[f"{argv[0]} {argv[2]} {argv[4]}"]


def main():
    expected = {}
    for name, requests in wl.FIXED.items():
        for argv in requests:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = toricreg.cli.main(argv)
            values = known_values(argv)
            if code != 0 or not wl.check_values(argv, json.loads(out.getvalue()), values):
                print(f"error: {' '.join(argv)} gave exit code {code} and "
                      f"{out.getvalue()[-200:]!r}, expected {values}", file=sys.stderr)
                return 1
            expected[wl.request_key(argv)] = {
                "workload": name, "sha256": wl.digest(out.getvalue()), "values": values}
            print(f"{name}: {' '.join(argv)} ok", file=sys.stderr)
    with open(wl.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
