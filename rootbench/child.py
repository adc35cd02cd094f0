"""One benchmark iteration in a fresh process; prints one JSON line.

    python3 rootbench/child.py WORKLOAD SEED MODE TRACE SPAWNED

MODE is "setup" (build the inputs and stop) or "run".  TRACE is 0 or 1.
SPAWNED is the parent's time.monotonic() just before it started this
process, so set-up covers interpreter start, imports and input building.
Times are raw seconds on the system-wide monotonic clock; the parent turns
them into reference seconds (see refclock.py).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    workload, seed, mode, trace, spawned = argv
    src = Path(__file__).resolve().parent.parent / "src"
    import regroot

    if src not in Path(regroot.__file__).resolve().parents:
        print(f"regroot was imported from {regroot.__file__}, not from {src}", file=sys.stderr)
        return 2

    from spans import Tracer, summarize
    from workloads import WORKLOADS, Checker

    setup, run = WORKLOADS[workload]
    tr = Tracer(enabled=trace == "1")
    with tr.span("bench.setup"):
        inputs = setup(int(seed), tr)
    out: dict = {"setup": [float(spawned), time.monotonic()]}
    if mode == "run":
        chk = Checker()
        start = time.monotonic()
        with tr.span("bench.run"):
            run(inputs, tr, chk)
        out["wall"] = [start, time.monotonic()]
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["attempted"] = chk.attempted
        out["failures"] = chk.failures
        if tr.enabled:
            out["layers"] = summarize(tr.spans)
            out["spans"] = tr.dump()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
