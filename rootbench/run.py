"""Benchmark of the regroot root(L) pipeline, end to end and per layer.

    python3 rootbench/run.py --workload root-u34 --seed 0 --seconds 20 --trace 0

Runs one workload of workloads.py in fresh child processes, one at a
time and each single-threaded, until --seconds have passed (at least one
run).  With --trace 0 it reports the end-to-end metrics of BENCHMARK.json
(medians over the runs, plus extra set-up-only processes for setup_s);
with --trace 1 it alternates traced and untraced runs and reports the
per-layer metrics.  Times are in reference seconds (refclock.py), which
factor out the drift of a shared host's speed; raw seconds are kept in
rootbench/out/.  Every metric is printed with its unit, then the last
line of standard output is one JSON object.  The exit code is 1 if any
exact check failed and 2 if the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refclock import Sampler, pin_to_one_cpu, ref_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("root-u34", "closure-gap-n7", "many-small")
# Set-up-only processes per run, on top of the set-up of each measured run.
SETUP_REPS = 5
CHILD_TIMEOUT_S = 170
# Per-layer ratios: metric -> (span, numerator counter, denominator counter).
RATIOS = {
    "root.accepting_transformation.accept_ratio": ("root.accepting_transformation", "accepted", "calls"),
    "dfa.minimize.merge_ratio": ("dfa.minimize", "states_out", "states_in"),
}


class ChildError(RuntimeError):
    """A child process crashed, timed out or printed no result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(workload: str, seed: int, mode: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode, str(trace)]
    try:
        proc = subprocess.run(
            cmd + [repr(time.monotonic())],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise ChildError(f"{mode} run of {workload} took over {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{mode} run of {workload} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def measure(args) -> tuple[list[dict], list[dict], list[dict]]:
    """Runs children until args.seconds have passed: (plain, traced,
    set-up-only) records, with raw times on the monotonic clock."""
    plain: list[dict] = []
    traced: list[dict] = []
    end = time.monotonic() + args.seconds
    while not plain or (args.trace and not traced) or time.monotonic() < end:
        if args.trace and len(traced) <= len(plain):
            traced.append(spawn(args.workload, args.seed, "run", 1))
        else:
            plain.append(spawn(args.workload, args.seed, "run", 0))
    setups = [] if args.trace else [spawn(args.workload, args.seed, "setup", 0) for _ in range(SETUP_REPS)]
    return plain, traced, setups


def add_times(record: dict, samples: list[tuple[float, float]]) -> None:
    """Adds raw and reference seconds for each [start, end] stretch a child
    reported: setup_s and raw_setup_s, and for a run wall_s and raw_wall_s."""
    for key in ("setup", "wall"):
        if key in record:
            start, end = record.pop(key)
            record[f"raw_{key}_s"] = end - start
            record[f"{key}_s"] = ref_seconds(samples, start, end)


def layer_values(layers: dict, names: list[str], scale: float) -> dict[str, float]:
    """Per-layer metrics of one traced run from its span summary; times are
    multiplied by scale, the run's reference seconds per raw second."""
    out = {}
    for name in names:
        if name in RATIOS:
            span, num, den = RATIOS[name]
            stats = layers.get(span, {})
            out[name] = stats[num] / stats[den] if stats.get(den) else 0.0
        elif not name.startswith("trace."):
            span, _, stat = name.rpartition(".")
            out[name] = layers.get(span, {}).get(stat, 0) * (scale if stat == "s" else 1)
    return out


def metric_values(names: list[str], plain: list[dict], traced: list[dict], setups: list[float]) -> dict:
    med = statistics.median
    if not traced:
        return {
            "wall_s": med(r["wall_s"] for r in plain),
            "setup_s": med(setups),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
        }
    per_run = [layer_values(r["layers"], names, r["wall_s"] / r["raw_wall_s"]) for r in traced]
    values = {name: med(v[name] for v in per_run) for name in per_run[0]}
    values["trace.wall_s"] = med(r["wall_s"] for r in traced)
    values["trace.overhead_frac"] = values["trace.wall_s"] / med(r["wall_s"] for r in plain) - 1
    return values


def tally(runs: list[dict]) -> tuple[int, list[str]]:
    """Checks attempted over all runs, and the message of each that failed."""
    return sum(r["attempted"] for r in runs), [f for r in runs for f in r["failures"]]


def result_line(spec: list[dict], values: dict, runs: list[dict]) -> dict:
    attempted, failures = tally(runs)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "regroot" / "__init__.py").is_file():
        print(f"no regroot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    try:
        with Sampler(pin_to_one_cpu()) as sampler:
            # Warm-up: bytecode and file caches, not timed.
            spawn(args.workload, args.seed, "setup", 0)
            plain, traced, setup_only = measure(args)
    except ChildError as e:
        print(e, file=sys.stderr)
        return 1
    runs = plain + traced
    for r in runs + setup_only:
        add_times(r, sampler.samples)
    setups = [r["setup_s"] for r in plain + setup_only]
    values = metric_values([m["name"] for m in metrics], plain, traced, setups)
    result = result_line(metrics, values, runs)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traced:
        (OUT / f"spans-{tag}.json").write_text(json.dumps([r.pop("spans") for r in traced]))
    (OUT / f"result-{tag}.json").write_text(
        json.dumps(
            {"result": result, "realtime": sampler.realtime, "runs": runs, "setup_only": setup_only,
             "samples": sampler.samples},
            indent=1,
        )
    )

    print(f"{args.workload} seed={args.seed} runs={len(plain)} untraced, {len(traced)} traced")
    for key in ("raw_wall_s", "raw_setup_s"):
        print(f"  {key:<44} {statistics.median(r[key] for r in runs):.6g} s (not rescaled)")
    for m in metrics:
        print(f"  {m['name']:<44} {values[m['name']]:.6g} {m['unit']}")
    for f in tally(runs)[1][:20]:
        print(f"  FAILED {f}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
