"""stanleygrid benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload {partition,lookup,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its `src`.

--trace 0 (end-to-end, no tracing): times set-up (importing the package
    and building pass 0) in SETUP_SAMPLES fresh processes, then runs passes of the workload in this process until S
    seconds have passed on the reference clock (at least one pass).
    Reports setup_s (median set-up), wall_s (median time a pass spends in
    its requests), req_p50_ms and req_p99_ms over all requests, and
    peak_rss_mib of this process.
--trace 1 (per layer): runs pass 0 twice in fresh processes, once plain and
    once with every layer function wrapped (see tracing.py), and reports
    the per-layer metrics with both wall times.  Spans go to perfbench/out.
    greedy.peak_alloc_mib then comes from a tracemalloc run of the largest
    sieve the pass made, outside any timed code.

All times are read on the reference clock of speed.py, which corrects for
the host's momentary speed; the info line also gives the raw pass time and
the mean speed.
Every request's output is checked.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; lines above it print the
same figures by name, with failed_frac and the run's inputs.  Exit status is
0 when the run completed, even if outputs were wrong, and 2 when the
package cannot be found.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads as wl
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_SAMPLES = 5
SETUP_PROBES = 3  # speed samples before and after each timed set-up
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
    "peak_rss_mib": "MiB",
}


def import_package():
    sys.path.insert(0, str(SRC))
    import stanleygrid
    from stanleygrid import cli, fractal, greedy, grid, radix, verify, witness  # noqa: F401

    if Path(stanleygrid.__file__).resolve().parent != SRC / "stanleygrid":
        raise ImportError(f"stanleygrid imported from {stanleygrid.__file__}, not {SRC}")
    return stanleygrid


def run_pass(workload: str, reqs, sg, probe: SpeedProbe, call=wl.execute) -> dict:
    """Send the requests one after another, then check the outputs.

    A speed sample is taken before each request.  Returns each request's raw
    (start, end) perf_counter interval.
    """
    spans, results = [], []
    clock = time.perf_counter
    for req in reqs:
        probe.sample()
        a = clock()
        try:
            res = call(req, sg)
        except Exception:
            traceback.print_exc()
            res = None
        spans.append((a, clock()))
        results.append(res)
    probe.sample()
    attempted, failed = wl.judge_for(workload, OUT, SRC)(reqs, results)
    return {"spans": spans, "attempted": attempted, "failed": failed,
            "requests": wl.requests_digest(reqs)}


def pass_wall(p: dict, probe: SpeedProbe) -> float:
    """Time the pass spent in its requests (speed samples between them excluded)."""
    return sum(probe.scaled(a, b) for a, b in p["spans"])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def emit(workload: str, seed: int, info: dict, attempted: int, failed: int,
         metrics: dict[str, float], units: dict[str, str], correct: bool) -> None:
    print(f"workload {workload}  seed {seed}  " + "  ".join(f"{k} {v}" for k, v in info.items()))
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>14.6g} {units[name]}")
    print(f"  {'failed_frac':34s} {failed / attempted if attempted else 1.0:>14.6g} "
          f"({failed}/{attempted})")
    doc = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(doc), flush=True)


def child(args, phase: str) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--phase", phase]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{phase} child exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(args) -> None:
    make = wl.REQUESTS[args.workload]
    setups = [child(args, "setup")["setup"] for _ in range(SETUP_SAMPLES)]
    passes = []
    with SpeedProbe() as probe:
        sg = import_package()
        reqs = make(args.seed, 0)
        t_start = time.perf_counter()
        while True:
            passes.append(run_pass(args.workload, reqs, sg, probe))
            if probe.elapsed(t_start) >= args.seconds:
                break
            reqs = make(args.seed, len(passes))
    latencies = [probe.scaled(a, b) for p in passes for a, b in p["spans"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(pass_wall(p, probe) for p in passes),
        "req_p50_ms": statistics.median(latencies) * 1e3,
        "req_p99_ms": percentile(latencies, 0.99) * 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_wall = statistics.median(sum(b - a for a, b in p["spans"]) for p in passes)
    info = {"passes": len(passes), "requests": len(latencies), "raw_wall_s": round(raw_wall, 4),
            "speed": round(probe.mean_speed(), 3)}
    if args.workload == "lookup":
        info.update(wl.lookup_profile([r for k in range(len(passes)) for r in make(args.seed, k)]))
    emit(args.workload, args.seed, info, attempted, failed, metrics, END_TO_END_UNITS, failed == 0)


def peak_alloc_mib(limits) -> float:
    """Peak bytes traced by tracemalloc while sieving the largest limit, in MiB.

    The sieve's allocations grow with its limit, so the largest limit of the
    pass sets the peak.
    """
    if not limits:
        return 0.0
    import tracemalloc

    sg = import_package()
    tracemalloc.start()
    try:
        sg.greedy.build_partition(max(limits))
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def per_layer(args) -> None:
    from tracing import PER_LAYER_UNITS, per_layer_metrics

    plain = child(args, "untraced")
    traced = child(args, "traced")
    summary = traced["summary"]
    peak = peak_alloc_mib([limit for limit, _, _ in summary["sieves"]])
    metrics = per_layer_metrics(summary, traced["wall"], plain["wall"], peak)
    same = plain["requests"] == traced["requests"]
    info = {"requests_match": same, "spans": summary["spans"]}
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    emit(args.workload, args.seed, info, attempted, failed, metrics, PER_LAYER_UNITS,
         failed == 0 and same)


def timed_setup(args) -> float:
    """Import the package and build pass 0, timed in this fresh process.

    The speed samples around it are taken in the same thread, so the time is
    scaled by the speed of the core the set-up ran on.
    """
    probe = SpeedProbe()
    for _ in range(SETUP_PROBES):
        probe.sample()
    t0 = time.perf_counter()
    import_package()
    wl.REQUESTS[args.workload](args.seed, 0)
    raw = time.perf_counter() - t0
    for _ in range(SETUP_PROBES):
        probe.sample()
    return raw * statistics.fmean(v for _, v in probe.samples)


def phase(args) -> None:
    """Child-process entry: set-up only, or pass 0 plain or traced; prints one JSON line."""
    if args.phase == "setup":
        print(json.dumps({"setup": timed_setup(args)}))
        return
    sg = import_package()
    reqs = wl.REQUESTS[args.workload](args.seed, 0)
    tracer = None
    call = wl.execute
    if args.phase == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(sg)
        call = tracer.wrap(wl.execute, "request")
    with SpeedProbe() as probe:
        res = run_pass(args.workload, reqs, sg, probe, call)
    res["wall"] = pass_wall(res, probe)
    del res["spans"]
    if tracer is not None:
        res["summary"] = tracer.summary(probe)
        tracer.write(OUT, args.workload, res["summary"], probe)
    print(json.dumps(res))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--phase", choices=("setup", "untraced", "traced"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "stanleygrid" / "__init__.py").is_file():
        print(f"error: no stanleygrid package under {SRC}", file=sys.stderr)
        return 2
    if args.phase:
        phase(args)
    elif args.trace:
        per_layer(args)
    else:
        end_to_end(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
