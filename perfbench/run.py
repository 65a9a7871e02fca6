"""relcalc benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload check-batch --seed 0 --seconds 30 --trace 0

Run from the root of a relcalc checkout.  One client drives a closed loop:
each batch of items runs in a fresh single-threaded worker process
(``worker.py``, with ``RELCALC_THREADS`` removed from its environment), and
the next batch starts only when the previous one has ended.  A run measures
``--seconds`` worth of items at the rates in RATE.  Input relation files
are generated from the seed by separate processes, outside the timed ones.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it runs a fixed list of items twice, plainly and with the
span recorder of ``tracer.py``, checks that both print the same bytes, and
reports the per-layer metrics.  Every item's output is checked; for seeds
recorded in ``digests.json`` its canonical digest must match too.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from worker import item_record, yardstick

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench-work")

# Items per worker process, and items in the fixed traced list.  A
# check-batch trace is one plain batch: the instances of `check --count N`
# depend on N's batch boundaries.
BATCH = {"check-batch": 10, "extend-large": 4, "analyze-narrow": 8}
TRACE_ITEMS = {"check-batch": 10, "extend-large": 8, "analyze-narrow": 16}
# A plain run measures a fixed amount of work: --seconds times this rate
# (items per speed-normalized second, about the parent commit's rate),
# rounded up to whole batches and to at least MIN_ITEMS, so that
# item_tail_s always has ten samples beyond it.  A fixed count keeps the
# item set, and the tail's percentile, the same however fast the machine is.
RATE = {"check-batch": 3.0, "extend-large": 0.9, "analyze-narrow": 1.8}
MIN_ITEMS = 20
GEN_BATCHES = 3  # batches of input files generated per generator process
# A run ends within 180 s even on a much slower program: no batch starts
# after LAST_START_S, none runs longer than WORKER_TIMEOUT_S.
LAST_START_S = 90
WORKER_TIMEOUT_S = 80
# Times are reported in seconds of a machine on which the yardstick
# (worker.yardstick) takes this long; see README.md, "Speed-normalized time".
REFERENCE_YARD_S = 0.005


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("RELCALC_THREADS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(mode: str, workload: str, seed: int, first: int, count: int, directory: str, *extra: str):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, "--workload", workload, "--seed", str(seed),
           "--first", str(first), "--count", str(count), "--dir", directory, *extra]
    return subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


class Inputs:
    """Relation files for a workload and seed, generated a few batches at a time."""

    def __init__(self, workload: str, seed: int, directory: str) -> None:
        self.workload, self.seed, self.directory = workload, seed, directory
        self.generated = 0

    def ensure(self, upto: int) -> None:
        if self.workload == "check-batch" or upto <= self.generated:
            return
        count = max(upto - self.generated, GEN_BATCHES * BATCH[self.workload])
        proc = run_worker("gen", self.workload, self.seed, self.generated, count, self.directory)
        if proc.returncode != 0:
            fail(f"input generation failed:\n{proc.stderr}")
        self.generated += count


def run_batch(workload: str, seed: int, first: int, count: int, directory: str, trace: str | None = None) -> dict:
    """One worker process on items [first, first + count); returns its result
    with ``setup_s`` added, or a result whose items all failed."""
    out = os.path.join(directory, f"result-{first}-{'trace' if trace else 'plain'}.json")
    extra = ["--out", out] + (["--trace", trace] if trace else [])
    yard_parent = yardstick()
    t_spawn = time.perf_counter()
    try:
        proc = run_worker("run", workload, seed, first, count, directory, *extra)
        error = None
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            error = f"worker exited {proc.returncode}: {(proc.stderr.strip().splitlines() or [''])[-1]}"
    except subprocess.TimeoutExpired:
        error = f"worker timed out after {WORKER_TIMEOUT_S} s"
    wall = time.perf_counter() - t_spawn
    if error is None:
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        result["setup_s"] = result["t_ready"] - t_spawn
        result["setup_yard_s"] = (yard_parent + (result["yard_first_s"] or yard_parent)) / 2
    else:
        result = {"items": [item_record(first + i, None, None, False, None, None, error) for i in range(count)]}
    result["wall_s"] = wall
    return result


def check_digests(workload: str, seed: int, items: list[dict]) -> int:
    """Mark items whose canonical digest differs from the recorded one;
    returns how many items had a recorded digest."""
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        recorded = json.load(fh).get(workload, {}).get(str(seed), [])
    checked = 0
    for item in items:
        if item["index"] < len(recorded):
            checked += 1
            if item["digest"] != recorded[item["index"]] and item["ok"]:
                item["ok"] = False
                item["error"] = "output differs from the recorded digest"
    return checked


def item_time(result: dict) -> float:
    """Speed-normalized seconds spent in a worker's items."""
    return sum(it["latency_s"] * REFERENCE_YARD_S / it["yard_s"] for it in result["items"] if it["latency_s"] is not None)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    return xs[n - 11], 100.0 * (n - 10) / n


def verdict_lines(items: list[dict], checked: int, seed: int) -> list[str]:
    failed = sum(not it["ok"] for it in items)
    lines = [f"  failed_ratio {failed / len(items):.6g}  ({failed} of {len(items)} items failed)",
             f"  digests: {checked} of {len(items)} items checked against recorded seed {seed}"
             if checked else f"  digests: none recorded for seed {seed}; outputs checked by their invariants"]
    return lines + [f"  FAIL item {it['index']}: {it['error']}" for it in items if not it["ok"]][:10]


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def plain_run(workload: str, seed: int, seconds: float, directory: str, spec: dict) -> tuple[dict, list, list[str]]:
    inputs = Inputs(workload, seed, directory)
    batch = BATCH[workload]
    target = max(MIN_ITEMS, math.ceil(seconds * RATE[workload] / batch) * batch)
    results, first, busy, start = [], 0, 0.0, time.perf_counter()
    while first < target and time.perf_counter() - start < LAST_START_S:
        inputs.ensure(first + batch)
        res = run_batch(workload, seed, first, batch, directory)
        results.append(res)
        busy += res["wall_s"]
        first += batch
    items = [it for res in results for it in res["items"]]
    checked = check_digests(workload, seed, items)
    done = [res for res in results if "loop_s" in res]
    timed = [it for it in items if it["latency_s"] is not None]
    raw = [it["latency_s"] for it in timed]
    lat = [it["latency_s"] * REFERENCE_YARD_S / it["yard_s"] for it in timed]
    lines = [f"workload {workload}, seed {seed}: {len(results)} worker processes of {BATCH[workload]} items, "
             f"one client in a closed loop, {busy:.1f} s of worker time"]
    metrics: dict[str, dict] = {}
    if done and len(lat) >= 11:
        t_val, pct = tail(lat)
        setups = [res["setup_s"] * REFERENCE_YARD_S / res["setup_yard_s"] for res in done]
        values = {
            "items_per_s": len(lat) / sum(lat),
            "item_p50_s": statistics.median(lat),
            "item_tail_s": t_val,
            "peak_rss_mb": statistics.median(res["maxrss_mb"] for res in done),
            "setup_s": statistics.median(setups),
        }
        wall = {
            "items_per_s": len(raw) / sum(raw),
            "item_p50_s": statistics.median(raw),
            "item_tail_s": tail(raw)[0],
            "peak_rss_mb": values["peak_rss_mb"],
            "setup_s": statistics.median(res["setup_s"] for res in done),
        }
        notes = {
            "items_per_s": f"{len(lat)} items / {sum(lat):.3f} s of item time",
            "item_p50_s": f"median of {len(lat)} items",
            "item_tail_s": f"p{pct:.1f} of {len(lat)} samples, 10 beyond it",
            "peak_rss_mb": f"median over {len(done)} worker processes",
            "setup_s": f"median over {len(done)} worker processes, spawn to first item",
        }
        for m in spec["end_to_end"]:
            name = m["name"]
            lines.append(f"  {name:<12} {values[name]:.6g} {m['unit']}  (wall clock {wall[name]:.6g}; {notes[name]})")
            metrics[name] = {"value": values[name], "unit": m["unit"]}
        yards = [it["yard_s"] for it in timed]
        lines.append(f"  yardstick: median {statistics.median(yards) * 1e3:.3f} ms, "
                     f"min {min(yards) * 1e3:.3f} ms, max {max(yards) * 1e3:.3f} ms "
                     f"(times above are scaled by {REFERENCE_YARD_S * 1e3:g} ms / yardstick)")
    lines += verdict_lines(items, checked, seed)
    if done:
        v = done[0]["versions"]
        lines.append(f"  env: python {v['python']}, numpy {v['numpy']}, nproc {len(os.sched_getaffinity(0))}, "
                     f"RELCALC_THREADS unset; no machine setting changed")
    return metrics, items, lines


def trace_run(workload: str, seed: int, directory: str, spec: dict) -> tuple[dict, list, list[str]]:
    n = TRACE_ITEMS[workload]
    Inputs(workload, seed, directory).ensure(n)
    plain = run_batch(workload, seed, 0, n, directory)
    os.makedirs(WORK, exist_ok=True)
    spans = os.path.join(WORK, f"spans-{workload}.npz")
    traced = run_batch(workload, seed, 0, n, directory, trace=spans)
    items = traced["items"]
    for a, b in zip(plain["items"], items):
        if a["sha"] != b["sha"] and b["ok"]:
            b["ok"], b["error"] = False, "traced output differs from the plain run"
        if not a["ok"] and b["ok"]:
            b["ok"], b["error"] = False, f"plain run: {a['error']}"
    if plain.get("output_sha") != traced.get("output_sha"):
        for b in items:
            b["ok"], b["error"] = False, "traced output differs from the plain run"
    checked = check_digests(workload, seed, items)
    lines = [f"workload {workload}, seed {seed}: traced run of {n} fixed items, plain run of the same items"]
    metrics: dict[str, dict] = {}
    if "trace" in traced and "loop_s" in plain:
        values = dict(traced["trace"])
        values["process.cpu_s"] = plain["cpu_s"]
        values["process.trace_overhead_s"] = item_time(traced) - item_time(plain)
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            lines.append(f"  {m['name']:<48} {values[m['name']]:.6g} {m['unit']}")
        extra = ["memo_hits", "memo_misses"]
        lines += [f"  {mod}.{k:<41} {values[f'{mod}.{k}']}  (not a BENCHMARK.json metric)"
                  for mod in ("linalg", "spaces", "relations", "forms", "extensions") for k in extra]
        lines.append(f"  spans recorded: {values['spans']}, written to {os.path.relpath(spans, ROOT)}")
        lines.append(f"  speed-normalized item time: plain {item_time(plain):.3f} s, traced {item_time(traced):.3f} s")
    lines += verdict_lines(items, checked, seed)
    return metrics, items, lines


def main() -> None:
    parser = argparse.ArgumentParser(description="relcalc benchmark")
    parser.add_argument("--workload", choices=tuple(BATCH), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "relcalc", "__init__.py")):
        fail(f"no relcalc source under {ROOT}/src; run from the root of a relcalc checkout")
    spec = benchmark_spec()
    directory = os.path.join(WORK, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(directory)
    try:
        if args.trace:
            metrics, items, lines = trace_run(args.workload, args.seed, directory, spec)
            wanted = spec["per_layer"]
        else:
            metrics, items, lines = plain_run(args.workload, args.seed, args.seconds, directory, spec)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print("\n".join(lines))
    if len(metrics) != len(wanted):
        fail("the program failed before any metric could be measured")
    failed = sum(not it["ok"] for it in items)
    print(json.dumps({"correct": failed == 0, "attempted": len(items), "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
