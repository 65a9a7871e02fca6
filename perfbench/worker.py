"""One workload process: generates inputs, or runs a batch of items.

``run.py`` starts this file in a fresh process for every batch, so each
batch starts with cold memo caches, as a user running the CLI sees it.
Importing this module imports no part of relcalc; the ``run`` mode imports
it inside the timed set-up.

    python3 perfbench/worker.py gen --workload W --seed S --first J --count N --dir D
    python3 perfbench/worker.py run --workload W --seed S --first J --count N --dir D --out R [--trace T]

``run`` writes one JSON result to R: the set-up end time (``perf_counter``,
which is CLOCK_MONOTONIC and so comparable across processes on Linux),
per-item latency, yardstick time, verdict and output digests, the loop wall
time, peak RSS and CPU seconds, and, with ``--trace``, the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

CHECK_DIMS = "2..6"
# The file workloads use one shape each, so item latencies are unimodal and
# their median does not jump between shape groups from seed to seed.
# extend-large: big-integer elimination well above the batch's dims.
EXTEND_SHAPE = {"dim": 12, "mul_dim": 1, "restrict_dim": 7}
# analyze-narrow: a 2^-256 bracket means about 256 bisection steps, each a
# fresh base point for the exact PSD test.
ANALYZE_SHAPE = {"dim": 8, "mul_dim": 1, "restrict_dim": 6}
WIDTH = Fraction(1, 2**256)


def instance_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def check_batch_seed(seed: int, first: int) -> int:
    """The --seed of the `relcalc check` call whose instances start at item `first`."""
    return seed * 100_000 + first


def item_spec(workload: str, seed: int, index: int):
    from relcalc.harness import InstanceSpec

    shape = {"extend-large": EXTEND_SHAPE, "analyze-narrow": ANALYZE_SHAPE}[workload]
    return InstanceSpec(seed=instance_seed(seed, index), **shape)


def item_path(directory: str, index: int) -> str:
    return os.path.join(directory, f"item-{index}.json")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ------------------------------------------------------------------ gen


def generate(args) -> None:
    """Write relation files and their certified base points, one per item."""
    from relcalc import harness, serialize

    for index in range(args.first, args.first + args.count):
        s, c = harness.random_semibounded(item_spec(args.workload, args.seed, index))
        path = item_path(args.dir, index)
        serialize.write_relation(path, s)
        with open(path + ".meta", "w", encoding="utf-8") as fh:
            json.dump({"c": serialize.rational_to_str(c)}, fh)


# ------------------------------------------------------------------ items

YARDSTICK_TERMS = 1200


def yardstick() -> float:
    """Seconds for a fixed piece of stdlib exact arithmetic of the same kind
    as relcalc's (Fraction sums with growing big-integer denominators).

    It measures how fast the machine runs right now; run.py divides item
    and set-up times by it.  It runs no relcalc code."""
    t = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, YARDSTICK_TERMS):
        acc += Fraction(1, i)
    return time.perf_counter() - t


class Yardstick:
    """Runs the yardstick before the first item and after every item,
    outside the timed regions; item i is assigned the mean of the runs
    just before and just after it."""

    def __init__(self) -> None:
        self.runs: list[float] = []

    def mark(self) -> None:
        self.runs.append(yardstick())

    def around(self, i: int) -> float:
        return (self.runs[i] + self.runs[i + 1]) / 2


def item_record(index, latency, yard_s, ok, canon_text, full_text, error=None) -> dict:
    return {
        "index": index,
        "latency_s": latency,
        "yard_s": yard_s,
        "ok": ok,
        "error": error,
        "digest": sha(canon_text)[:16] if canon_text is not None else None,
        "sha": sha(full_text) if full_text is not None else None,
    }


def _failed_batch(args, error: str) -> list[dict]:
    return [item_record(args.first + i, None, None, False, None, None, error) for i in range(args.count)]


def run_check_batch(args, inputs, yard: Yardstick) -> tuple[list[dict], str | None]:
    """One `relcalc check --count N` call; an item is one instance, timed
    around harness.run_one."""
    from relcalc import cli, harness

    latencies: list[float] = []
    run_one = harness.run_one

    def timed_run_one(spec):
        if not yard.runs:
            yard.mark()
        t = time.perf_counter()
        report = run_one(spec)
        latencies.append(time.perf_counter() - t)
        yard.mark()
        return report

    n = args.count
    argv = ["check", "--count", str(n), "--dims", CHECK_DIMS,
            "--seed", str(check_batch_seed(args.seed, args.first)), "--format", "json"]
    buf = io.StringIO()
    harness.run_one = timed_run_one
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception as exc:  # the batch fails, the benchmark goes on
        return _failed_batch(args, f"{type(exc).__name__}: {exc}"), None
    finally:
        harness.run_one = run_one
    out = buf.getvalue()
    try:
        data = json.loads(out)
        instances = data["instances"]
    except (ValueError, KeyError) as exc:
        return _failed_batch(args, f"unreadable output: {exc}"), sha(out)
    names = list(harness.REQUIRED_CHECKS)
    oks = [[ch["name"] for ch in inst["checks"]] == names and all(ch["passed"] for ch in inst["checks"])
           for inst in instances]
    bad = oks.count(False)
    consistent = (
        len(instances) == n == len(latencies)
        and data.get("summary") == f"{n - bad}/{n} instances, {bad} failures"
        and rc == (0 if bad == 0 else 1)
    )
    if not consistent:
        error = f"exit {rc}, summary {data.get('summary')!r}, {len(instances)} instances, {len(latencies)} timed"
        return _failed_batch(args, error), sha(out)
    items = []
    for i, (inst, ok, lat) in enumerate(zip(instances, oks, latencies)):
        text = canonical(inst)
        items.append(item_record(args.first + i, lat, yard.around(i), ok, text, text, None if ok else "a check failed"))
    return items, sha(out)


def setup_files(args) -> list:
    """Read the batch's relation files through serialize, with their base points."""
    from relcalc import serialize

    inputs = []
    for index in range(args.first, args.first + args.count):
        path = item_path(args.dir, index)
        rel = serialize.read_relation(path)
        with open(path + ".meta", encoding="utf-8") as fh:
            c = serialize.parse_rational(json.load(fh)["c"], "c")
        inputs.append((index, path, rel, c))
    return inputs


def extend_item(path: str, s, c: Fraction) -> tuple[str, str | None]:
    """Both endpoint extensions, their weak variants, the order between
    them and extremality of each, serialized; plus an error if a theorem
    check fails."""
    from relcalc import extensions, serialize

    f = extensions.friedrichs(s, c)
    k = extensions.krein(s, c)
    wf = extensions.weak_friedrichs(s, c)
    wk = extensions.weak_krein(s, c)
    leq = extensions.order_leq(k, f).leq
    ext_f = extensions.extremal_check(f, s, c)
    ext_k = extensions.extremal_check(k, s, c)
    text = serialize.canonical_dumps({
        "c": serialize.rational_to_str(c),
        "friedrichs": serialize.relation_to_json(f),
        "krein": serialize.relation_to_json(k),
        "weak_friedrichs": serialize.relation_to_json(wf),
        "weak_krein": serialize.relation_to_json(wk),
        "krein_leq_friedrichs": leq,
        "extremal": {"friedrichs": ext_f, "krein": ext_k},
    })
    ok = leq and ext_f and ext_k and wf == f and wk == k
    return text, None if ok else "a theorem check failed"


def analyze_item(path: str, s, c: Fraction) -> tuple[str, str | None]:
    """`relcalc analyze FILE --width 2^-256`; its stdout, plus an error if
    the exit code is not 0."""
    from relcalc import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["analyze", path, "--width", f"{WIDTH.numerator}/{WIDTH.denominator}", "--format", "json"])
    return buf.getvalue(), None if rc == 0 else f"exit {rc}"


def analyze_canonical(out: str, c: Fraction) -> tuple[str, str | None]:
    """The analyze output without its one float field, plus an error if the
    certified interval is wrong."""
    data = json.loads(out)
    bound = data["bound"]
    lo, hi = Fraction(bound["certified_lo"]), Fraction(bound["refuted_hi"])
    bound.pop("estimate_approximate")
    # hi is refuted, so it lies above the exact bound, which the generator's
    # certified base point c does not exceed.
    if not (0 < hi - lo <= WIDTH) or not hi > c or data["symmetric"] is not True:
        return canonical(data), f"interval [{lo}, {hi}], base point {c}"
    return canonical(data), None


# Per file workload: the timed item, and the check that turns its output
# into canonical text (the extend output already is).
FILE_ITEMS = {
    "extend-large": (extend_item, lambda out, c: (out, None)),
    "analyze-narrow": (analyze_item, analyze_canonical),
}


def run_files(args, inputs, yard: Yardstick) -> tuple[list[dict], str | None]:
    """One item per relation file, each timed on its own."""
    run_item, check = FILE_ITEMS[args.workload]
    items = []
    yard.mark()
    for i, (index, path, s, c) in enumerate(inputs):
        t = time.perf_counter()
        try:
            full, error = run_item(path, s, c)
        except Exception as exc:  # counted as a failed item
            full, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t
        yard.mark()
        canon = None
        if full is not None:
            try:
                canon, bad = check(full, c)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                bad = f"unreadable output: {exc}"
            error = error or bad
        items.append(item_record(index, latency, yard.around(i), error is None, canon, full, error))
    return items, None


RUNNERS = {
    "check-batch": run_check_batch,
    "extend-large": run_files,
    "analyze-narrow": run_files,
}


def run(args) -> None:
    import relcalc

    if not os.path.abspath(relcalc.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"relcalc was imported from {relcalc.__file__}, not from {SRC}")
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    inputs = setup_files(args) if args.workload != "check-batch" else None
    t_ready = time.perf_counter()
    yard = Yardstick()
    try:
        items, output_sha = RUNNERS[args.workload](args, inputs, yard)
        loop_s = time.perf_counter() - t_ready
        self_ru = resource.getrusage(resource.RUSAGE_SELF)
        child_ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    finally:
        if tracer is not None:
            tracer.uninstall()
    import numpy

    result = {
        "t_ready": t_ready,
        "loop_s": loop_s,
        "items": items,
        "output_sha": output_sha,
        "maxrss_mb": self_ru.ru_maxrss / 1024,
        "yard_first_s": yard.runs[0] if yard.runs else None,
        # CPU of the worker and its children, less the yardstick's runs.
        "cpu_s": self_ru.ru_utime + self_ru.ru_stime + child_ru.ru_utime + child_ru.ru_stime - sum(yard.runs),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__},
    }
    if tracer is not None:
        result["trace"] = tracer.metrics()
        tracer.write(args.trace)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("gen", "run"))
    parser.add_argument("--workload", choices=tuple(RUNNERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--first", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--out")
    parser.add_argument("--trace", help="write spans here and report per-layer metrics")
    args = parser.parse_args()
    if args.mode == "gen":
        generate(args)
    else:
        run(args)


if __name__ == "__main__":
    main()
