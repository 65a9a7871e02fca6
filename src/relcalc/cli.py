"""Command-line interface.

Exit codes are a stable contract: 0 success (all checks pass), 1 check
failure, 2 parse error, 3 precondition violation, 4 lower-bound
certification failure.  All numeric output is exact rational strings; the
only float is the bound estimate, the bound rounded to the nearest float and
labeled approximate in both formats.  No float decides a certified bracket.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from .errors import BoundCertificationError, ParseError, PreconditionError, RelcalcError
from .extensions import (
    ROUTES,
    extremal_check,
    friedrichs,
    krein,
    order_leq,
    weak_friedrichs,
    weak_krein,
)
from .forms import bound_bisect, form_of_relation
from .harness import InstanceSpec, random_semibounded, run_suite, verify_all
from .relations import (
    is_selfadjoint,
    is_symmetric,
    numerical_range_zero,
    parts,
)
from .serialize import (
    MAX_DIM,
    canonical_dumps,
    parse_rational,
    rational_to_str,
    read_relation,
    relation_to_json,
    subspace_to_json,
    vector_to_json,
    write_relation,
    write_text,
)

EXTEND_KINDS = {"friedrichs": friedrichs, "weak-friedrichs": weak_friedrichs, "krein": krein, "weak-krein": weak_krein}


def _emit(args, output: str | None, data: dict, text_lines: list[str]) -> None:
    """Write the JSON or text form of a result to `output`, or to stdout."""
    if args.format == "json":
        payload = canonical_dumps(data)
    else:
        payload = "\n".join(text_lines) + "\n"
    if output:
        write_text(output, payload)
    else:
        sys.stdout.write(payload)


def _default_c(rel) -> Fraction:
    """The certified lower end of a 1/64 bound bracket, or 0 when the form
    domain is empty."""
    t = form_of_relation(rel)
    return bound_bisect(t, Fraction(1, 64)).lo if t.domain.dim else Fraction(0)


def _check_json(r) -> dict:
    return {"name": r.name, "passed": r.passed, **({"witness": r.witness} if r.witness else {})}


def cmd_analyze(args) -> int:
    width = parse_rational(args.width, "--width")
    if width <= 0:
        raise ParseError(f"--width: must be positive, got {width}")
    rel = read_relation(args.file)
    p = parts(rel)
    data: dict = {"parts": {}}
    lines = []
    for name in ("dom", "ran", "ker", "mul"):
        sub = getattr(p, name)
        data["parts"][name] = {"dim": sub.dim, **subspace_to_json(sub)}
        lines.append(f"{name}: dim {sub.dim}  basis {data['parts'][name]['basis']}")
    if rel.src != rel.dst:
        data.update({"symmetric": False, "selfadjoint": False, "numerical_range_zero": False, "bound": None})
        lines.append("relation is not an endorelation; no form analysis")
        _emit(args, args.output, data, lines)
        return 3
    data.update(symmetric=is_symmetric(rel), selfadjoint=is_selfadjoint(rel), numerical_range_zero=numerical_range_zero(rel))
    lines += [f"{key.replace('_', ' ')}: {data[key]}" for key in ("symmetric", "selfadjoint", "numerical_range_zero")]
    if not data["symmetric"]:
        data["bound"] = None
        lines.append("not symmetric: the form of the relation is undefined")
        _emit(args, args.output, data, lines)
        return 3
    t = form_of_relation(rel)
    if t.domain.dim == 0:
        data["bound"] = None
        lines.append("bound: empty domain, no finite lower bound to certify")
    else:
        interval = bound_bisect(t, width)
        lo, hi = rational_to_str(interval.lo, "the certified bound"), rational_to_str(interval.hi, "the refuted bound")
        data["bound"] = {"certified_lo": lo, "refuted_hi": hi, "estimate_approximate": interval.estimate}
        lines.append(f"bound: certified at {lo}, refuted at {hi} (estimate approximate: {interval.estimate})")
    _emit(args, args.output, data, lines)
    return 0


def cmd_extend(args) -> int:
    rel = read_relation(args.file)
    c = parse_rational(args.c, "--c") if args.c is not None else _default_c(rel)
    out = EXTEND_KINDS[args.kind](rel, c)
    data = {
        "kind": args.kind,
        "c": rational_to_str(c, "c"),
        "asserted_checks": list(ROUTES[args.kind]),
        "relation": relation_to_json(out),
    }
    lines = [
        f"kind: {args.kind}",
        f"c: {data['c']}",
        f"asserted cross-checks: {', '.join(ROUTES[args.kind])}",
        f"graph dimension: {out.graph.dim}",
    ]
    if args.output:
        write_relation(args.output, out)
        lines.append(f"wrote {args.output}")
        data["wrote"] = args.output
    _emit(args, None, data, lines)
    return 0


def cmd_order(args) -> int:
    h = read_relation(args.h_file)
    k = read_relation(args.k_file)
    hk = order_leq(h, k).leq
    kh = order_leq(k, h).leq
    verdict = {(True, True): "equal", (True, False): "leq", (False, True): "geq", (False, False): "incomparable"}[(hk, kh)]
    _emit(args, args.output, {"order": verdict}, [verdict])
    return 0


def cmd_extremal(args) -> int:
    h = read_relation(args.h_file)
    s = read_relation(args.s_file)
    c = parse_rational(args.c, "--c")
    res = extremal_check(h, s, c)
    _emit(args, args.output, {"extremal": res, "c": rational_to_str(c, "c")}, [str(res).lower()])
    return 0


def _parse_dims(raw: str) -> tuple[int, int]:
    try:
        lo_s, hi_s = raw.split("..")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ParseError(f"--dims: expected A..B, got {raw!r}") from None
    if lo < 1 or hi < lo or hi > MAX_DIM:
        raise ParseError(f"--dims: invalid range {raw!r} (dimensions lie between 1 and {MAX_DIM})")
    return lo, hi


def _in_range(flag: str, value: int, lo: int, hi: int | None = None) -> int:
    if value < lo or (hi is not None and value > hi):
        allowed = f"at least {lo}" if hi is None else f"between {lo} and {hi}"
        raise ParseError(f"{flag}: must be {allowed}, got {value}")
    return value


def cmd_check(args) -> int:
    dims = _parse_dims(args.dims)
    count = _in_range("--count", args.count, 1)
    c = parse_rational(args.c, "--c") if args.c is not None else None
    if args.file is None and c is not None:
        raise ParseError("--c: applies only to a relation FILE; random instances certify their own c")
    if args.file is not None:
        rel = read_relation(args.file)
        if c is None:
            c = _default_c(rel)
        results = verify_all(rel, c, seed=args.seed)
        failures = [r for r in results if not r.passed]
        data = {
            "c": rational_to_str(c, "c"),
            "checks": [_check_json(r) for r in results],
            "summary": f"{len(results) - len(failures)}/{len(results)} checks, {len(failures)} failures",
        }
        lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}" + (f"  [{r.witness}]" if r.witness else "") for r in results]
    else:
        reports = run_suite(count, dims, args.seed)
        failures = [rep for rep in reports if not rep.passed]
        instances = [
            {
                "instance": rep.spec._asdict(),
                "c": None if rep.c is None else rational_to_str(rep.c, "c"),
                "checks": [_check_json(ch) for ch in rep.checks],
            }
            for rep in reports
        ]
        data = {"instances": instances, "summary": f"{len(reports) - len(failures)}/{len(reports)} instances, {len(failures)} failures"}
        lines = []
        for rep, inst in zip(reports, instances):
            lines.append(f"{'PASS' if rep.passed else 'FAIL'} dim={rep.spec.dim} seed={rep.spec.seed} c={inst['c']}")
            lines += [f"  FAIL {ch.name}: {ch.witness}" for ch in rep.checks if not ch.passed]
    lines.append(data["summary"])
    _emit(args, args.output, data, lines)
    return 0 if not failures else 1


def cmd_random(args) -> int:
    dim = _in_range("--dim", args.dim, 1, MAX_DIM)
    restrict = args.restrict if args.restrict is not None else max(1, dim // 2)
    spec = InstanceSpec(
        dim=dim,
        seed=args.seed,
        mul_dim=_in_range("--mul", args.mul, 0, dim),
        restrict_dim=_in_range("--restrict", restrict, 0, dim),
        entry_bound=_in_range("--bound", args.bound, 1),
    )
    s, c = random_semibounded(spec)
    data = {"c": rational_to_str(c, "c"), "relation": relation_to_json(s)}
    lines = [f"certified c: {data['c']}", f"graph dimension: {s.graph.dim}"]
    if args.output:
        write_relation(args.output, s)
        lines.append(f"wrote {args.output}")
    _emit(args, None, data, lines)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relcalc",
        description="Exact calculus of semibounded linear relations and their extensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("-o", "--output")
        p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("analyze", help="parts, predicates and certified bound interval")
    p.add_argument("file")
    p.add_argument("--width", default="1/64", help="bound interval width (default 1/64)")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("extend", help="compute an extension and write its graph")
    p.add_argument("file")
    p.add_argument("--kind", choices=tuple(EXTEND_KINDS), required=True)
    p.add_argument("--c", default=None, help="rational base point p/q (default: certified lower end of the 1/64 bound bracket)")
    add_common(p)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("order", help="compare two selfadjoint relations")
    p.add_argument("h_file")
    p.add_argument("k_file")
    add_common(p)
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("extremal", help="extremality of an extension")
    p.add_argument("h_file")
    p.add_argument("s_file")
    p.add_argument("--c", required=True)
    add_common(p)
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("check", help="run the identity suite on a file or random instances")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--c", default=None)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--dims", default="2..6")
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("random", help="generate a random semibounded relation file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mul", type=int, default=0)
    p.add_argument("--restrict", type=int, default=None)
    p.add_argument("--bound", type=int, default=4)
    add_common(p)
    p.set_defaults(func=cmd_random)

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The argument parser is built once per process (``build_parser`` is
    cached) and only read here: each call parses into a new namespace, so
    calls in one process behave as separate runs do.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except BoundCertificationError as exc:
        print(f"bound certification failed: {exc}", file=sys.stderr)
        if exc.witness is not None:
            try:  # a witness past the int digit limit is named by its refusal
                shown = vector_to_json(exc.witness)
            except RelcalcError as refusal:
                shown = refusal
            print(f"counterexample: {shown}", file=sys.stderr)
        return 4
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except RelcalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
