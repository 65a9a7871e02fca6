"""Span recorder that measures each relcalc module from outside.

The tracer wraps public functions by rebinding their names in every
``relcalc`` module namespace, including references held in module-level
dicts (``extensions.REPMAP_BUILDERS``, ``cli.EXTEND_KINDS``), so a call made
from any module goes through the wrapper.  Each wrapped call records one
span: name, start, end and the span that was open when it started.  Spans
live in flat in-memory arrays and are written out once, at exit.

The four hot ``Mat`` methods are patched on the class with aggregated
counters (calls and inclusive seconds) instead of spans; they are called
millions of times and their time stays inside the caller's self time.

``harness.CheckResult`` is wrapped so that the end of each named check is
observed from outside ``verify_all``: a check ends when its result object
is built.  Everything is restored by ``uninstall``; memo statistics are
read from the original ``lru_cache`` objects, because wrappers have no
``cache_info``.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

# Functions traced with spans, by module.  The order fixes metric order.
SPAN_TARGETS: dict[str, tuple[str, ...]] = {
    "linalg": ("rref", "kernel", "ldl_psd_certificate"),
    "spaces": ("span", "intersect", "complement", "subspace_sum"),
    "relations": ("parts", "adjoint", "compose", "rel_sum", "shift", "inverse", "regular_part"),
    "forms": (
        "form_of_relation",
        "certify_lower_bound",
        "repmap_ldl",
        "repmap_quotient",
        "companion",
        "bound_bisect",
    ),
    "extensions": ("friedrichs", "krein", "order_leq", "extremal_check"),
    "harness": ("random_semibounded", "verify_all", "sample_selfadjoint_extensions", "sample_extremal"),
    "serialize": ("read_relation", "canonical_dumps"),
    "cli": ("main",),
}

# Mat methods counted on the class: metric suffix -> attribute.
MAT_COUNTERS: dict[str, str] = {
    "matmul": "__matmul__",
    "mul_vec": "mul_vec",
    "hash": "__hash__",
    "eq": "__eq__",
}

# Modules whose memo caches are summed into <module>.memo_* metrics.
MEMO_MODULES = ("linalg", "spaces", "relations", "forms", "extensions")

# The last exact computation before verify_all's first check is its second
# direct call to companion (j_quot); the preamble ends when it returns.
PREAMBLE_MARKER = ("forms.companion", 2)


def _relcalc_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "relcalc" or name.startswith("relcalc.")]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")  # name id, or ~id when nested in a same-name span
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._active: list[int] = []  # per name id: open spans of that name
        self.counters: dict[str, list] = {}
        self.check_s: dict[str, float] = defaultdict(float)
        self.checks_failed = 0
        self._check_marks: dict[int, float] = {}  # verify_all span -> time of last check
        self._patches: list[tuple] = []
        self._memo: dict[str, list] = {}

    # ------------------------------------------------------------ recording

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def _span_wrapper(self, name: str, fn):
        nid = self._name_id(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, active, clock = self._stack, self._active, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(~nid if active[nid] else nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            active[nid] += 1
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                active[nid] -= 1
                stack.pop()

        return wrapper

    def _counter_wrapper(self, name: str, fn):
        cell = self.counters[name] = [0, 0.0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args):
            t = clock()
            try:
                return fn(*args)
            finally:
                cell[1] += clock() - t
                cell[0] += 1

        return wrapper

    def _check_result_wrapper(self, cls):
        verify_id = self._name_id("harness.verify_all")

        def check_result(*args, **kwargs):
            result = cls(*args, **kwargs)
            now = time.perf_counter()
            if not result.passed:
                self.checks_failed += 1
            vspan = next((i for i in reversed(self._stack) if self.span_name[i] == verify_id), None)
            if vspan is not None:
                last = self._check_marks.get(vspan)
                if last is None:
                    last = self._preamble_end(vspan, now)
                    self.check_s["preamble"] += last - self.span_start[vspan]
                self.check_s[result.name] += now - last
                self._check_marks[vspan] = now
            return result

        return check_result

    def _preamble_end(self, vspan: int, now: float) -> float:
        marker_id = self._name_ids.get(PREAMBLE_MARKER[0])
        seen = 0
        for i in range(vspan + 1, len(self.span_start)):
            if self.span_parent[i] == vspan and self.span_name[i] == marker_id:
                seen += 1
                if seen == PREAMBLE_MARKER[1]:
                    return self.span_end[i]
        # Marker not found: the first check's time is folded into the preamble.
        return now

    # ------------------------------------------------------------- patching

    def _rebind(self, orig, wrapper) -> None:
        """Replace every reference to ``orig`` held by a relcalc module:
        module globals, and values (or tuple members) of module-level dicts."""
        for mod in _relcalc_modules():
            for key, val in list(vars(mod).items()):
                if key.startswith("__"):
                    continue
                if val is orig:
                    self._patches.append(("attr", mod, key, val))
                    setattr(mod, key, wrapper)
                elif isinstance(val, dict):
                    for k2, v2 in list(val.items()):
                        if v2 is orig:
                            self._patches.append(("item", val, k2, v2))
                            val[k2] = wrapper
                        elif isinstance(v2, tuple) and any(x is orig for x in v2):
                            self._patches.append(("item", val, k2, v2))
                            val[k2] = tuple(wrapper if x is orig else x for x in v2)

    def install(self) -> None:
        import relcalc.cli  # noqa: F401  (loads every traced module)
        from relcalc import harness, linalg

        for short in MEMO_MODULES:
            mod = sys.modules[f"relcalc.{short}"]
            self._memo[short] = [
                v for v in vars(mod).values()
                if hasattr(v, "cache_info") and getattr(v, "__module__", None) == mod.__name__
            ]
        for short, fnames in SPAN_TARGETS.items():
            mod = sys.modules[f"relcalc.{short}"]
            for fname in fnames:
                orig = getattr(mod, fname)
                self._rebind(orig, self._span_wrapper(f"{short}.{fname}", orig))
        for suffix, attr in MAT_COUNTERS.items():
            orig = linalg.Mat.__dict__[attr]
            self._patches.append(("attr", linalg.Mat, attr, orig))
            setattr(linalg.Mat, attr, self._counter_wrapper(f"linalg.Mat.{suffix}", orig))
        orig_cr = harness.CheckResult
        self._rebind(orig_cr, self._check_result_wrapper(orig_cr))

    def uninstall(self) -> None:
        while self._patches:
            kind, target, key, old = self._patches.pop()
            if kind == "attr":
                setattr(target, key, old)
            else:
                target[key] = old

    # -------------------------------------------------------------- results

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: calls and inclusive seconds per traced
        function, self seconds per module, Mat counters, memo statistics
        and per-check seconds.  Inclusive seconds count only the outermost
        span of a name, so recursion is not counted twice."""
        n = len(self.span_start)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        self_s: dict[str, float] = defaultdict(float)
        modules = [name.split(".", 1)[0] for name in self.names]
        for i in range(n):
            nid = names[i]
            dur = ends[i] - starts[i]
            if nid < 0:
                nid = ~nid
            else:
                incl[nid] += dur
            calls[nid] += 1
            self_s[modules[nid]] += dur - child[i]

        out: dict[str, float] = {}
        for short, fnames in SPAN_TARGETS.items():
            for fname in fnames:
                nid = self._name_ids[f"{short}.{fname}"]
                out[f"{short}.{fname}.calls"] = calls[nid]
                out[f"{short}.{fname}.s"] = incl[nid]
            if short == "linalg":
                for suffix in MAT_COUNTERS:
                    cnt, secs = self.counters[f"linalg.Mat.{suffix}"]
                    out[f"linalg.Mat.{suffix}.calls"] = cnt
                    out[f"linalg.Mat.{suffix}.s"] = secs
            out[f"{short}.self_s"] = self_s.get(short, 0.0)
            if short in self._memo:
                infos = [f.cache_info() for f in self._memo[short]]
                hits = sum(i.hits for i in infos)
                misses = sum(i.misses for i in infos)
                out[f"{short}.memo_hits"] = hits
                out[f"{short}.memo_misses"] = misses
                out[f"{short}.memo_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
                out[f"{short}.memo_entries"] = sum(i.currsize for i in infos)
        out["harness.checks_failed"] = self.checks_failed
        out["harness.check.preamble.s"] = self.check_s.get("preamble", 0.0)
        from relcalc.harness import REQUIRED_CHECKS

        for name in REQUIRED_CHECKS:
            out[f"harness.check.{name}.s"] = self.check_s.get(name, 0.0)
        out["spans"] = n
        return out

    def write(self, path: str) -> None:
        """Write every span as arrays: name index (``~index`` when nested in
        a span of the same name), parent index (-1 at top level), start and
        end in seconds."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
