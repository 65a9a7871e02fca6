import itertools
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relcalc.extensions as extensions
import relcalc.forms as forms
import relcalc.harness as harness
from relcalc.cli import main
from relcalc.errors import CrossCheckError
from relcalc.extensions import (
    OrderResult,
    extension_interval_check,
    extremal_check,
    extremal_from_domain,
    friedrichs,
    krein,
)
from relcalc.forms import QuadraticForm, certify_lower_bound, form_of_relation, is_nonneg_above, repmap_quotient
from relcalc.harness import (
    REQUIRED_CHECKS,
    InstanceSpec,
    engineered_nonextremal_extensions,
    random_orthogonal_range_relation,
    random_semibounded,
    run_one,
    run_suite,
    sample_extremal,
    sample_selfadjoint_extensions,
    suite_specs,
    verify_all,
)
from relcalc.linalg import _MEMOS, clear_memos, echelon_coords, identity, mat, rank, vec, zeros
from relcalc.relations import (
    adjoint,
    hsum,
    inverse,
    is_selfadjoint,
    is_symmetric,
    numerical_range_zero,
    parts,
    product_relation,
    shift,
)
from relcalc.serialize import parse_relation, vector_witness, write_relation
from relcalc.spaces import extending, standard_space, zero_subspace

from relation_builders import e1, e2, full_subspace, operator_relation, scale
from test_cli import EXTEND_SHA256

Q2 = standard_space(2)
Q4 = standard_space(4)


def dim4_fixture():
    d = operator_relation(Q4, Q4, mat([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]]))
    from relcalc.relations import restrict_domain
    from relcalc.spaces import span

    return restrict_domain(d, span(Q4, [vec([1, 1, 1, 1]), vec([1, -1, 1, -1])]))


@pytest.mark.parametrize("seed", [0, 1, 5, 17, 2**40 + 3])
def test_random_matrices_draw_the_stream_of_fraction_entries(seed):
    # Every seeded instance, and so every seed-0 pin, rests on this stream:
    # for each entry, row by row, randint(-bound, bound) and then
    # randint(1, bound), as Fraction(p, q) evaluates them.  One rng pair runs
    # through the whole grid, so a draw out of step shows in every later one.
    rng, ref = random.Random(seed), random.Random(seed)
    for rows, cols, bound in itertools.product(range(4), range(4), (1, 2, 3, 4, 9)):
        got = harness._rand_matrix(rng, rows, cols, bound)
        entries = [[Fraction(ref.randint(-bound, bound), ref.randint(1, bound)) for _ in range(cols)] for _ in range(rows)]
        want = mat(entries) if rows else zeros(0, cols)
        assert (got.rows, got.cols) == (rows, cols)
        assert got == want and repr(got) == repr(want)
        assert rng.getstate() == ref.getstate()


def test_generator_soundness():
    for seed in range(8):
        spec = InstanceSpec(dim=2 + seed % 4, seed=seed, mul_dim=seed % 2, restrict_dim=1 + seed % 2)
        s, c = random_semibounded(spec)
        assert is_symmetric(s)
        assert certify_lower_bound(form_of_relation(s), c).ok
        assert s.graph.dim == spec.restrict_dim


def test_generator_determinism():
    spec = InstanceSpec(dim=4, seed=99, mul_dim=1, restrict_dim=2)
    a = random_semibounded(spec)
    b = random_semibounded(spec)
    assert a == b


def test_generator_selfadjoint_when_unrestricted():
    spec = InstanceSpec(dim=3, seed=5, mul_dim=0, restrict_dim=3)
    s, c = random_semibounded(spec)
    assert is_selfadjoint(s)
    assert friedrichs(s, c) == s


def test_generator_with_mul_produces_nondense_domain():
    spec = InstanceSpec(dim=3, seed=11, mul_dim=1, restrict_dim=2)
    s, _ = random_semibounded(spec)
    from relcalc.relations import adjoint

    assert parts(adjoint(s)).mul.dim >= 1


def test_verify_all_e1_passes():
    results = verify_all(e1(), 0, seed=3)
    assert [r.name for r in results] == list(REQUIRED_CHECKS)
    failures = [r for r in results if not r.passed]
    assert failures == []


def test_verify_all_e2_passes_including_orthogonal_special():
    s = e2()
    assert numerical_range_zero(s)
    results = verify_all(s, 0, seed=4)
    assert all(r.passed for r in results)


def test_verify_all_deterministic():
    s, c = random_semibounded(InstanceSpec(dim=3, seed=21, mul_dim=1, restrict_dim=2))
    a = verify_all(s, c, seed=21)
    b = verify_all(s, c, seed=21)
    assert a == b


def test_a_moved_inverse_duality_route_fails_codding_identity(tmp_path, monkeypatch, capsys):
    # Doubling ((S - c)^{-1})_F moves krein's route c + (((S - c)^{-1})_F)^{-1}
    # alone; codding-identity relies on that route.
    s = e1()
    inv = inverse(s)
    real = extensions.friedrichs_from

    def moved(t, c, repmap):
        out = real(t, c, repmap)
        return scale(out, 2) if (t, c) == (inv, 0) else out

    monkeypatch.setattr(extensions, "friedrichs_from", moved)
    clear_memos()
    message = (
        "Krein type extension formulas disagree: "
        "companion-product, operator-part-product, eigenspace-graph-sum | inverse-duality"
        '; row in group 1, not in group 2: ["1", "0", "1/4", "3/4"]'
    )
    path = str(tmp_path / "e1.json")
    write_relation(path, s)
    assert main(["extend", path, "--kind", "krein", "--c", "0"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    clear_memos()
    failed = {r.name: r.witness for r in verify_all(e1(), 0) if not r.passed}
    assert failed["codding-identity"] == f"CrossCheckError: {message}"


def test_failed_check_requires_witness():
    from relcalc.harness import CheckResult

    with pytest.raises(ValueError):
        CheckResult("x", False, None)


def test_sample_extremal_e1_exactly_two():
    s = e1()
    found = {h for h in sample_extremal(s, 0, 12, seed=5)}
    assert found == {friedrichs(s, 0), krein(s, 0)}


def test_sample_extremal_gap_zero():
    d = operator_relation(Q2, Q2, mat([[1, 0], [0, 3]]))
    found = {h for h in sample_extremal(d, 0, 4, seed=6)}
    assert found == {d}


def test_sample_extremal_dim4_at_least_three():
    s = dim4_fixture()
    found = {h for h in sample_extremal(s, 0, 10, seed=7)}
    assert len(found) >= 3
    for h in found:
        assert extremal_check(h, s, 0)


def test_sampled_extensions_are_selfadjoint_extensions():
    s, c = random_semibounded(InstanceSpec(dim=4, seed=31, mul_dim=1, restrict_dim=2))
    for h in sample_selfadjoint_extensions(s, 5, seed=8):
        assert is_selfadjoint(h)
        assert h.is_extension_of(s)


def test_a_sampler_that_ignores_the_pairing_is_caught(monkeypatch):
    # With 0 in place of the pairings (g_i, e_j) the form stays symmetric,
    # so H is selfadjoint, but it has left the graph rows of S behind.
    s, _ = random_semibounded(InstanceSpec(dim=4, seed=31, mul_dim=1, restrict_dim=2))
    k, real = parts(s).dom.dim, harness.selfadjoint_from_form

    def unpaired(space, basis, form):
        n = range(form.rows)
        return real(space, basis, mat([[form[i, j] if (i < k) == (j < k) else 0 for j in n] for i in n]))

    monkeypatch.setattr(harness, "selfadjoint_from_form", unpaired)
    with pytest.raises(CrossCheckError) as err:
        sample_selfadjoint_extensions(s, 1, seed=8)
    assert str(err.value) == "a form that is (f', d) on dom S x D built no extension of S"


def test_engineered_nonextremal():
    s = dim4_fixture()
    bad = engineered_nonextremal_extensions(s, 0)
    assert len(bad) >= 3
    tk = form_of_relation(krein(s, 0))
    dom_s = echelon_coords(tk.domain.basis, parts(s).dom.basis)
    for h in bad:
        assert is_selfadjoint(h) and h.is_extension_of(s)
        assert not extremal_check(h, s, 0)
        # What makes H non-extremal: t(H) - t(S_K,0) is positive
        # semidefinite of rank one and vanishes on dom S.
        th = form_of_relation(h)
        assert th.domain == tk.domain
        bump = th.matrix - tk.matrix
        assert certify_lower_bound(QuadraticForm(Q4, tk.domain, bump), 0).ok
        assert rank(bump) == 1
        assert (dom_s @ bump).is_zero()


def test_a_bump_that_does_not_vanish_on_dom_s_is_caught(monkeypatch):
    # Unit coordinate rows in place of the null space of the dom S
    # coordinates: the first bump is nonzero on dom S, so H loses S.
    s = dim4_fixture()
    monkeypatch.setattr(harness, "kernel", lambda cmat: identity(cmat.cols))
    with pytest.raises(CrossCheckError) as err:
        engineered_nonextremal_extensions(s, 0)
    assert str(err.value) == "a rank-one bump of t(S_K,c) vanishing on dom S built no new extension of S"


def test_orthogonal_range_generator():
    for seed in range(6):
        s = random_orthogonal_range_relation(InstanceSpec(dim=3 + seed % 2, seed=seed))
        assert numerical_range_zero(s)
        assert is_symmetric(s)


def test_suite_specs_deterministic_and_bounded():
    specs = suite_specs(20, (2, 6), seed=1)
    assert specs == suite_specs(20, (2, 6), seed=1)
    assert {sp.dim for sp in specs} == {2, 3, 4, 5, 6}
    for sp in specs:
        assert 1 <= sp.restrict_dim <= sp.dim
        assert 0 <= sp.mul_dim <= sp.dim


def test_run_suite_small_and_repeatable():
    reports = run_suite(6, (2, 4), seed=2)
    assert all(r.passed for r in reports)
    again = run_suite(6, (2, 4), seed=2)
    assert reports == again


def test_registry_is_exactly_the_suite():
    results = verify_all(e1(), 0)
    assert [r.name for r in results] == list(REQUIRED_CHECKS)
    assert len(set(REQUIRED_CHECKS)) == len(REQUIRED_CHECKS)


def _random_dim3_with_mul():
    s, c = random_semibounded(InstanceSpec(dim=3, seed=4, mul_dim=1, restrict_dim=2))
    assert parts(s).mul.dim == 1 and c != 0
    return s, c, 4


@pytest.mark.parametrize("make", [lambda: (e1(), 0, 3), _random_dim3_with_mul], ids=["e1", "random-dim3-mul"])
def test_each_check_is_independent_of_the_others(make):
    # A check may share memos with the checks before it, never results.
    s, c, seed = make()
    together = verify_all(s, c, seed=seed)
    assert [r.name for r in together] == [name for name, _ in harness.REGISTRY]
    for (name, fn), expected in zip(harness.REGISTRY, together):
        clear_memos()
        assert harness._run(name, fn, harness._Instance.build(s, c, seed)) == expected


def test_exception_inside_a_check_fails_only_that_check(monkeypatch, capsys):
    def broken(s, c):
        raise ValueError("planted")

    monkeypatch.setattr(harness, "krein_is_operator", broken)
    results = verify_all(e1(), 0, seed=3)
    assert [r.name for r in results] == list(REQUIRED_CHECKS)
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == ["krein-operator-criterion"]
    assert failed[0].witness == "ValueError: planted"

    assert main(["check", "--count", "1", "--dims", "2..2", "--seed", "0"]) == 1
    captured = capsys.readouterr()
    assert "FAIL krein-operator-criterion" in captured.out
    assert "Traceback" not in captured.out + captured.err


def _memo_sizes() -> list[int]:
    return [f.cache_info().currsize for f in _MEMOS]


def test_run_one_starts_a_fresh_cache_scope():
    # After a then b, the caches must hold exactly what b alone leaves.
    a, b = suite_specs(2, (3, 4), seed=5)
    run_one(a)
    first = run_one(b)
    after_both = _memo_sizes()
    assert sum(after_both) > 0
    clear_memos()
    assert run_one(b) == first
    assert _memo_sizes() == after_both


# Every memo caches nothing in these runs: ``functools.lru_cache``, which
# ``linalg.memo`` wraps, is replaced before ``relcalc`` is imported, and
# ``spaces.interned`` shares no basis.  The values cached on a relation by
# ``cached_property`` (``halves``, ``wf``, ``wg``, ``pairing``) are not
# memos and stay.
MEMO_OFF = """
import collections, functools, json, sys

CacheInfo = collections.namedtuple("CacheInfo", "hits misses maxsize currsize")


def lru_cache(maxsize=128, typed=False):
    def uncached(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            return fn(*args, **kwargs)

        call.cache_clear = lambda: None
        call.cache_info = lambda: CacheInfo(0, 0, 0, 0)
        return call

    return uncached(maxsize) if callable(maxsize) else uncached


functools.lru_cache = lru_cache
from relcalc import cli, harness, linalg, spaces
from relation_builders import e1

spaces.interned = lambda m: m
if linalg.rref.cache_info() != CacheInfo(0, 0, 0, 0):
    sys.exit("the memos still cache")
"""
# Runs ``run_one`` on the first seed-0 specs and ``verify_all`` on E1.
MEMO_OFF_RUN = MEMO_OFF + """
reports = [repr(harness.run_one(spec)) for spec in harness.suite_specs(int(sys.argv[1]), (2, 6), 0)]
reports.append(repr(harness.verify_all(e1(), 0, 3)))
json.dump(reports, sys.stdout)
"""
MEMO_OFF_SPECS = 5
# Runs ``extend FILE --kind KIND --format json`` per kind and prints the
# sha256 of each stdout.
MEMO_OFF_EXTEND = MEMO_OFF + """
import contextlib, hashlib, io

digests = {}
for kind in sys.argv[2:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["extend", sys.argv[1], "--kind", kind, "--format", "json"])
    digests[kind] = [code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()]
json.dump(digests, sys.stdout)
"""
MEMO_OFF_EXTEND_FILE = (12, 1, 7, 0)  # (dim, mul, restrict, seed) of an EXTEND_SHA256 file


def _memo_off(script: str, *args: str) -> object:
    tests = os.path.dirname(os.path.abspath(__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([os.path.join(os.path.dirname(tests), "src"), tests])}
    run = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_memos_change_no_report():
    # A memo key that merges two unequal calls, a memo on a function of
    # hidden state or a wrong Mat hash would make a cached run report what
    # an uncached one does not.
    uncached = _memo_off(MEMO_OFF_RUN, str(MEMO_OFF_SPECS))
    cached = [repr(run_one(spec)) for spec in suite_specs(MEMO_OFF_SPECS, (2, 6), 0)]
    clear_memos()
    cached.append(repr(verify_all(e1(), 0, 3)))
    assert uncached == cached


def test_memos_change_no_extension(tmp_path, capsys):
    # The same for ``extend``: with no memo, each kind prints the bytes
    # pinned for the cached run.
    dim, mul, restrict, seed = MEMO_OFF_EXTEND_FILE
    path = str(tmp_path / "r.json")
    assert main(["random", "--dim", str(dim), "--mul", str(mul), "--restrict", str(restrict), "--seed", str(seed), "-o", path]) == 0
    capsys.readouterr()
    pins = EXTEND_SHA256[MEMO_OFF_EXTEND_FILE]
    assert _memo_off(MEMO_OFF_EXTEND, path, *pins) == {kind: [0, stdout_pin] for kind, (stdout_pin, _) in pins.items()}


def test_generator_cross_check_is_not_an_assert(monkeypatch):
    # Under python -O a bare assert would let a non-symmetric instance through.
    monkeypatch.setattr(harness, "is_symmetric", lambda s: False)
    with pytest.raises(CrossCheckError):
        random_semibounded(InstanceSpec(dim=2, seed=0))


def test_a_preamble_failure_fails_only_its_instance(monkeypatch, capsys):
    # The second companion call is the first instance's j_quot.
    real = harness.companion
    calls = []

    def injected(s, q):
        calls.append(None)
        if len(calls) == 2:
            raise CrossCheckError("injected")
        return real(s, q)

    monkeypatch.setattr(harness, "companion", injected)
    assert main(["check", "--count", "4", "--dims", "2..3", "--seed", "0"]) == 1
    out = capsys.readouterr().out.splitlines()
    instances = [line for line in out if line.startswith(("PASS dim=", "FAIL dim="))]
    assert len(instances) == 4
    assert [line.startswith("FAIL") for line in instances] == [True, False, False, False]
    assert "  FAIL preamble: CrossCheckError: injected" in out
    assert out[-1] == "3/4 instances, 1 failures"


def _injected(*args):
    raise CrossCheckError("injected")


@pytest.mark.parametrize(
    ("construction", "name"),
    [
        ("closure", "closure-degenerate"),
        ("weak_friedrichs", "weak-equals-full"),
        ("weak_krein", "weak-equals-full"),
        ("krein", "codding-identity"),
        ("krein_is_operator", "krein-operator-criterion"),
        ("relations_of_form", "relations-of-form"),
        ("friedrichs_from", "repmap-independence-extensions"),
        ("krein_from", "repmap-independence-extensions"),
    ],
)
def test_a_declared_check_fails_with_what_its_construction_raises(construction, name, monkeypatch):
    # A declared check compares nothing itself: it fails exactly when the
    # construction it names raises, with that exception as its witness.
    assert next(r for r in verify_all(e1(), 0) if r.name == name).passed
    monkeypatch.setattr(harness, construction, _injected)
    result = next(r for r in verify_all(e1(), 0) if r.name == name)
    assert result == harness.CheckResult(name, False, "CrossCheckError: injected")


@pytest.mark.parametrize("construction", ["repmap_ldl", "repmap_quotient", "companion"])
def test_a_raising_shared_object_fails_the_declared_preamble_checks_as_one(construction, monkeypatch):
    # repmap-certificate-ldl, repmap-certificate-quotient and dual-pair name
    # the shared objects qrel, qrel2 and j_ldl, j_quot: when building one
    # raises, the instance has the single entry "preamble".
    spec = InstanceSpec(dim=3, seed=5, mul_dim=1, restrict_dim=2)
    monkeypatch.setattr(harness, construction, _injected)
    assert run_one(spec).checks == (harness.CheckResult("preamble", False, "CrossCheckError: injected"),)


def test_a_generator_failure_is_reported_without_c(monkeypatch):
    def broken(spec):
        raise CrossCheckError("planted")

    monkeypatch.setattr(harness, "random_semibounded", broken)
    report = run_one(InstanceSpec(dim=2, seed=0))
    assert report.c is None
    assert [(r.name, r.passed, r.witness) for r in report.checks] == [("preamble", False, "CrossCheckError: planted")]


def test_a_wrong_ldl_map_fails_the_preamble(monkeypatch):
    # repmap-certificate-ldl asserts nothing itself: the RepresentingMap
    # constructor checks Q G_Q Q^T = M - cG inside repmap_ldl, so a map
    # twice too long fails the instance before any check runs.
    real = forms.solve
    monkeypatch.setattr(forms, "solve", lambda a, b: real(a, b).scale(2))
    report = run_one(InstanceSpec(dim=3, seed=5, mul_dim=1, restrict_dim=2))
    assert [(r.name, r.passed, r.witness) for r in report.checks] == [
        ("preamble", False, "CrossCheckError: representing map certificate identity failed")
    ]


def test_a_quotient_map_short_of_its_codomain_fails_the_preamble(monkeypatch):
    # repmap-certificate-quotient asserts nothing itself: repmap_quotient
    # checks that its map fills the codomain.  The images phi' - c phi span
    # ran(S - c), so an honest quotient map always does; a rank counted one
    # short stands in for one that does not.
    real = forms.rank
    monkeypatch.setattr(forms, "rank", lambda m: real(m) - 1)
    report = run_one(InstanceSpec(dim=3, seed=5, mul_dim=1, restrict_dim=2))
    assert [(r.name, r.passed, r.witness) for r in report.checks] == [
        ("preamble", False, "CrossCheckError: the quotient representing map does not fill its codomain")
    ]


def test_closed_form_extends_runs_the_lebesgue_form(monkeypatch):
    # form_s_of is the regular Lebesgue part of J_c*; a regular part that
    # drops its base term c (phi, psi) must fail closed-form-extends.
    real = forms.lebesgue_form

    def without_base(q_rel, c):
        reg, sing = real(q_rel, c)
        return QuadraticForm(reg.space, reg.domain, reg.matrix - reg.domain_gram.scale(c)), sing

    assert all(r.passed for r in verify_all(e1(), 1))
    monkeypatch.setattr(forms, "lebesgue_form", without_base)
    failed = [r for r in verify_all(e1(), 1) if not r.passed]
    assert [r.name for r in failed] == ["closed-form-extends"]


def test_a_wrong_meet_inside_krein_is_operator_fails_its_check(monkeypatch):
    # ran(S - c) in place of ran(S - c) cap mul S*: for e1 at 0 the meet is
    # {0} and ran S is not, so the criterion now disagrees with mul S_K,c
    # and is named alone.
    monkeypatch.setattr(extensions, "intersect", lambda a, b: a)
    clear_memos()
    failed = [r for r in verify_all(e1(), 0) if not r.passed]
    assert [(r.name, r.witness) for r in failed] == [
        ("krein-operator-criterion", "CrossCheckError: Krein operator criteria disagree: range-mul-meet | krein-mul")
    ]


def test_a_failed_shift_roundtrip_carries_s_as_one_json_line(monkeypatch):
    # shift(t, c + 1) in place of shift(t, c) moves S by 2 in the round
    # trip; the witness is S itself, serialized on one line, read back equal.
    s, c = random_semibounded(InstanceSpec(dim=4, seed=3, mul_dim=1, restrict_dim=2))
    real = harness.shift
    monkeypatch.setattr(harness, "shift", lambda t, c0: real(t, c0 + 1))
    clear_memos()
    witness = next(r.witness for r in verify_all(s, c) if r.name == "shift-roundtrip")
    assert witness is not None and "\n" not in witness
    assert parse_relation(json.loads(witness)) == s


def test_order_failures_carry_the_order_witness(monkeypatch):
    # order_leq with its arguments swapped: for e1 at 0, S_F <= S_K,c fails.
    # Both order checks ask it, through H = S_F or S_K,c among the sampled
    # extremal extensions, and must print the vector it found.
    real = harness.order_leq
    monkeypatch.setattr(harness, "order_leq", lambda h, k: real(k, h))
    clear_memos()
    s = e1()
    witness = vector_witness(real(friedrichs(s, 0), krein(s, 0)).witness)
    failed = {r.name: r.witness for r in verify_all(s, 0) if not r.passed}
    assert failed == {
        "order-krein-leq-friedrichs": f"S_K,c > S_F at {witness}",
        "extremal-intermediate": f"sampled extremal extension escapes the order interval at {witness}",
    }


def test_representing_map_failures_name_the_map():
    # mul-companion-intersection checks the LDL and the quotient map in
    # turn; a failure says which of the two is at fault.
    x = harness._Instance.build(e1(), 0, 0)
    mul_companion = dict(harness.REGISTRY)["mul-companion-intersection"]
    assert mul_companion(x) is None
    # Adding {0} x dst to the graph makes mul J all of dst.
    def widened(j):
        return hsum(j, product_relation(zero_subspace(j.src), full_subspace(j.dst)))

    expected = "mul J_c != ran(S-c) cap mul S* for the {} map"
    assert mul_companion(x._replace(j_ldl=widened(x.j_ldl))) == expected.format("LDL")
    assert mul_companion(x._replace(j_quot=widened(x.j_quot))) == expected.format("quotient")


def test_a_companion_outside_the_dual_pair_fails_the_preamble(monkeypatch):
    # dual-pair is asserted by ``companion``: J_c = {{Q phi, 2 (phi' - c phi)}}
    # pairs with Q to 2 (t - c), not t - c, so the first companion call in
    # the shared objects raises and the instance fails as a whole.
    spec = InstanceSpec(dim=3, seed=5, mul_dim=1, restrict_dim=2)
    assert run_one(spec).passed
    real = forms.graph_relation
    monkeypatch.setattr(forms, "graph_relation", lambda src, dst, f, g: real(src, dst, f, g.scale(2)))
    report = run_one(spec)
    clear_memos()
    assert report.checks == (
        harness.CheckResult(
            "preamble", False, "CrossCheckError: companion relation does not form a dual pair with its representing map"
        ),
    )


def test_a_wrong_form_fails_adjoint_form_pairing_at_the_first_phi():
    # t(S) with 1 added at its last diagonal entry: t(S)[phi, d] and
    # (phi', d) differ exactly when phi has a nonzero last coordinate in the
    # basis of dom S.  The rows phi of S* over dom S are that basis, then
    # zeros, so the first phi at fault is the last basis vector.
    s, c = random_semibounded(InstanceSpec(dim=4, seed=2, mul_dim=1, restrict_dim=3))
    clear_memos()
    x = harness._Instance.build(s, c, 2)
    check = dict(harness.REGISTRY)["adjoint-form-pairing"]
    assert check(x) is None
    k = x.t.domain.dim - 1
    assert k >= 1
    bump = mat([[int(i == j == k) for j in range(k + 1)] for i in range(k + 1)])
    wrong = x._replace(t=QuadraticForm(x.t.space, x.t.domain, x.t.matrix + bump))
    expected = vector_witness(x.t.domain.basis.row(k))
    assert check(wrong) == "pairing (phi', psi) != t(S)[phi, psi] at " + expected


def _doubled_at(real, args):
    """``real`` with the second components of its value doubled on the
    arguments ``args`` alone."""
    return lambda *given: scale(real(*given), 2) if given == args else real(*given)


def test_repmap_independence_extensions_catches_each_quotient_route(monkeypatch):
    # Each route the check runs at the quotient map is moved alone, by a
    # patch in extensions that acts on that map's objects only: the check
    # fails with the route alone in its group, and friedrichs and krein,
    # from the LDL^T map, still pass.
    s, c, seed = _random_dim3_with_mul()
    clear_memos()
    x = harness._Instance.build(s, c, seed)
    check = dict(harness.REGISTRY)["repmap-independence-extensions"]
    assert check(x) is None
    f, k = friedrichs(s, c), krein(s, c)
    faults = {
        # c + Q*Q**, Q the quotient map of (S, c)
        "repmap-product": ("relations_of_form", (x.qrel2, c)),
        # c + J**J*, J its companion
        "companion-product": ("closure", (x.j_quot,)),
        # c + R*R**, R = (J*)_reg
        "operator-part-product": ("regular_part", (adjoint(x.j_quot),)),
        # c + (((S - c)^{-1})_F)^{-1}, from the quotient map of the inverse at 0
        "inverse-duality": ("friedrichs_from", (inverse(shift(s, -c)), 0, repmap_quotient)),
    }
    for route, (name, args) in faults.items():
        with monkeypatch.context() as m:
            m.setattr(extensions, name, _doubled_at(getattr(extensions, name), args))
            clear_memos()
            with pytest.raises(CrossCheckError) as err:
                check(x)
            groups = str(err.value).split(" disagree: ")[1].partition("; row in group ")[0].split(" | ")
            assert len(groups) == 2 and route in groups, (route, str(err.value))
            clear_memos()
            assert (friedrichs(s, c), krein(s, c)) == (f, k)


def test_order_interval_equivalence_asserts_h_below_s_f_for_every_h(monkeypatch):
    # S_F is the largest selfadjoint extension, also of the sampled H that
    # are not >= c, where S_K,c <= H fails first.  The planted order denies
    # H <= S_F for exactly those H, so only the comparison on its own sees it.
    # The draw seed 5 gives one H that is not >= c.
    s, c, _ = _random_dim3_with_mul()
    x = harness._Instance.build(s, c, 5)
    name = "order-interval-equivalence"
    check = dict(harness.REGISTRY)[name]
    assert check(x) is None
    below_c = [h for h in sample_selfadjoint_extensions(x.s, 5, x.seed * 11 + 5) if not is_nonneg_above(h, x.c).ok]
    assert below_c
    f, real = friedrichs(x.s, x.c), extensions.order_leq

    def denied_below_c(h, k):
        return OrderResult(False, None) if k == f and h in below_c else real(h, k)

    monkeypatch.setattr(extensions, "order_leq", denied_below_c)
    result = harness._run(name, check, x)
    assert not result.passed
    assert "not below the Friedrichs extension" in result.witness


def test_friedrichs_triple_compares_the_forms_of_s_f_and_s(monkeypatch):
    x = harness._Instance.build(*_random_dim3_with_mul())
    check = dict(harness.REGISTRY)["friedrichs-triple"]
    assert check(x) is None
    f = friedrichs(x.s, x.c)
    real = harness.form_of_relation

    def doubled_for_s_f(r):
        t = real(r)
        return QuadraticForm(t.space, t.domain, t.matrix.scale(2)) if r == f else t

    monkeypatch.setattr(harness, "form_of_relation", doubled_for_s_f)
    assert check(x) == "t(S_F) != t(S)"


def _times_linear(p, r):
    """The coefficients of p(x) (den x - num), r = num / den."""
    return tuple(r.denominator * a - r.numerator * b for a, b in zip((0, *p), (*p, 0)))


def _shifted(t, delta):
    """t + delta: every root of its pencil polynomial moves up by delta."""
    return QuadraticForm(t.space, t.domain, t.matrix + t.domain_gram.scale(delta))


@pytest.mark.parametrize(
    "name, fake, witness",
    [
        # ker(S_K - c) read at c + 1 instead
        ("eigenspace", lambda x, real: lambda t, c: real(t, c + 1) if t == krein(x.s, x.c) else real(t, c),
         "ker(S_K - c) != ker(S* - c)"),
        # every root moved up by 1/1000: c is no root, and none lies below it
        ("pencil_polynomial", lambda x, real: lambda t: real(_shifted(t, Fraction(1, 1000))),
         "c is not a root of det(M - cG) for t(S_K)"),
        # c stays a root, and a root at c - 1 joins it
        ("pencil_polynomial", lambda x, real: lambda t: _times_linear(real(t), x.c - 1),
         "det(M - cG) for t(S_K) has a root below c"),
    ],
    ids=["eigenspace", "root", "psd"],
)
def test_krein_quadruple_catches_each_exact_bound_comparison(monkeypatch, name, fake, witness):
    x = harness._Instance.build(*_random_dim3_with_mul())
    assert harness.eigenspace(x.sstar, x.c).dim > 0
    check = dict(harness.REGISTRY)["krein-quadruple"]
    assert check(x) is None
    monkeypatch.setattr(harness, name, fake(x, getattr(harness, name)))
    assert check(x) == witness


# ------------------------------------------ the sampler draws a domain and a block


def test_a_selfadjoint_relation_is_its_only_sampled_extension():
    # dom S = dom S*: no row completes dom S, so D = dom S and H = S_F = S.
    s, _ = random_semibounded(InstanceSpec(dim=4, seed=3, mul_dim=1, restrict_dim=4))
    assert is_selfadjoint(s)
    assert sample_selfadjoint_extensions(s, 3, 9) == [s, s, s]


@given(
    dim=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10**6),
    mul=st.integers(min_value=0, max_value=3),
    restrict=st.integers(min_value=0, max_value=4),
    draw_seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=40, deadline=None)
def test_every_draw_on_small_relations_is_a_selfadjoint_extension(dim, seed, mul, restrict, draw_seed):
    spec = InstanceSpec(dim=dim, seed=seed, mul_dim=min(mul, dim), restrict_dim=min(restrict, dim))
    s, _ = random_semibounded(spec)
    for h in sample_selfadjoint_extensions(s, 3, draw_seed):
        assert is_selfadjoint(h) and h.is_extension_of(s)


def _symmetric_blocks(m):
    """Every symmetric m x m matrix with entries in {-1, 0, 1}."""
    cells = [(i, j) for i in range(m) for j in range(i, m)]
    for values in itertools.product((-1, 0, 1), repeat=len(cells)):
        entries = dict(zip(cells, values))
        yield mat([[entries[min(i, j), max(i, j)] for j in range(m)] for i in range(m)]) if m else zeros(0, 0)


def test_every_small_domain_and_block_builds_a_distinct_extension():
    # Bounded-exhaustive: each subset E of the two rows completing dom S to
    # dom S*, with each symmetric block on E x E with entries in {-1, 0, 1}.
    s, c = random_semibounded(InstanceSpec(dim=3, seed=10, mul_dim=0, restrict_dim=1))
    dom = parts(s).dom
    gap = extending(dom, parts(adjoint(s)).dom.basis)
    assert gap.rows == 2
    drawn = [
        harness._extension_of_block(s, gap.take(rows), block)
        for m in range(3)
        for rows in itertools.combinations(range(2), m)
        for block in _symmetric_blocks(m)
    ]
    assert len(set(drawn)) == len(drawn) == 34
    assert drawn[0] == friedrichs(s, c)  # D = dom S
    outcomes = set()
    for h in drawn:
        assert is_selfadjoint(h) and h.is_extension_of(s)
        assert extension_interval_check(s, c, h)
        above, extremal = is_nonneg_above(h, c).ok, extremal_check(h, s, c)
        assert extremal == (above and extremal_from_domain(s, c, parts(h).dom) == h)
        outcomes.add((above, extremal))
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_sampled_forms_stay_small():
    # Entry size is the cost of every later PSD decision on a draw.
    s, _ = random_semibounded(InstanceSpec(16, 1, 0, 8))
    for h in sample_selfadjoint_extensions(s, 5, 0):
        m = form_of_relation(h).matrix
        entries = (m[i, j] for i in range(m.rows) for j in range(m.cols))
        assert max(abs(q.numerator).bit_length() + q.denominator.bit_length() for q in entries) < 1000


def _abstract_map() -> list[str]:
    """The numbered lines of README's map from the abstract to the checks."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("### The abstract and the checks that test it\n", 1)[1]
    section = section.split("\n#", 1)[0]
    return [line for line in section.splitlines() if re.match(r"\d+\. ", line)]


def test_the_readme_maps_each_abstract_sentence_to_registered_checks():
    # Five sentences; each line names the checks after its last colon.
    lines = _abstract_map()
    assert [line.split(".", 1)[0] for line in lines] == ["1", "2", "3", "4", "5"]
    for line in lines:
        names = re.findall(r"`([^`]+)`", line.rsplit(": ", 1)[1])
        assert names and set(names) <= set(harness.REQUIRED_CHECKS), line
