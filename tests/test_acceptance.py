"""Acceptance criteria, one test per criterion, all zero-tolerance.

Run with `pytest tests/test_acceptance.py -v` (or -s for the explicit
criterion lines).  The shared corpus is the same 200 seeded instances the
`relcalc check --count 200 --dims 2..6 --seed 0` run uses.
"""

import functools
import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from relcalc.cli import main
from relcalc.extensions import (
    extension_interval_check,
    extremal_check,
    friedrichs,
    krein,
    relations_of_form,
)
from relcalc.forms import (
    certify_lower_bound,
    companion,
    dom_companion_by_inequality,
    form_of_relation,
    ran_adjoint_by_inequality,
    repmap_ldl,
    repmap_quotient,
    scalar_repmap,
    stack_relations,
)
from relcalc.harness import (
    InstanceSpec,
    engineered_nonextremal_extensions,
    random_orthogonal_range_relation,
    random_semibounded,
    sample_extremal,
    sample_selfadjoint_extensions,
    suite_specs,
)
from relcalc.linalg import identity, mat, vec
from relcalc.relations import (
    LinearRelation,
    adjoint,
    closure,
    compose,
    eigenspace,
    inverse,
    numerical_range_zero,
    parts,
    product_relation,
    relation_from_pairs,
    regular_part,
    shift,
)
from relcalc.spaces import (
    InnerProductSpace,
    complement,
    intersect,
    product_space,
    span,
    standard_space,
)

from relation_builders import e1, e2, operator_relation
from vectors import combination, form_value, member

Q1 = standard_space(1)
Q2 = standard_space(2)
Q3 = standard_space(3)

CORPUS_SEED = 0
CORPUS_SIZE = 200
CORPUS_DIMS = (2, 6)


def criterion(number: int, title: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} [{title}]: FAIL")
                raise
            print(f"criterion {number:2d} [{title}]: PASS")

        return wrapper

    return deco


@pytest.fixture(scope="module")
def corpus():
    out = []
    for sp in suite_specs(CORPUS_SIZE, CORPUS_DIMS, seed=CORPUS_SEED):
        s, c = random_semibounded(sp)
        out.append((sp, s, c))
    return out


@criterion(1, "adjoint calculus, 200 random relations under 10 s")
def test_criterion_01_adjoint_calculus():
    rng = random.Random(1001)
    start = time.monotonic()
    for i in range(200):
        n = 2 + i % 5
        b = mat([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
        space = InnerProductSpace(n, (b.T @ b) + identity(n))
        k = rng.randint(0, 2 * n)
        vecs = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(2 * n)]
            for _ in range(k)
        ]
        t = LinearRelation(space, space, span(product_space(space, space), vecs))
        assert adjoint(adjoint(t)) == t
        assert parts(adjoint(t)).mul == complement(parts(t).dom)
        assert inverse(adjoint(t)) == adjoint(inverse(t))
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"adjoint calculus took {elapsed:.1f} s"


@criterion(2, "Friedrichs triple agreement on 200 instances")
def test_criterion_02_friedrichs_triple(corpus):
    failures = []
    for sp, s, c in corpus:
        try:
            f = friedrichs(s, c)  # internally cross-checks all three formulas
        except Exception as exc:  # noqa: BLE001 - collecting for the report
            failures.append((sp, str(exc)))
            continue
        if not f.is_extension_of(s) or parts(f).mul != parts(adjoint(s)).mul:
            failures.append((sp, "extension or mul property failed"))
    assert not failures, failures[:3]


@criterion(3, "Krein quadruple agreement and exact bound on 200 instances")
def test_criterion_03_krein_quadruple(corpus):
    failures = []
    attained = 0
    for sp, s, c in corpus:
        try:
            k = krein(s, c)  # internally cross-checks all four formulas
        except Exception as exc:  # noqa: BLE001
            failures.append((sp, str(exc)))
            continue
        tk = form_of_relation(k)
        if not certify_lower_bound(tk, c).ok:
            failures.append((sp, "bound lost"))
            continue
        if eigenspace(adjoint(s), c).dim > 0:
            attained += 1
            if certify_lower_bound(tk, c + Fraction(1, 1000)).ok:
                failures.append((sp, "bound not exactly c"))
    assert not failures, failures[:3]
    assert attained >= 50  # the corpus exercises the exact-bound branch


@criterion(4, "order interval equivalence on sampled extensions")
def test_criterion_04_order_interval(corpus):
    failures = []
    for sp, s, c in corpus:
        for h in sample_selfadjoint_extensions(s, 5, seed=sp.seed * 13 + 5):
            if not extension_interval_check(s, c, h):
                failures.append(sp)
                break
    assert not failures, failures[:3]


@criterion(5, "mul J_c = ran(S-c) cap mul S* on 200 instances")
def test_criterion_05_mul_companion(corpus):
    failures = []
    nontrivial = 0
    for sp, s, c in corpus:
        q = repmap_ldl(form_of_relation(s), c)
        j = companion(s, q)
        expected = intersect(parts(shift(s, -c)).ran, parts(adjoint(s)).mul)
        if parts(j).mul != expected:
            failures.append(sp)
        if expected.dim > 0:
            nontrivial += 1
    assert not failures, failures[:3]
    assert nontrivial >= 20  # engineered instances with nontrivial intersection


@criterion(6, "representing-map independence: LDL vs quotient")
def test_criterion_06_repmap_independence(corpus):
    failures = []
    for sp, s, c in corpus:
        t = form_of_relation(s)
        q1 = repmap_ldl(t, c).as_relation()
        q2 = repmap_quotient(s, c).as_relation()
        j1 = companion(s, repmap_ldl(t, c))
        j2 = companion(s, repmap_quotient(s, c))
        reg2 = regular_part(adjoint(j2))
        qinv = repmap_quotient(inverse(shift(s, -c)), 0).as_relation()
        k = krein(s, c)
        if compose(adjoint(q1), q1) != compose(adjoint(q2), q2):
            failures.append((sp, "Q*Q"))
        elif compose(j1, adjoint(j1)) != compose(j2, adjoint(j2)):
            failures.append((sp, "J J*"))
        elif shift(compose(adjoint(q2), closure(q2)), c) != friedrichs(s, c):
            failures.append((sp, "friedrichs"))
        elif shift(compose(closure(j2), adjoint(j2)), c) != k:
            failures.append((sp, "krein: J**J*"))
        elif shift(compose(adjoint(reg2), closure(reg2)), c) != k:
            failures.append((sp, "krein: operator part"))
        elif shift(inverse(compose(adjoint(qinv), closure(qinv))), c) != k:
            failures.append((sp, "krein: inverse duality"))
    assert not failures, failures[:3]


@criterion(7, "inequality criteria match ran Q_c* and dom J_c*")
def test_criterion_07_inequality_criteria(corpus):
    failures = []
    for sp, s, c in corpus:
        rng = random.Random(sp.seed * 17 + 7)
        q = repmap_ldl(form_of_relation(s), c)
        ran_qstar = parts(adjoint(q.as_relation())).ran
        dom_jstar = parts(adjoint(companion(s, q))).dom
        n = s.src.dim
        probes = []
        for sub in (ran_qstar, dom_jstar):
            if sub.dim > 0:
                for _ in range(3):
                    combo = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(sub.dim)]
                    probes.append(combination(sub.basis, combo))
        while len(probes) < 10:
            probes.append(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)))
        for v in probes:
            if ran_adjoint_by_inequality(s, c, v) != member(v, ran_qstar):
                failures.append((sp, "halfFr", v))
                break
            if dom_companion_by_inequality(s, c, v) != member(v, dom_jstar):
                failures.append((sp, "domJ*", v))
                break
    assert not failures, failures[:3]


@criterion(8, "extremality: definitional and sandwich tests agree")
def test_criterion_08_extremality(corpus):
    # E1 fixture: diag(1,3) is not extremal; the infimum at f = (1,-1) over
    # h = t*(1,1) of (1-t)^2 + 3(1+t)^2 is 3, attained at t = -1/2.
    s = e1()
    h = operator_relation(Q2, Q2, mat([[1, 0], [0, 3]]))
    th = form_of_relation(h)
    f = vec([1, -1])
    best = min(
        form_value(
            th,
            tuple(a - t * b for a, b in zip(f, vec([1, 1]))),
            tuple(a - t * b for a, b in zip(f, vec([1, 1]))),
        )
        for t in [Fraction(num, 4) for num in range(-8, 9)]
    )
    t_star = Fraction(-1, 2)
    diff = tuple(a - t_star * b for a, b in zip(f, vec([1, 1])))
    assert form_value(th, diff, diff) == 3
    assert best == 3
    assert not extremal_check(h, s, 0)

    failures = []
    engineered_total = 0
    for sp, s_i, c in corpus:
        try:
            # extremal_check cross-asserts both characterizations on every call.
            if not extremal_check(friedrichs(s_i, c), s_i, c):
                failures.append((sp, "S_F not extremal"))
                continue
            if not extremal_check(krein(s_i, c), s_i, c):
                failures.append((sp, "S_K not extremal"))
                continue
            for x in sample_extremal(s_i, c, 3, seed=sp.seed * 13 + 8):
                if not extremal_check(x, s_i, c):
                    failures.append((sp, "sampled intermediate not extremal"))
                    break
            bad = engineered_nonextremal_extensions(s_i, c, 3)
            engineered_total += len(bad)
            for x in bad:
                if extremal_check(x, s_i, c):
                    failures.append((sp, "engineered extension tested extremal"))
                    break
        except Exception as exc:  # noqa: BLE001
            failures.append((sp, f"{type(exc).__name__}: {exc}"))
    assert not failures, failures[:3]
    assert engineered_total >= 3 * 50  # plenty of instances have room


@criterion(9, "orthogonal-domain-range suite and E2 fixture")
def test_criterion_09_orthogonal_domain_range(corpus):
    s = e2()
    assert friedrichs(s, 0) == product_relation(
        span(Q3, [vec([1, 0, 0])]), span(Q3, [vec([0, 1, 0]), vec([0, 0, 1])])
    )
    assert krein(s, 0) == product_relation(
        span(Q3, [vec([1, 0, 0]), vec([0, 0, 1])]), span(Q3, [vec([0, 1, 0])])
    )
    assert friedrichs(s, 0) != krein(s, 0)

    failures = []
    for seed in range(50):
        spec = InstanceSpec(dim=2 + seed % 4, seed=7000 + seed)
        r = random_orthogonal_range_relation(spec)
        assert numerical_range_zero(r)
        p, ps = parts(r), parts(adjoint(r))
        if friedrichs(r, 0) != product_relation(p.dom, ps.mul):
            failures.append((seed, "frie"))
            continue
        if krein(r, 0) != product_relation(ps.ker, p.ran):
            failures.append((seed, "krei"))
            continue
        for h in sample_selfadjoint_extensions(r, 3, seed=9000 + seed):
            if numerical_range_zero(h) != extremal_check(h, r, 0):
                failures.append((seed, "W(H)=0 vs extremal"))
                break
    assert not failures, failures[:3]


@criterion(10, "singular representing relations and the stacked map")
def test_criterion_10_singular_representing_relations():
    # Fixtures: the full singular relation on a line, and a plane relation
    # with one-dimensional domain whose range sits inside its multivalued
    # part.
    q_line = relation_from_pairs(Q1, Q1, [(vec([1]), vec([1])), (vec([0]), vec([1]))])
    q_plane = relation_from_pairs(
        Q2, Q2, [(vec([1, 0]), vec([0, 1])), (vec([0, 0]), vec([0, 1]))]
    )
    from relcalc.relations import regular_part

    for q in (q_line, q_plane):
        p = parts(q)
        # relations_of_form verifies (SArel1) and (SArel2) internally for
        # singular inputs; repeat the product identities explicitly.
        s_t = relations_of_form(q, 0)
        assert s_t == product_relation(p.ker, complement(p.dom))
        reg = compose(adjoint(regular_part(q)), regular_part(q))
        assert reg == product_relation(p.dom, complement(p.dom))

    for q in (q_line, q_plane):
        dom = parts(q).dom
        for c in (Fraction(-1), Fraction(-5, 2)):
            qc = stack_relations(scalar_repmap(dom, c).as_relation(), q)
            lhs = compose(adjoint(qc), qc)
            rhs = shift(compose(adjoint(q), q), -c)
            assert lhs == rhs


@criterion(11, "E1 end-to-end fixture")
def test_criterion_11_e1_end_to_end():
    s = e1()
    t = form_of_relation(s)
    from relcalc.forms import bound_bisect

    interval = bound_bisect(t, Fraction(1, 64))
    assert interval.lo <= 2 < interval.hi
    assert certify_lower_bound(t, 2).ok

    f = friedrichs(s, 0)
    assert parts(f).dom == span(Q2, [vec([1, 1])])
    assert parts(f).mul == span(Q2, [vec([1, -1])])
    from relcalc.relations import regular_part

    assert regular_part(f) == relation_from_pairs(Q2, Q2, [(vec([1, 1]), vec([2, 2]))])

    k = krein(s, 0)
    expected = operator_relation(
        Q2, Q2, mat([[Fraction(1, 4), Fraction(3, 4)], [Fraction(3, 4), Fraction(9, 4)]])
    )
    assert k == expected

    found = {h for h in sample_extremal(s, 0, 12, seed=11)}
    assert found == {f, k}
    for h in sample_selfadjoint_extensions(s, 8, seed=12):
        assert extremal_check(h, s, 0) == (h in (f, k))


# sha256 of the stdout of `relcalc check --count 200 --dims 2..6 --seed 0
# --format json`: a refactor must leave every result and witness alone.
CHECK_200_SEED0_SHA256 = "c702d693d217350910835311fa4ad3f19882c9006dc4a2219bfe77257edc9ba8"


@criterion(12, "full check command: 200 instances, < 60 s, bit-identical rerun")
def test_criterion_12_full_check(capsys):
    start = time.monotonic()
    code = main(["check", "--count", "200", "--dims", "2..6", "--seed", "0", "--format", "json"])
    elapsed = time.monotonic() - start
    first = capsys.readouterr().out
    assert code == 0
    data = json.loads(first)
    assert data["summary"] == "200/200 instances, 0 failures"
    assert elapsed < 60, f"check took {elapsed:.1f} s"
    assert hashlib.sha256(first.encode("utf-8")).hexdigest() == CHECK_200_SEED0_SHA256

    code = main(["check", "--count", "200", "--dims", "2..6", "--seed", "0", "--format", "json"])
    second = capsys.readouterr().out
    assert code == 0
    assert first == second
