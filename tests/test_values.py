"""Value semantics of the value classes: built twice they are equal, hash
alike and print alike; no field can be reassigned, since values are memo
keys; and each constructor keeps its validation."""

from fractions import Fraction

import pytest

from relcalc import harness
from relcalc.errors import CrossCheckError
from relcalc.extensions import friedrichs, krein, order_leq
from relcalc.forms import (
    BoundInterval,
    QuadraticForm,
    RepresentingMap,
    bound_bisect,
    form_of_relation,
    repmap_ldl,
)
from relcalc.harness import CheckResult, InstanceSpec, random_semibounded, run_one
from relcalc.linalg import clear_memos, hstack, identity, ldl_psd_certificate, mat, zeros
from relcalc.relations import LinearRelation, product_relation
from relcalc.spaces import InnerProductSpace, Subspace, product_space, span, standard_space

SPEC = dict(dim=3, seed=5, mul_dim=1, restrict_dim=2)

# Each value class and one of its fields.
FIELDS = {
    "PsdCertificate": "perm",
    "PsdResult": "certificate",
    "InnerProductSpace": "gram",
    "Subspace": "basis",
    "LinearRelation": "graph",
    "QuadraticForm": "matrix",
    "BoundInterval": "lo",
    "RepresentingMap": "base_point",
    "OrderResult": "leq",
    "InstanceSpec": "seed",
    "CheckResult": "passed",
    "_Instance": "c",
    "InstanceReport": "checks",
}


def build_values() -> dict:
    """One value of each class, every one built from scratch."""
    spec = InstanceSpec(**SPEC)
    report = run_one(spec)
    clear_memos()
    s, c = random_semibounded(spec)
    t = form_of_relation(s)
    psd = ldl_psd_certificate(t.matrix - t.domain_gram.scale(c))
    return {
        "PsdCertificate": psd.certificate,
        "PsdResult": psd,
        "InnerProductSpace": s.src,
        "Subspace": s.graph,
        "LinearRelation": s,
        "QuadraticForm": t,
        "BoundInterval": bound_bisect(t, Fraction(1, 64)),
        "RepresentingMap": repmap_ldl(t, c),
        "OrderResult": order_leq(krein(s, c), friedrichs(s, c)),
        "InstanceSpec": spec,
        "CheckResult": report.checks[0],
        "_Instance": harness._Instance.build(s, c, spec.seed),
        "InstanceReport": report,
    }


@pytest.fixture(scope="module")
def twice():
    return build_values(), build_values()


@pytest.mark.parametrize("name", FIELDS)
def test_values_built_twice_are_one_value(twice, name):
    a, b = twice[0][name], twice[1][name]
    assert type(a).__name__ == name
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b)
    assert repr(a).startswith(f"{name}(") and f"{FIELDS[name]}=" in repr(a)


@pytest.mark.parametrize("name", FIELDS)
def test_no_field_can_be_reassigned(twice, name):
    a, b = twice[0][name], twice[1][name]
    field = FIELDS[name]
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert getattr(a, field) is before


def test_product_space_skips_only_the_certificate():
    h, k = standard_space(1), InnerProductSpace(2, mat([[2, 1], [1, 3]]))
    hk = product_space(h, k)
    assert hk == InnerProductSpace(3, mat([[1, 0, 0], [0, 2, 1], [0, 1, 3]]))
    with pytest.raises(AttributeError):
        hk.dim = 4


def test_a_bracket_ignores_its_pencil():
    # The pencil only feeds the display estimate: two brackets with the same
    # ends are one value whatever polynomial they carry.
    a = BoundInterval(Fraction(1, 2), Fraction(3, 4), (1, -2))
    b = BoundInterval(Fraction(1, 2), Fraction(3, 4), (2, 0, -1))
    assert a.pencil != b.pencil
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == "BoundInterval(lo=Fraction(1, 2), hi=Fraction(3, 4))"


def test_every_constructor_keeps_its_validation():
    with pytest.raises(ValueError, match="mul_dim"):
        InstanceSpec(dim=2, seed=0, mul_dim=3)
    with pytest.raises(ValueError, match="restrict_dim"):
        InstanceSpec(dim=2, seed=0, restrict_dim=-1)
    with pytest.raises(ValueError, match="witness"):
        CheckResult("planted", False)

    q2 = standard_space(2)
    with pytest.raises(ValueError, match="dim x dim"):
        InnerProductSpace(3, identity(2))
    with pytest.raises(ValueError, match="symmetric"):
        InnerProductSpace(2, mat([[1, 1], [0, 1]]))
    with pytest.raises(ValueError, match="positive definite"):
        InnerProductSpace(2, mat([[1, 0], [0, 0]]))

    with pytest.raises(ValueError, match="ambient space"):
        Subspace(q2, identity(3))
    with pytest.raises(ValueError, match="reduced echelon"):
        Subspace(q2, mat([[2, 0]]))

    line = span(q2, [[1, 0]])
    with pytest.raises(ValueError, match="carrying space"):
        QuadraticForm(standard_space(3), line, identity(1))
    with pytest.raises(ValueError, match="square"):
        QuadraticForm(q2, line, identity(2))
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticForm(q2, span(q2, [[1, 0], [0, 1]]), mat([[1, 1], [0, 1]]))

    # The graph of line x line lives in Q2 (+) Q2; a weighted source of
    # the same dimension gives another product space.
    graph = product_relation(line, line).graph
    with pytest.raises(ValueError, match="product of src and dst"):
        LinearRelation(InnerProductSpace(2, mat([[2, 1], [1, 3]])), q2, graph)

    s, c = random_semibounded(InstanceSpec(**SPEC))
    q = repmap_ldl(form_of_relation(s), c)
    with pytest.raises(ValueError, match="wrong shape"):
        RepresentingMap(q.form, q.codomain, hstack(q.matrix, zeros(q.matrix.rows, 1)), q.base_point)
    with pytest.raises(CrossCheckError, match="identity"):
        RepresentingMap(q.form, q.codomain, q.matrix, q.base_point + 1)
