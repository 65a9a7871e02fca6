from fractions import Fraction

import pytest

from relcalc import forms
from relcalc.errors import BoundCertificationError, CrossCheckError, PreconditionError
from relcalc.extensions import krein
from relcalc.forms import (
    QuadraticForm,
    bound_bisect,
    certify_lower_bound,
    companion,
    dom_companion_by_inequality,
    form_of_relation,
    form_s_of,
    inequality_domain_subspace,
    inequality_range_subspace,
    lebesgue_form,
    ran_adjoint_by_inequality,
    repmap_from_operator,
    repmap_ldl,
    repmap_quotient,
    scalar_repmap,
    shifted_matrix,
    stack_relations,
)
from relcalc.harness import InstanceSpec, random_semibounded
from relcalc.linalg import PsdCertificate, PsdResult, block_diag, clear_memos, hstack, identity, mat, vec, zeros
from relcalc.relations import (
    adjoint,
    compose,
    inverse,
    lifts,
    parts,
    relation_from_pairs,
    shift,
)
from relcalc.spaces import InnerProductSpace, span, standard_space, zero_subspace

from relation_builders import e1, e2, full_subspace, operator_relation
from vectors import form_value, inner, member

Q1 = standard_space(1)
Q2 = standard_space(2)
Q3 = standard_space(3)


def test_form_of_e1():
    t = form_of_relation(e1())
    assert t.domain == span(Q2, [vec([1, 1])])
    assert t.matrix == mat([[4]])


def test_form_of_zero_operator():
    z = operator_relation(Q2, Q2, mat([[0, 0], [0, 0]]))
    t = form_of_relation(z)
    assert t.domain == full_subspace(Q2)
    assert t.matrix == zeros(2, 2)


def test_form_of_orthogonal_dom_ran_is_null():
    t = form_of_relation(e2())
    assert t.matrix == zeros(1, 1)


def test_form_rejects_nonsymmetric():
    r = relation_from_pairs(Q2, Q2, [(vec([1, 0]), vec([0, 1])), (vec([0, 1]), vec([1, 0]))])
    # (e2, e2) = 1 but (e1, e1) = 1 as well; this one is symmetric, so use a
    # genuinely asymmetric pairing instead.
    bad = relation_from_pairs(Q2, Q2, [(vec([1, 0]), vec([0, 1])), (vec([0, 1]), vec([-1, 0]))])
    with pytest.raises(PreconditionError):
        form_of_relation(bad)
    assert form_of_relation(r).matrix.is_symmetric()


def test_certify_e1():
    t = form_of_relation(e1())
    assert certify_lower_bound(t, 2).ok
    res = certify_lower_bound(t, 3)
    assert not res.ok
    phi = res.witness
    assert form_value(t, phi, phi) < 3 * inner(Q2, phi, phi)
    assert certify_lower_bound(t, -(10**6)).ok


def test_the_shift_by_zero_is_the_form_matrix_itself():
    t = form_of_relation(e1())
    assert shifted_matrix(t, 0) is t.matrix
    assert shifted_matrix(t, Fraction(0)) is t.matrix
    assert shifted_matrix(t, 1) == mat([[2]])  # 4 - 1 * (1, 1).(1, 1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_fused_shift_is_the_matrix_minus_the_scaled_gram(seed):
    # shifted_matrix forms M - cG in one pass over the rows; it must be the
    # two-pass M - (cG), on weighted domain Grams, at an int, a negative
    # and a 256-bit-denominator c, and M itself at c = 0.
    s, c = random_semibounded(InstanceSpec(seed=seed, dim=6, mul_dim=1, restrict_dim=4))
    t = form_of_relation(s)
    assert t.domain_gram != identity(t.domain.dim)
    for shift_by in (3, -7, c, -c, Fraction(2**255 + 1, 3 * 2**256), Fraction(-(3**160), 2**256 - 189)):
        assert shifted_matrix(t, shift_by) == t.matrix - t.domain_gram.scale(shift_by)
    assert shifted_matrix(t, 0) is t.matrix


def test_bound_bisect_e1():
    t = form_of_relation(e1())
    interval = bound_bisect(t, Fraction(1, 8))
    assert interval.lo <= 2 < interval.hi
    assert interval.hi - interval.lo <= Fraction(1, 8)
    assert certify_lower_bound(t, interval.lo).ok
    assert not certify_lower_bound(t, interval.hi).ok
    assert abs(interval.estimate - 2.0) < 1e-9
    # The bound is attained rationally, so the bracket search pins it exactly.
    assert interval.lo == 2


def test_bound_bisect_identity():
    t = form_of_relation(operator_relation(Q2, Q2, mat([[1, 0], [0, 1]])))
    interval = bound_bisect(t, Fraction(1, 16))
    assert interval.lo <= 1 < interval.hi
    assert certify_lower_bound(t, 1).ok


def test_bound_bisect_rejects_empty_domain():
    t = QuadraticForm(Q2, zero_subspace(Q2), zeros(0, 0))
    with pytest.raises(PreconditionError):
        bound_bisect(t, Fraction(1, 8))


def test_repmap_ldl_e1_base_zero():
    t = form_of_relation(e1())
    q = repmap_ldl(t, 0)
    assert q.codomain.dim == 1
    assert q.codomain.gram == mat([[4]])
    assert q.matrix == mat([[1]])
    # (Q phi, Q phi) = 4 t^2 = t(S)[phi] for phi = (t, t).
    image = lifts(q.as_relation(), mat([[5, 5]]))
    assert (image @ q.codomain.gram).mul_t(image) == mat([[100]])


def test_repmap_ldl_degenerate_at_the_bound():
    t = form_of_relation(e1())
    q = repmap_ldl(t, 2)
    assert q.codomain.dim == 0
    assert (q.matrix.rows, q.matrix.cols) == (t.domain.dim, 0)


def test_repmap_ldl_zero_form():
    z = operator_relation(Q2, Q2, mat([[0, 0], [0, 0]]))
    q = repmap_ldl(form_of_relation(z), 0)
    assert q.codomain.dim == 0


def test_repmap_ldl_requires_certificate():
    with pytest.raises(BoundCertificationError):
        repmap_ldl(form_of_relation(e1()), 3)


def _on_plane(m):
    """The form with matrix ``m`` on all of Q2."""
    return QuadraticForm(Q2, full_subspace(Q2), mat(m))


def _pivots(t, c):
    cert = certify_lower_bound(t, c).certificate
    return cert.perm[: sum(1 for d in cert.diag if d)]


def test_repmap_ldl_of_a_nonsingular_form_is_the_identity_onto_it():
    # The pivots come in their own order, so all of A = M is the block.
    t = _on_plane([[4, 1], [1, 2]])
    assert _pivots(t, 0) == (0, 1)
    q = repmap_ldl(t, 0)
    assert q.matrix == identity(2)
    assert q.codomain.gram == t.matrix


# Singular at c with 0 < r < k: diag(1, 3) at 1 keeps P = (1,); a rank-one
# block keeps its first pivot; a nonsingular form keeps both, larger first.
@pytest.mark.parametrize("m, c", [([[1, 0], [0, 3]], 1), ([[3, 3], [3, 3]], 0), ([[1, 1], [1, 2]], 0)])
def test_repmap_ldl_maps_onto_the_gram_block_at_the_pivots(m, c):
    t = _on_plane(m)
    a = t.matrix - t.domain_gram.scale(c)
    kept = _pivots(t, c)
    q = repmap_ldl(t, c)
    assert q.codomain.gram == a.take(kept, kept)
    # Unit rows at the pivots: Q of the pivot basis vectors is the codomain basis.
    assert q.matrix.take(kept) == identity(len(kept))


@pytest.mark.parametrize(
    "m, c, fault",
    [
        # The pivot order reversed: the block A[P, P] = (0) is singular, and
        # the Gram certificate's ValueError surfaces as a failed cross-check.
        (
            [[1, 0], [0, 3]],
            1,
            lambda cert: (
                PsdCertificate(cert.perm[::-1], cert.lower_cols, cert.diag),
                r"Gram block at the LDL\^T pivots: the LDL\^T certificate does not reproduce the Gram matrix",
            ),
        ),
        # The last pivot dropped: A[P, P] = (4) is positive definite, but
        # its Schur complement does not vanish.
        (
            [[4, 1], [1, 2]],
            0,
            lambda cert: (
                PsdCertificate(cert.perm, cert.lower_cols, (*cert.diag[:-1], Fraction(0))),
                "representing map certificate identity failed",
            ),
        ),
    ],
)
def test_repmap_ldl_rejects_a_certificate_with_wrong_pivots(monkeypatch, m, c, fault):
    # Each fault plants one error in the real certificate, L kept by
    # columns, and names the message it is rejected with.
    t = _on_plane(m)
    faulty, message = fault(forms.certify_lower_bound(t, c).certificate)
    clear_memos()
    monkeypatch.setattr(forms, "certify_lower_bound", lambda t, c: PsdResult(faulty, None))
    with pytest.raises(CrossCheckError, match=message):
        repmap_ldl(t, c)


def _scaled_first_column(cert):
    """``cert`` with column 0 of L doubled and D_0 quartered: the same
    L D L^T, but L is no longer unit lower triangular."""
    cols = [list(cert.lower_cols.row(i)) for i in range(cert.lower_cols.rows)]
    cols[0] = [2 * x for x in cols[0]]
    return PsdCertificate(cert.perm, mat(cols), (cert.diag[0] / 4, *cert.diag[1:]))


def _moved_lower_entry(cert):
    """``cert`` with L[1][0], entry 1 of column 0, raised by 1."""
    cols = [list(cert.lower_cols.row(i)) for i in range(cert.lower_cols.rows)]
    cols[0][1] += 1
    return PsdCertificate(cert.perm, mat(cols), cert.diag)


@pytest.mark.parametrize(
    "m, fault, message",
    [
        # Both pivots kept, L D L^T = A[P, P], but L's diagonal is (2, 1).
        ([[4, 1], [1, 2]], _scaled_first_column, "Gram matrix must be positive definite"),
        # One pivot kept, the block (0) = 1 * 0 * 1 reproduced with D_0 = 0.
        ([[0, 0], [0, 1]], lambda cert: PsdCertificate((0, 1), identity(2), (Fraction(0), Fraction(1))), "Gram matrix must be positive definite"),
        # Unit lower triangular with D > 0, but L D L^T is not A[P, P].
        ([[4, 1], [1, 2]], _moved_lower_entry, "does not reproduce the Gram matrix"),
    ],
)
def test_repmap_ldl_rejects_a_codomain_block_that_does_not_certify_its_gram(monkeypatch, m, fault, message):
    # repmap_ldl hands the leading block of the form's certificate to the
    # codomain's constructor, which must verify it: each fault would give
    # a codomain whose Gram is not certified positive definite.
    t = _on_plane(m)
    real = forms.certify_lower_bound(t, 0)
    clear_memos()
    monkeypatch.setattr(forms, "certify_lower_bound", lambda t, c: PsdResult(fault(real.certificate), None))
    with pytest.raises(CrossCheckError, match=f"Gram block at the LDL\\^T pivots: .*{message}"):
        repmap_ldl(t, 0)


def _height(m) -> int:
    """The largest bit length among the stored integers of ``m``: its
    row numerators and row denominators."""
    return max(x.bit_length() for row, d in zip(m._num, m._den) for x in (*row, d))


@pytest.mark.parametrize("seed", range(6))
def test_the_ldl_map_is_no_taller_than_its_form(seed):
    # The graph {B | Q} of Q = A[:, P] A[P, P]^-1 stays within the height of
    # A = M - cG.  The LDL^T factor L holds ratios of leading minors, far
    # taller than A (2,393 bits against 357 for (S - c)^-1 at seed 0), so
    # a map read off L fails this.
    s, c = random_semibounded(InstanceSpec(dim=12, seed=seed, mul_dim=1, restrict_dim=7))
    for rel, base in ((s, c), (inverse(shift(s, -c)), 0)):
        t = form_of_relation(rel)
        q = repmap_ldl(t, base)
        assert _height(q.as_relation().graph.basis) <= _height(t.matrix - t.domain_gram.scale(base))


@pytest.mark.parametrize("seed", range(6))
def test_the_ldl_factor_is_no_taller_than_its_form_and_its_pivots(seed):
    # Column i of L is the Schur column at step i over its pivot: ratios of
    # minors over one denominator, within the height of A = M - cG plus
    # that of the tallest D entry.  A row of L mixes the denominators of
    # every step (2,759 bits for the 395-bit form of S_K,c at seed 0), so
    # L stored by rows fails this on all 18 forms.
    s, c = random_semibounded(InstanceSpec(dim=12, seed=seed, mul_dim=1, restrict_dim=7))
    for rel, base in ((s, c), (inverse(shift(s, -c)), 0), (krein(s, c), c)):
        t = form_of_relation(rel)
        cert = certify_lower_bound(t, base).certificate
        tallest_d = max(max(d.numerator.bit_length(), d.denominator.bit_length()) for d in cert.diag)
        assert _height(cert.lower_cols) <= _height(t.matrix - t.domain_gram.scale(base)) + tallest_d


def test_repmap_quotient_e1():
    q = repmap_quotient(e1(), 0)
    assert q.codomain.dim == 1
    assert q.codomain.gram == mat([[4]])
    assert q.matrix == mat([[1]])


def test_repmap_quotient_null_quotient_for_orthogonal_ranges():
    q = repmap_quotient(e2(), 0)
    assert q.codomain.dim == 0


def test_repmap_quotient_selfadjoint_at_bound():
    s = operator_relation(Q1, Q1, mat([[2]]))
    q = repmap_quotient(s, 2)
    assert q.codomain.dim == 0


def test_companion_e1_base_zero():
    s = e1()
    q = repmap_ldl(form_of_relation(s), 0)
    j = companion(s, q)
    assert j.src.dim == 1
    assert j.halves == (mat([[1]]), mat([[1, 3]]))


def test_companion_e1_base_two_is_purely_multivalued():
    s = e1()
    q = repmap_ldl(form_of_relation(s), 2)
    j = companion(s, q)
    p = parts(j)
    assert p.dom == zero_subspace(j.src)
    assert p.mul == span(Q2, [vec([-1, 1])])


def test_companion_orthogonal_range_shape():
    s = e2()
    q = repmap_ldl(form_of_relation(s), 0)
    j = companion(s, q)
    p = parts(j)
    assert j.src.dim == 0
    assert p.mul == span(Q3, [vec([0, 1, 0])])  # {0} x ran S


def test_form_s_of_e1_base_zero():
    s = e1()
    out = form_s_of(s, 0)
    assert out.domain == full_subspace(Q2)
    assert out.matrix == mat([[Fraction(1, 4), Fraction(3, 4)], [Fraction(3, 4), Fraction(9, 4)]])


def test_form_s_of_e1_base_two():
    s = e1()
    out = form_s_of(s, 2)
    assert out.domain == span(Q2, [vec([1, 1])])
    # s(S)[phi, psi] = 2 (phi, psi) on span{(1,1)}.
    assert out.matrix == mat([[4]])


def test_form_s_of_orthogonal_range_is_null_on_ker_adjoint():
    s = e2()
    out = form_s_of(s, 0)
    assert out.domain == span(Q3, [vec([1, 0, 0]), vec([0, 0, 1])])  # ker S*
    assert out.matrix == zeros(2, 2)


def test_form_s_extends_form_of_relation():
    s = e1()
    t = form_of_relation(s)
    out = form_s_of(s, 0)
    assert t.is_restriction_of(out)


def test_ran_adjoint_by_inequality_e1():
    s = e1()
    assert ran_adjoint_by_inequality(s, 0, vec([1, 3]))
    assert not ran_adjoint_by_inequality(s, 2, vec([1, 1]))
    # (dom S)-perp vectors always pass with C = 0.
    assert ran_adjoint_by_inequality(s, 0, vec([1, -1]))
    assert ran_adjoint_by_inequality(s, 2, vec([1, -1]))


def test_inequality_subspaces_match_adjoint_parts():
    s = e1()
    for c in (0, 2):
        q = repmap_ldl(form_of_relation(s), c)
        qrel = q.as_relation()
        assert inequality_range_subspace(s, c) == parts(adjoint(qrel)).ran
        j = companion(s, q)
        assert inequality_domain_subspace(s, c) == parts(adjoint(j)).dom
        for v in (vec([1, 3]), vec([1, 1]), vec([0, 1]), vec([2, -5])):
            assert ran_adjoint_by_inequality(s, c, v) == member(v, parts(adjoint(qrel)).ran)
            assert dom_companion_by_inequality(s, c, v) == member(v, parts(adjoint(j)).dom)


def test_lebesgue_form_of_operator_has_zero_singular_part():
    s = e1()
    reg, sing = lebesgue_form(s, 0)
    assert sing.matrix.is_zero()
    # Map-induced form |Q phi|^2 with Q(1,1) = (1,3).
    assert reg.matrix == mat([[10]])


def test_lebesgue_form_of_singular_relation():
    q = relation_from_pairs(Q1, Q1, [(vec([1]), vec([1])), (vec([0]), vec([1]))])
    reg, sing = lebesgue_form(q, -1)
    # The regular part of a singular map is zero, so only the base term
    # c (phi, psi) survives in the regular form; the canonical graph lift
    # of the domain basis is annihilated by the projection off mul Q.
    assert reg.matrix == mat([[-1]])
    assert sing.matrix == mat([[0]])


def _stacked_identity_holds(qc_map, q) -> bool:
    """Q_c* Q_c = Q*Q - c for the stack Q_c of the scalar map q_c at c < 0
    over the representing relation Q (acceptance criterion 10)."""
    qc = stack_relations(qc_map.as_relation(), q)
    return compose(adjoint(qc), qc) == shift(compose(adjoint(q), q), -qc_map.base_point)


def test_scalar_repmap_and_stack():
    s = e1()
    t = form_of_relation(s)
    qc = scalar_repmap(t.domain, -2)
    assert qc.codomain.gram == mat([[4]])  # |c| * Gram of the domain
    q = repmap_ldl(t, 0).as_relation()
    stacked = stack_relations(qc.as_relation(), q)
    assert stacked.dst.dim == 2
    assert _stacked_identity_holds(qc, q)
    # On dom S the stacked form is t(S) + 2 (phi, psi): 4 + 2 * 2 at (1, 1).
    product = compose(adjoint(stacked), stacked)
    assert form_of_relation(product).restrict(t.domain).matrix == mat([[8]])


def test_a_wrong_product_gram_fails_the_stacked_identity(monkeypatch):
    # product_space skips the Gram certificate; a wrong product Gram is
    # still caught where one is read, by the stacked identity.
    t = form_of_relation(operator_relation(Q2, Q2, mat([[0, 0], [0, 2]])))
    qc, q = scalar_repmap(t.domain, -1), repmap_ldl(t, 0).as_relation()
    assert (qc.codomain.dim, q.dst.dim) == (2, 1)
    assert _stacked_identity_holds(qc, q)

    def swapped(h, k):
        return InnerProductSpace(h.dim + k.dim, block_diag(k.gram, h.gram))

    monkeypatch.setattr(forms, "product_space", swapped)
    assert not _stacked_identity_holds(qc, q)


def test_scalar_repmap_zero_base():
    dom = span(Q2, [vec([1, 1])])
    q = scalar_repmap(dom, 0)
    assert q.codomain.dim == 0


def test_stack_relations_column():
    a = operator_relation(Q2, Q2, mat([[1, 0], [0, 1]]))
    b = operator_relation(Q2, Q2, mat([[2, 0], [0, 2]]))
    st = stack_relations(a, b)
    assert st.dst.dim == 4
    firsts, seconds = st.halves
    assert seconds == hstack(firsts, firsts.scale(2))


def test_repmap_from_operator_inverse_duality():
    # Proposition-level duality: J_c^{-1} represents t((S-c)^{-1}) exactly,
    # with companion Q_c^{-1}.
    s = e1()
    for c in (0, 1):
        t = form_of_relation(s)
        q = repmap_ldl(t, c)
        j = companion(s, q)
        inv_rel = inverse(shift(s, -c))
        t_inv = form_of_relation(inv_rel)
        jinv_map = repmap_from_operator(inverse(j), t_inv, 0)  # certificate checked on build
        comp = companion(inv_rel, jinv_map)
        assert comp == inverse(q.as_relation())
