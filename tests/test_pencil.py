"""The lower bound on the polynomial det(M - cG) against LDL^T per step.

``bound_bisect`` decides every point it tests from the exact polynomial
p(c) = det(M - cG) (``pencil_psd``) and runs the verified LDL^T certificate
only at the bracket ends.  One search picks the points, by Newton steps
from the certified end of a grid cell: on the integers for floor(gamma), on
the grid that bisection from [n - 1, n - 1 + span] walks for the bracket,
and on a grid finer than the floats for the estimate.  These tests hold the
polynomial decision equal to ``certify_lower_bound(t, c).ok``, the bracket
equal to the ones that bisection with one LDL^T per step and bisection on
the polynomial find, the estimate equal to the one that bisection down to
adjacent floats finds, all three kept here as references, and the number
of decisions far below bisection's.  The polynomial itself, interpolated
in integers, is held to the primitive part of the interpolation in
Fractions it replaced, kept here as a fourth reference.  The forms live on domains with
non-identity Grams; the families plant negative directions, singular form
matrices, bounds attained at a rational and irrational bounds of
multiplicity two and three.
"""

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relcalc import forms
from relcalc.errors import CrossCheckError
from relcalc.forms import (
    QuadraticForm,
    _simplest_in,
    bound_bisect,
    certify_lower_bound,
    form_of_relation,
    pencil_polynomial,
    pencil_psd,
)
from relcalc.harness import InstanceSpec, random_semibounded
from relcalc.linalg import clear_memos, det, identity, mat, zeros
from relcalc.spaces import InnerProductSpace, gram_on, span, standard_space

from relation_builders import full_subspace

TINY = Fraction(1, 2**300)

rationals = st.builds(
    Fraction,
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=1, max_value=3),
)


@st.composite
def weighted_space(draw, n):
    b = mat([[draw(rationals) for _ in range(n)] for _ in range(n)])
    # The all-ones term keeps the Gram off the identity even when b is zero.
    ones = mat([[1] * n for _ in range(n)])
    return InnerProductSpace(n, (b.T @ b) + identity(n) + ones)


def _square(draw, k):
    return [[draw(rationals) for _ in range(k)] for _ in range(k)]


def _psd_of_rank_at_most(draw, k, r):
    """C^T C for a random r x k matrix C."""
    if r == 0:
        return zeros(k, k)
    c = mat([[draw(rationals) for _ in range(k)] for _ in range(r)])
    return c.T @ c


@st.composite
def bounded_forms(draw):
    """A form t on a domain with a weighted Gram, the base points at which
    its decision is most delicate, and its bound when the family plants
    it (else None)."""
    space = draw(weighted_space(draw(st.integers(min_value=1, max_value=4))))
    dom = span(space, [[draw(rationals) for _ in range(space.dim)] for _ in range(draw(st.integers(1, space.dim)))])
    k = dom.dim
    assume(k >= 1)
    family = draw(st.sampled_from(["random", "planted", "singular", "attained"]))
    special = [Fraction(0)]
    gamma = None
    if family == "random":
        a = _square(draw, k)
        m = mat([[a[i][j] + a[j][i] for j in range(k)] for i in range(k)])
    elif family == "planted":
        # Replace one diagonal entry by a negative one: a negative direction.
        psd = _psd_of_rank_at_most(draw, k, draw(st.integers(0, k)))
        rows = [list(psd.row(i)) for i in range(k)]
        i = draw(st.integers(0, k - 1))
        rows[i][i] = -draw(st.integers(min_value=1, max_value=5))
        m = mat(rows)
    elif family == "singular":
        # A zeroed row and column: det M = 0, and M may be indefinite.
        a = _square(draw, k)
        z = draw(st.integers(0, k - 1))
        m = mat([[0 if z in (i, j) else a[i][j] + a[j][i] for j in range(k)] for i in range(k)])
    else:
        # gamma G + C^T C with rank C < k: the bound gamma is attained.
        gamma = draw(rationals)
        m = gram_on(dom).scale(gamma) + _psd_of_rank_at_most(draw, k, draw(st.integers(0, k - 1)))
        special += [gamma, gamma - TINY, gamma + TINY]
    t = QuadraticForm(space, dom, m)
    est = bound_bisect(t, Fraction(1, 64)).estimate
    if est is not None:
        special.append(Fraction(est))
    return t, special, gamma


@given(bounded_forms(), st.lists(rationals, max_size=3))
@settings(max_examples=300, deadline=None)
def test_polynomial_decision_equals_the_ldl_certificate(form, points):
    t, special, _ = form
    clear_memos()
    p = pencil_polynomial(t)
    for c in special + points:
        assert pencil_psd(p, c) == certify_lower_bound(t, c).ok, c


def _simplest_in_recursive(a, b):
    """The recursion that ``_simplest_in`` replaced, kept as its reference."""
    if a == b:
        return a
    ceil_a = -((-a.numerator) // a.denominator)
    if ceil_a <= b:
        return Fraction(ceil_a)
    floor_a = a.numerator // a.denominator
    return floor_a + 1 / _simplest_in_recursive(1 / (b - floor_a), 1 / (a - floor_a))


ends = st.one_of(
    st.integers(-30, 30).map(Fraction),
    st.fractions(min_value=-30, max_value=30, max_denominator=10**12),
)


@given(ends, ends, st.integers(0, 300))
@settings(max_examples=300, deadline=None)
def test_simplest_in_equals_the_continued_fraction_recursion(a, b, bits):
    # Any two ends (negative, integer, across 0), equal ends, and an
    # interval 2^-bits wide, whose continued fractions agree for long.
    for lo, hi in (sorted((a, b)), (a, a), (a, a + Fraction(1, 2**bits))):
        assert _simplest_in(lo, hi) == _simplest_in_recursive(lo, hi)


def two_plus_square():
    """t = 2 + (x1 - x2)^2 on Q^2: the bound 2 is attained on (1, 1)."""
    q2 = standard_space(2)
    return QuadraticForm(q2, full_subspace(q2), mat([[3, -1], [-1, 3]]))


def test_attained_bound_flips_within_two_to_the_minus_300():
    p = pencil_polynomial(two_plus_square())
    assert p == (8, -6, 1)  # (c - 2)(c - 4)
    assert pencil_psd(p, Fraction(2)) and pencil_psd(p, 2 - TINY)
    assert not pencil_psd(p, 2 + TINY)


def test_a_rebound_shifted_matrix_leaves_the_pencil_out_of_its_memo(monkeypatch):
    # A tracer rebinds the name shifted_matrix to a functools.wraps wrapper,
    # whose __wrapped__ is the memo itself: the k + 1 shifts of the pencil
    # must still be built by the body alone.
    real = forms.shifted_matrix
    monkeypatch.setattr(forms, "shifted_matrix", functools.wraps(real)(lambda t, c: real(t, c)))
    clear_memos()
    assert pencil_polynomial(two_plus_square()) == (8, -6, 1)
    assert real.cache_info().currsize == 0


def test_squarefree_remainders_grow_linearly_in_the_degree(monkeypatch):
    # The pencil of `relcalc random --dim 16 --seed 1 --restrict 8`: degree
    # 8, 192-bit coefficients.  With each remainder taken by the reduced
    # divisor the largest is 6,444 bits; by the unreduced one, whose content
    # multiplies into every later remainder, it was 64,066 bits, and ten
    # times that at degree 12.
    s, _ = random_semibounded(InstanceSpec(dim=16, seed=1, restrict_dim=8))
    p = pencil_polynomial(form_of_relation(s))
    bits = max(abs(x).bit_length() for x in p)
    sizes = []
    real = forms._pseudo_remainder

    def measured(a, b):
        r = real(a, b)
        sizes.append(max((abs(x).bit_length() for x in r), default=0))
        return r

    monkeypatch.setattr(forms, "_pseudo_remainder", measured)
    assert (len(p) - 1, bits) == (8, 192)
    forms._squarefree.__wrapped__(p)
    assert len(sizes) == 8
    assert max(sizes) <= 8 * (len(p) - 1) * bits


@given(bounded_forms(), st.sampled_from([Fraction(1, 64), Fraction(1, 2**256)]))
@settings(max_examples=100, deadline=None)
def test_estimate_is_the_bound_rounded(form, width):
    t, _, gamma = form
    clear_memos()
    interval = bound_bisect(t, width)
    assert float(interval.lo) <= interval.estimate <= float(interval.hi)
    if gamma is not None:
        assert interval.estimate == float(gamma)


def test_estimate_of_an_attained_integer_bound_is_exact():
    assert bound_bisect(two_plus_square(), Fraction(1, 64)).estimate == 2.0


@pytest.mark.parametrize("width", [Fraction(1, 64), Fraction(1, 2**256)], ids=["1/64", "2^-256"])
@pytest.mark.parametrize(
    "gamma",
    [
        1 + Fraction(1, 2**53),  # halfway between 1 and 1 + 2^-52: rounds down to even
        1 + Fraction(3, 2**53),  # halfway between 1 + 2^-52 and 1 + 2^-51: rounds up to even
        # A tie just below 1/3 that rounds down to even; the pin moves the
        # refuted end to 1/3, and no midpoint from there is dyadic.
        Fraction(12009599006321321, 2**55),
    ],
)
def test_estimate_of_a_bound_halfway_between_floats(gamma, width):
    # The tie is the left end of its cell of the estimate's grid, so only
    # the root test there tells it from the points just above it.
    assert bound_bisect(_planted(gamma), width).estimate == float(gamma)


def _planted(gamma):
    """The 1 x 1 form [[gamma]] on Q^1: its bound is gamma."""
    q1 = standard_space(1)
    return QuadraticForm(q1, full_subspace(q1), mat([[gamma]]))


def _counting_decisions(monkeypatch):
    """Route ``pencil_psd`` through a list of the points it decides."""
    calls = []
    real = pencil_psd
    monkeypatch.setattr(forms, "pencil_psd", lambda p, c: calls.append(c) or real(p, c))
    return calls


def test_estimate_of_a_tiny_bound_needs_no_halving_toward_it(monkeypatch):
    # [0, 1/128] holds 2^-1000; halving it to adjacent floats took 1,046
    # decisions, where one Newton step of the linear p meets the bound.
    calls = _counting_decisions(monkeypatch)
    assert bound_bisect(_planted(Fraction(1, 2**1000)), Fraction(1, 64)).estimate == 2.0**-1000
    assert len(calls) <= 64


def test_estimate_of_a_dim_8_form_takes_few_decisions(monkeypatch):
    # The form of `relcalc random --dim 8 --mul 1 --restrict 6 --seed 1` at
    # width 1/64: halving the bracket to adjacent floats took 47 decisions.
    s, _ = random_semibounded(InstanceSpec(dim=8, seed=1, mul_dim=1, restrict_dim=6))
    clear_memos()
    interval = bound_bisect(form_of_relation(s), Fraction(1, 64))
    calls = _counting_decisions(monkeypatch)
    assert interval.lo <= Fraction(interval.estimate) < interval.hi
    assert len(calls) <= 15


def test_zero_form_estimate_needs_no_search_toward_the_smallest_float(monkeypatch):
    # gamma = 0 is a root of p at the certified end, so the estimate is read
    # off at once; halving toward 0 from above would take over 1000 steps.
    space = InnerProductSpace(2, mat([[2, 1], [1, 2]]))
    t = QuadraticForm(space, full_subspace(space), zeros(2, 2))
    calls = _counting_decisions(monkeypatch)
    interval = bound_bisect(t, Fraction(1, 64))
    assert (interval.lo, interval.estimate) == (0, 0.0)
    assert len(calls) < 20


def _reference_bracket(psd, at_root, width):
    """The bracket of the bisection that ``bound_bisect`` once ran: the
    integer floor n of the bound by unit steps from 0, then halving
    [n - 1, n + 1] (n a root) or [n - 1, n + 2] to the width, then the pin
    to the simplest fraction inside."""
    n = 0
    while psd(n + 1):
        n += 1
    while not psd(n):
        n -= 1
    lo = Fraction(n - 1)
    hi = Fraction(n + 1 if at_root(n) else n + 2)
    while hi - lo > width:
        mid = (hi + lo) / 2
        if psd(mid):
            lo = mid
        else:
            hi = mid
    cand = _simplest_in(lo, hi)
    if cand != lo:
        if psd(cand):
            lo = cand
        else:
            hi = cand
    return lo, hi


def _ldl_bisect(t, width):
    """One verified LDL^T per step.  The bound is n exactly when t - n is
    singular, so its LDL^T has a zero pivot."""
    return _reference_bracket(
        lambda c: certify_lower_bound(t, c).ok, lambda n: 0 in certify_lower_bound(t, n).certificate.diag, width
    )


def _polynomial_bisect(t, width):
    """One Fraction midpoint and one ``pencil_psd`` per step."""
    p = pencil_polynomial(t)
    return _reference_bracket(
        lambda c: pencil_psd(p, Fraction(c)), lambda n: sum(x * n**i for i, x in enumerate(p)) == 0, width
    )


def _repeated_blocks(block, copies, upper=()):
    """``copies`` copies of a 2 x 2 block on the diagonal, under the
    congruence X -> A^T X A, which weights the Gram and keeps the roots.
    A is unit upper triangular, its entries above the diagonal taken from
    ``upper`` in row order, zero when it runs out."""
    k = 2 * copies
    entries = iter(upper)
    a = mat([[1 if i == j else next(entries, 0) if j > i else 0 for j in range(k)] for i in range(k)])
    m = mat([[block[i % 2][j % 2] if i // 2 == j // 2 else 0 for j in range(k)] for i in range(k)])
    space = InnerProductSpace(k, a.T @ a)
    return QuadraticForm(space, full_subspace(space), a.T @ m @ a)


@st.composite
def multiple_root_forms(draw):
    """A form whose bound is irrational with multiplicity 2 or 3: copies
    of [[a, b], [b, c]] with (a - c)^2 + 4 b^2 not a square."""
    a, c, b = draw(st.integers(-4, 4)), draw(st.integers(-4, 4)), draw(st.integers(1, 3))
    disc = (a - c) ** 2 + 4 * b * b
    assume(math.isqrt(disc) ** 2 != disc)
    copies = draw(st.sampled_from([2, 3]))
    upper = draw(st.lists(st.integers(-2, 2), max_size=2 * copies * (2 * copies - 1) // 2))
    return _repeated_blocks([[a, b], [b, c]], copies, upper)


WIDTHS = [Fraction(1, 64), Fraction(3, 1000), Fraction(1, 2**256), Fraction(1, 2**1024)]


@given(st.one_of(bounded_forms().map(lambda form: form[0]), multiple_root_forms()), st.sampled_from(WIDTHS))
@settings(max_examples=80, deadline=None)
def test_bracket_equals_the_polynomial_bisection(t, width):
    clear_memos()
    interval = bound_bisect(t, width)
    assert (interval.lo, interval.hi) == _polynomial_bisect(t, width)


def _fraction_pencil(t):
    """The interpolation in Fractions that ``pencil_polynomial`` replaced,
    kept as its reference: the Newton form on the nodes 0..k with binomial
    coefficients, over the lcm of the coefficient denominators."""
    m, g, k = t.matrix, t.domain_gram, t.domain.dim
    diffs = [det(m - g.scale(j)) for j in range(k + 1)]
    coeffs = [Fraction(0)] * (k + 1)
    binom = [Fraction(1)]
    for j in range(k + 1):
        for i, b in enumerate(binom):
            coeffs[i] += diffs[0] * b
        diffs = [y - x for x, y in zip(diffs, diffs[1:])]
        binom = [(lower - j * same) / (j + 1) for lower, same in zip([0, *binom], [*binom, 0])]
    assert coeffs[k] == (-1) ** k * det(g)
    den = math.lcm(*(x.denominator for x in coeffs))
    return tuple(x.numerator * (den // x.denominator) for x in coeffs)


@given(st.one_of(bounded_forms().map(lambda form: form[0]), multiple_root_forms()))
@settings(max_examples=100, deadline=None)
def test_pencil_is_the_primitive_part_of_the_fraction_interpolation(t):
    ref = _fraction_pencil(t)
    content = math.gcd(*ref)
    assert pencil_polynomial(t) == tuple(x // content for x in ref)


@pytest.mark.parametrize("factor", [2, -1, Fraction(1, 3)])
@pytest.mark.parametrize(
    "t",
    [two_plus_square(), _repeated_blocks([[2, 1], [1, 1]], 2, [1, -1, 2, 3])],
    ids=["identity-gram", "weighted-gram"],
)
def test_a_wrong_det_g_is_a_cross_check_error(monkeypatch, t, factor):
    real, g = forms.det, t.domain_gram
    monkeypatch.setattr(forms, "det", lambda m: real(m) * factor if m == g else real(m))
    with pytest.raises(CrossCheckError, match="leading coefficient"):
        pencil_polynomial(t)


@pytest.mark.parametrize("copies", [1, 2, 3], ids=["simple", "double", "triple"])
def test_a_narrow_bracket_takes_few_decisions(monkeypatch, copies):
    # gamma = (3 - sqrt 5) / 2 with multiplicity `copies`; bisection alone
    # takes 258 decisions or more at this width.
    t = _repeated_blocks([[2, 1], [1, 1]], copies, [1, -1, 2])
    clear_memos()
    calls = _counting_decisions(monkeypatch)
    interval = bound_bisect(t, Fraction(1, 2**256))
    # Below 3/2, x <= gamma iff x^2 - 3x + 1 >= 0.
    assert interval.lo**2 - 3 * interval.lo + 1 >= 0 > interval.hi**2 - 3 * interval.hi + 1
    assert interval.hi - interval.lo <= Fraction(1, 2**256)
    assert len(calls) <= 64


def test_a_refuted_newton_point_is_a_cross_check_error(monkeypatch):
    # From x = 1 below gamma = 2, p = (c - 2)(c - 4) gives the Newton step
    # d = 3/4, so 7/4 is below gamma; a decision refuting it contradicts
    # the enclosure.  The planted decision is honest on the integers, so
    # the search for floor(gamma) = 2 runs as usual.
    t = two_plus_square()
    clear_memos()
    calls = []
    real = pencil_psd
    monkeypatch.setattr(forms, "pencil_psd", lambda p, c: calls.append(c) or (c.denominator == 1 and real(p, c)))
    with pytest.raises(CrossCheckError, match="Newton step"):
        bound_bisect(t, Fraction(1, 64))
    assert calls[-1] == Fraction(7, 4)


def test_a_certified_point_above_the_bound_is_a_cross_check_error(monkeypatch):
    # The planted decision certifies every non-integer, so the far Newton
    # point 5/2, above gamma = 2, is kept as certified; below all roots
    # p and p' have opposite signs, and at 5/2 they do not.
    t = two_plus_square()
    clear_memos()
    real = pencil_psd
    monkeypatch.setattr(forms, "pencil_psd", lambda p, c: c.denominator != 1 or real(p, c))
    with pytest.raises(CrossCheckError, match="root below a point it certifies"):
        bound_bisect(t, Fraction(1, 64))


@given(bounded_forms(), st.sampled_from([Fraction(1, 64), Fraction(1, 2**256)]))
@settings(max_examples=60, deadline=None)
def test_bracket_equals_the_ldl_per_step_bisection(form, width):
    t, _, _ = form
    clear_memos()
    interval = bound_bisect(t, width)
    assert (interval.lo, interval.hi) == _ldl_bisect(t, width)


@pytest.mark.parametrize("forced_c", [10, -10], ids=["refutes-lo", "certifies-hi"])
def test_ldl_disagreeing_at_a_bracket_end_is_a_cross_check_error(monkeypatch, forced_c):
    # The polynomial certifies lo = 2 and refutes the hi above it; the
    # planted LDL^T answers as at c = 10 (refuted) or c = -10 (certified)
    # wherever it is asked, so it contradicts one end.
    t = two_plus_square()
    clear_memos()
    real = certify_lower_bound
    monkeypatch.setattr(forms, "certify_lower_bound", lambda form, c: real(form, forced_c))
    with pytest.raises(CrossCheckError):
        bound_bisect(t, Fraction(1, 64))


@pytest.mark.parametrize("answer", [True, False], ids=["always-psd", "never-psd"])
def test_a_decision_that_never_flips_is_a_cross_check_error(monkeypatch, answer):
    # A polynomial decision that never refutes (or never certifies) would
    # double the bracket end forever; past Cauchy's root bound it must fail.
    t = two_plus_square()
    clear_memos()
    monkeypatch.setattr(forms, "pencil_psd", lambda p, c: answer)
    with pytest.raises(CrossCheckError, match="Cauchy root bound"):
        bound_bisect(t, Fraction(1, 64))


def _bisected_float(p, lo, hi):
    """The estimate as ``_nearest_float`` once found it, kept as its
    reference: halve [lo, hi) until its ends are adjacent floats or round
    alike; their midpoint, the tie, may be the bound itself, which no
    halving need meet, so it is tested on its own."""
    try:
        if sum(x * lo**i for i, x in enumerate(p)) == 0:
            return float(lo)
        while float(hi) > math.nextafter(float(lo), math.inf):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if pencil_psd(p, mid) else (lo, mid)
        fa, fb = float(lo), float(hi)
        tie = (Fraction(fa) + Fraction(fb)) / 2
        if fa == fb or not pencil_psd(p, tie):
            return fa
        return float(tie) if sum(x * tie**i for i, x in enumerate(p)) == 0 else fb
    except OverflowError:
        return None


ESTIMATE_WIDTHS = [Fraction(1, 64), Fraction(3, 1000), Fraction(1, 2**60), Fraction(1, 2**256)]
PLANTED_BOUNDS = [
    # The ties between adjacent floats of the halfway test.
    1 + Fraction(1, 2**53),
    1 + Fraction(3, 2**53),
    Fraction(12009599006321321, 2**55),
    2 - Fraction(1, 2**60),  # rounds up across the binade edge to 2.0
    Fraction(-1, 3),
    Fraction(0),
    Fraction(1, 2**1000),  # pinned to a bracket that ends at 0
]


@given(
    st.one_of(bounded_forms().map(lambda form: form[0]), multiple_root_forms(), st.sampled_from(PLANTED_BOUNDS).map(_planted)),
    st.sampled_from(ESTIMATE_WIDTHS),
)
@settings(max_examples=150, deadline=None)
def test_estimate_equals_the_bisection_to_adjacent_floats(t, width):
    clear_memos()
    interval = bound_bisect(t, width)
    assert interval.estimate == _bisected_float(interval.pencil, interval.lo, interval.hi)


@pytest.mark.parametrize("width", ESTIMATE_WIDTHS, ids=["1/64", "3/1000", "2^-60", "2^-256"])
@pytest.mark.parametrize("gamma", PLANTED_BOUNDS)
def test_estimate_of_a_planted_bound_equals_the_bisection(gamma, width):
    interval = bound_bisect(_planted(gamma), width)
    assert interval.estimate == _bisected_float(interval.pencil, interval.lo, interval.hi) == float(gamma)


ACROSS_ZERO = (Fraction(-1, 3), Fraction(1, 5))


@pytest.mark.parametrize(
    "p, bracket",
    [
        ((-1, 2**1000), ACROSS_ZERO),  # 2^-1000
        ((0, 1), ACROSS_ZERO),  # 0
        ((1, 2**1000), ACROSS_ZERO),  # -2^-1000
        ((-2, 0, 2**200), ACROSS_ZERO),  # -sqrt(2) 2^-100, irrational
        ((4, 0, -(2**202), 0, 2**400), ACROSS_ZERO),  # the same, a double root
        ((3, -3, -(2**128), 2**128), ACROSS_ZERO),  # roots 1 and +-sqrt(3) 2^-64
        # 3 2^-1076 rounds up to the least subnormal; the end 2^-1200 is 0.0
        # as a float, and has no exponent to read.
        ((-3, 2**1076), (Fraction(1, 2**1200), Fraction(1))),
    ],
    ids=["2^-1000", "zero", "-2^-1000", "-sqrt2-2^-100", "double", "cubic", "underflowing-end"],
)
def test_estimate_near_zero_equals_the_bisection(p, bracket):
    # bound_bisect pins a bracket that meets 0 to an end at 0, so brackets
    # across 0 or with an end that underflows are met here directly.
    lo, hi = bracket
    assert pencil_psd(p, lo) and not pencil_psd(p, hi)
    assert forms._nearest_float(p, lo, hi) == _bisected_float(p, lo, hi)
