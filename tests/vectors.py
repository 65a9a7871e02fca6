"""Single vectors as tuples, for hand-written test assertions.

The library keeps a vector as a one-row ``Mat``.  These helpers spell its
``Mat`` paths on tuples, so that a test can state a fixture vector and an
expected value by hand."""

from relcalc.linalg import echelon_coords, mat
from relcalc.relations import lifts


def rows(m):
    return [m.row(i) for i in range(m.rows)]


def combination(m, x):
    """x^T m: the combination of the rows of m with coefficients x."""
    return (mat([x]) @ m).row(0)


def member(x, w):
    return echelon_coords(w.basis, mat([x])) is not None


def inner(space, x, y):
    return (mat([x]) @ space.gram).mul_t(mat([y]))[0, 0]


def form_value(t, x, y):
    """t[x, y], for x and y in the domain of the quadratic form t."""
    cx, cy = (echelon_coords(t.domain.basis, mat([v])) for v in (x, y))
    return (cx @ t.matrix).mul_t(cy)[0, 0]


def graph_pairs(t):
    """The graph basis rows of t as (f, g) pairs."""
    firsts, seconds = t.halves
    return list(zip(rows(firsts), rows(seconds)))


def lift(t, x):
    """Some g with {x, g} in t, for x in dom t."""
    return lifts(t, mat([x])).row(0)
