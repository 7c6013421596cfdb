"""Exact rational simplex for covering LPs.

Solves  min sum_j x_j  subject to  sum_j a_ij x_j >= b_i for every row i,
x >= 0  -- entirely in integer arithmetic (no floating point). A column is a
tuple of rows in which row i appears a_ij times, so a column of distinct rows
is a 0/1 column and a repeated row is an integer coefficient; each right-hand
side b_i is a positive integer, 1 unless given. The symmetry-reduced LP of
``fractional`` uses both: one row per vertex orbit O with b_O = |O|, and a
column listing the orbit of each vertex of an independent set S, so that row
O appears |S & O| times. Pricing and transforming a column cost one pass over
its entries, so a coefficient adds no work beyond the entries that state it.
The simplex itself knows nothing of symmetry: it certifies the optimum of the
LP it is given. That the orbit LP's optimum is chi_f (averaging a reduced
solution over the group gives a full one of the same value) and that its
duals, lifted to the vertices, are a fractional clique of the whole graph is
argued and checked in ``fractional``.

Revised simplex on the basis inverse, kept fraction-free (Edmonds 1967;
Bareiss 1968): the basis inverse and the basic values are Python ints over one
positive common denominator ``den = |det B|``, so ``binv`` is the adjugate of B
up to sign. Each pivot is a Gauss-Jordan step whose divisions by the old
denominator are exact. Duals come out as ``den * y``, so reduced costs are
priced as ``den * r_j`` by one integer column scan, and the ratio tests compare
by cross-multiplication. Results become Fractions only at the end.

Column generation: ``open_covering_lp`` solves the LP over the columns known
so far and returns the ``CoverLp`` with its basis; ``add_covering_columns``
appends columns, which enter nonbasic at zero, so the basis stays feasible
and phase 2 continues from it (a warm start, phase 1 is not rerun). Between
the two a caller prices new columns on the integer duals ``den * y``: a
column is worth adding iff its duals, each counted once per entry, sum to
more than ``den``. ``solve_covering_lp`` is the one-shot form of the same
path.

One pivot rule: the entering variable has the most negative reduced cost,
lowest id on ties (Dantzig pricing); the leaving row wins the lexicographic
ratio test (Dantzig-Orden-Wolfe 1955), which also ends every degenerate
stall. The first basis is the artificials, B = I and x_B = b >= 1, so every
row of [x_B | B^-1] is lexicographically positive; each lexicographic pivot
keeps them so, and phase 2 and ``add_covering_columns`` continue from the
same basis. Within a phase, the row [c_B x_B | c_B B^-1] (value and duals)
then strictly decreases lexicographically at every pivot, so no basis
repeats, whatever the entering rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

ZERO = Fraction(0)

_ITERATION_GUARD = 500_000


@dataclass(frozen=True)
class CoverLpSolution:
    """Optimal primal weights, dual row prices, and the common objective value."""

    value: Fraction
    primal: dict[int, Fraction]  # column index -> weight (only nonzero entries)
    dual: tuple[Fraction, ...]  # one price per row
    iterations: int


class CoverLp:
    """A covering LP held at its optimum, with the basis kept for added columns.

    ``columns`` are the columns so far, ``rhs`` the right-hand sides, ``den``
    the common denominator and ``prices()`` the optimal duals as integers
    ``den * y``.
    """

    def __init__(self, m: int, columns: list[tuple[int, ...]], rhs: list[int]):
        self.m = m
        self.columns = columns
        self.rhs = rhs
        self.ns = len(columns)
        self.iterations = 0
        # B^-1 = binv / den and x_B = xb / den, all ints, den = |det B| > 0
        self.den = 1
        self.binv = [[int(i == j) for j in range(m)] for i in range(m)]
        self.xb = list(rhs)
        # variable ids: 0..ns-1 columns, ns..ns+m-1 surplus, ns+m.. artificial
        self.basis = list(range(self.ns + m, self.ns + 2 * m))

    def prices(self) -> list[int]:
        """The optimal duals scaled by den: den * y, nonnegative integers."""
        return _dual_prices(self, phase1=False)

    def solution(self) -> CoverLpSolution:
        den = self.den
        dual = tuple(Fraction(v, den) for v in self.prices())
        primal = {
            b: Fraction(x, den) for b, x in zip(self.basis, self.xb) if b < self.ns and x != 0
        }
        value = sum(primal.values(), ZERO)
        if value != sum(map(mul, dual, self.rhs), ZERO):
            raise RuntimeError("primal/dual value mismatch; simplex invariant broken")
        return CoverLpSolution(value, primal, dual, self.iterations)


def solve_covering_lp(
    num_rows: int, columns: list[tuple[int, ...]], rhs: list[int] | None = None
) -> CoverLpSolution:
    """Exact optimum of the unit-cost covering LP over the given columns."""
    return open_covering_lp(num_rows, columns, rhs).solution()


def open_covering_lp(
    num_rows: int, columns: list[tuple[int, ...]], rhs: list[int] | None = None
) -> CoverLp:
    """The covering LP over the given columns, solved to optimality by both phases.

    ``rhs`` holds one positive integer per row and defaults to all ones.
    """
    m = num_rows
    rhs = [1] * m if rhs is None else list(rhs)
    if len(rhs) != m or not all(isinstance(b, int) and b >= 1 for b in rhs):
        raise ValueError(f"rhs must be {m} positive integers, got {rhs!r}")
    lp = CoverLp(m, list(columns), rhs)
    _check_columns(m, lp.columns)
    if m == 0:
        return lp
    covered = set().union(*lp.columns)
    if covered != set(range(m)):
        missing = sorted(set(range(m)) - covered)
        raise ValueError(f"rows {missing} are covered by no column; LP infeasible")

    lp.iterations = _iterate(lp, phase1=True)
    # At a phase-1 optimum the surplus columns force y >= 0 and the zero
    # objective forces y.b = 0 with b >= 1, so y = c_B B^-1 = 0 and no artificial
    # (cost 1) can still be basic: phase 2 starts from a basis of real columns.
    if any(b >= lp.ns + m for b in lp.basis):
        raise RuntimeError("phase 1 ended with an artificial in the basis; simplex invariant broken")
    lp.iterations += _iterate(lp, phase1=False)
    return lp


def add_covering_columns(lp: CoverLp, columns: list[tuple[int, ...]]) -> None:
    """Append columns to an optimal covering LP and re-optimize from its basis.

    The new columns enter nonbasic at zero, so the basis stays primal feasible
    and phase 2 continues from it; phase 1 is not run again.
    """
    _check_columns(lp.m, columns)
    k, ns = len(columns), lp.ns
    lp.basis = [b + k if b >= ns else b for b in lp.basis]  # slack ids move up
    lp.columns += columns
    lp.ns += k
    lp.iterations += _iterate(lp, phase1=False)


def _check_columns(m: int, columns: list[tuple[int, ...]]) -> None:
    """Each column must be a nonempty tuple of rows in 0..m-1.

    A row's coefficient is the number of times it is listed, so every
    coefficient a column can express is a positive integer.
    """
    for j, col in enumerate(columns):
        if not col or not all(0 <= i < m for i in col):
            raise ValueError(f"column {j} {col!r} is empty or names a row outside 0..{m - 1}")


def _transformed_column(st: CoverLp, enter: int) -> list[int]:
    """den * B^-1 a for the constraint column a of variable `enter`."""
    ns, m = st.ns, st.m
    if enter < ns:
        col = st.columns[enter]
        return [sum(map(row.__getitem__, col)) for row in st.binv]
    if enter < ns + m:
        return [-row[enter - ns] for row in st.binv]
    return [row[enter - ns - m] for row in st.binv]


def _eliminate(st: CoverLp, d: list[int], leave: int, enter: int) -> None:
    """Fraction-free Gauss-Jordan step on the positive pivot d[leave], the new den.

    The divisions by the old den are exact because every new entry is a
    cofactor of the new (integer) basis.
    """
    piv, den = d[leave], st.den
    brow, xl = st.binv[leave], st.xb[leave]
    for r in range(st.m):
        if r == leave:
            continue
        f = d[r]
        if f:
            st.binv[r] = [(piv * v - f * w) // den for v, w in zip(st.binv[r], brow)]
            st.xb[r] = (piv * st.xb[r] - f * xl) // den
        elif piv != den:
            st.binv[r] = [piv * v // den for v in st.binv[r]]
            st.xb[r] = piv * st.xb[r] // den
    st.den = piv
    st.basis[leave] = enter


def _dual_prices(st: CoverLp, phase1: bool) -> list[int]:
    """den * y, where y = c_B B^-1 with c = 1 on artificials (phase 1) or on columns (phase 2)."""
    m, ns = st.m, st.ns
    costed = [
        row
        for b, row in zip(st.basis, st.binv)
        if ((b >= ns + m) if phase1 else (b < ns))
    ]
    return [sum(column) for column in zip(*costed)] if costed else [0] * m


def _iterate(st: CoverLp, phase1: bool) -> int:
    iterations = 0
    while True:
        iterations += 1
        if iterations > _ITERATION_GUARD:
            raise RuntimeError("simplex iteration guard tripped")
        enter = _price(st, _dual_prices(st, phase1), phase1)
        if enter < 0:
            return iterations
        _pivot(st, enter)


def _price(st: CoverLp, p: list[int], phase1: bool) -> int:
    """Entering variable index, or -1 at optimality.

    Works on integer-scaled reduced costs z_j = q * r_j with q = den: the sign
    and the ordering are unaffected by the common positive scale q.
    """
    m, ns, q = st.m, st.ns, st.den
    candidates: list[tuple[int, int]] = []  # (z_j, variable id)
    struct_cost = 0 if phase1 else q
    price = p.__getitem__
    z = [struct_cost - sum(map(price, col)) for col in st.columns]
    j = z.index(min(z))
    if z[j] < 0:
        candidates.append((z[j], j))
    for i in range(m):  # surplus columns: A = -e_i, cost 0
        if p[i] < 0:
            candidates.append((p[i], ns + i))
    if phase1:
        for i in range(m):  # artificial columns: A = e_i, cost 1
            if q - p[i] < 0:
                candidates.append((q - p[i], ns + m + i))
    return min(candidates)[1] if candidates else -1


def _pivot(st: CoverLp, enter: int) -> None:
    """Lexicographic ratio test and basis update."""
    d = _transformed_column(st, enter)
    leave = -1
    for r in range(st.m):
        if d[r] > 0 and (leave < 0 or _lex_less(st, d, r, leave)):
            leave = r
    if leave < 0:
        raise RuntimeError("LP unbounded; covering LPs cannot be unbounded")
    _eliminate(st, d, leave, enter)


def _lex_less(st: CoverLp, d: list[int], r: int, s: int) -> bool:
    """Is row r lexicographically smaller than row s in the ratio test?"""
    a, b = st.xb[r] * d[s], st.xb[s] * d[r]
    if a != b:
        return a < b
    for i in range(st.m):
        a, b = st.binv[r][i] * d[s], st.binv[s][i] * d[r]
        if a != b:
            return a < b
    return False
