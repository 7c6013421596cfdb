"""Exact rational simplex for covering LPs.

Solves  min sum_j x_j  subject to  sum_{j : i in cols[j]} x_j >= 1 for every
row i, x >= 0  -- entirely in integer arithmetic (no floating point).

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
column is worth adding iff its duals sum to more than ``den``.
``solve_covering_lp`` is the one-shot form of the same path.

Entering column: most negative reduced cost with lowest-index tie-break
("dantzig", the default) or Bland's lowest-index rule ("bland"). Leaving row:
lexicographic ratio test, which is deterministic and prevents cycling under
either entering rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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

    ``columns`` are the columns so far, ``den`` the common denominator and
    ``prices()`` the optimal duals as integers ``den * y``.
    """

    def __init__(self, m: int, columns: list[tuple[int, ...]], rule: str):
        self.m = m
        self.columns = columns
        self.ns = len(columns)
        self.rule = rule
        self.iterations = 0
        # B^-1 = binv / den and x_B = xb / den, all ints, den = |det B| > 0
        self.den = 1
        self.binv = [[int(i == j) for j in range(m)] for i in range(m)]
        self.xb = [1] * m
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
        if value != sum(dual, ZERO):
            raise RuntimeError("primal/dual value mismatch; simplex invariant broken")
        return CoverLpSolution(value, primal, dual, self.iterations)


def solve_covering_lp(num_rows: int, columns: list[tuple[int, ...]], rule: str = "dantzig") -> CoverLpSolution:
    """Exact optimum of the unit-cost covering LP over the given columns."""
    return open_covering_lp(num_rows, columns, rule).solution()


def open_covering_lp(num_rows: int, columns: list[tuple[int, ...]], rule: str = "dantzig") -> CoverLp:
    """The covering LP over the given columns, solved to optimality by both phases."""
    if rule not in ("dantzig", "bland"):
        raise ValueError(f"unknown pivot rule {rule!r}")
    m = num_rows
    lp = CoverLp(m, list(columns), rule)
    if m == 0:
        return lp
    covered = set()
    for j, col in enumerate(columns):
        if not col:
            raise ValueError(f"column {j} is empty")
        covered.update(col)
    if covered != set(range(m)):
        missing = sorted(set(range(m)) - covered)
        raise ValueError(f"rows {missing} are covered by no column; LP infeasible")

    lp.iterations = _iterate(lp, phase1=True)
    # At a phase-1 optimum the surplus columns force y >= 0 and the zero
    # objective forces sum(y) = y.b = 0, so y = c_B B^-1 = 0 and no artificial
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
    for col in columns:
        if not col or not all(0 <= i < lp.m for i in col):
            raise ValueError(f"column {col!r} is empty or names a row outside 0..{lp.m - 1}")
    k, ns = len(columns), lp.ns
    lp.basis = [b + k if b >= ns else b for b in lp.basis]  # slack ids move up
    lp.columns += columns
    lp.ns += k
    lp.iterations += _iterate(lp, phase1=False)


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
    # Long degenerate stalls are normal here (covering LPs over symmetric
    # graphs), and the lexicographic test usually resolves them. Should a
    # stall outlast the threshold, switch to full Bland pivoting, whose
    # termination guarantee needs no basis invariant, until the objective
    # strictly moves again.
    stall_threshold = max(1000, 40 * st.m)
    stalled = 0
    fallback = False
    iterations = 0
    rule = st.rule
    while True:
        iterations += 1
        if iterations > _ITERATION_GUARD:
            raise RuntimeError("simplex iteration guard tripped")
        effective = "bland" if fallback else rule
        enter = _price(st, _dual_prices(st, phase1), phase1, effective)
        if enter < 0:
            return iterations
        degenerate = _pivot(st, enter, effective)
        if degenerate:
            stalled += 1
            fallback = fallback or rule == "bland" or stalled > stall_threshold
        else:
            stalled = 0
            fallback = rule == "bland"


def _price(st: CoverLp, p: list[int], phase1: bool, rule: str) -> int:
    """Entering variable index, or -1 at optimality.

    Works on integer-scaled reduced costs z_j = q * r_j with q = den: the sign
    and the ordering are unaffected by the common positive scale q.
    """
    m, ns, q = st.m, st.ns, st.den
    candidates: list[tuple[int, int]] = []  # (z_j, variable id)
    struct_cost = 0 if phase1 else q
    price = p.__getitem__
    z = [struct_cost - sum(map(price, col)) for col in st.columns]
    if rule == "bland":
        j = next((j for j, zj in enumerate(z) if zj < 0), -1)
    else:
        j = z.index(min(z))
    if j >= 0 and z[j] < 0:
        candidates.append((z[j], j))
    for i in range(m):  # surplus columns: A = -e_i, cost 0
        if p[i] < 0:
            candidates.append((p[i], ns + i))
    if phase1:
        for i in range(m):  # artificial columns: A = e_i, cost 1
            if q - p[i] < 0:
                candidates.append((q - p[i], ns + m + i))
    if not candidates:
        return -1
    if rule == "bland":
        return min(j for _, j in candidates)
    return min(candidates)[1]


def _pivot(st: CoverLp, enter: int, rule: str) -> bool:
    """Ratio test and basis update; returns True when the step is degenerate.

    Ties break lexicographically, or by smallest basic-variable index when
    running under Bland's rule.
    """
    d = _transformed_column(st, enter)
    xb = st.xb
    leave = -1
    for r in range(st.m):
        if d[r] <= 0:
            continue
        if leave < 0:
            leave = r
        elif rule == "bland":
            # xb[r] / d[r] against xb[leave] / d[leave]; both d are positive
            a, b = xb[r] * d[leave], xb[leave] * d[r]
            if a < b or (a == b and st.basis[r] < st.basis[leave]):
                leave = r
        elif _lex_less(st, d, r, leave):
            leave = r
    if leave < 0:
        raise RuntimeError("LP unbounded; covering LPs cannot be unbounded")
    degenerate = xb[leave] == 0
    _eliminate(st, d, leave, enter)
    return degenerate


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
