"""Exact rational simplex for covering LPs.

Solves  min sum_j x_j  subject to  sum_j a_ij x_j >= b_i for every row i,
x >= 0, in integer arithmetic only. A column is a tuple of rows that lists
row i a_ij times; each b_i is a positive integer (default 1). The simplex
certifies the optimum of the LP it is given; ``fractional`` checks that the
optimum of its orbit LP is chi_f.

Revised simplex, fraction-free (Edmonds 1967; Bareiss 1968): den * B^-1 (the
adjugate of B up to sign) and den * x_B are integers, den = |det B| > 0.
den * B^-1 is packed by columns: one int per row i, whose W-bit field r holds
the signed entry at basis position r. A transformed column is a sum of packed
ints D, decoded once into d; the Gauss-Jordan step is one big-int update per
column, cols[i] = (piv cols[i] - b_i D) // den + b_i 2^(W leave), b_i the
field ``leave`` of cols[i]. It is exact: each field's numerator is den times
an entry of the new adjugate, and exact division is linear. A field decodes
while |v| < 2^(W-1), so a running bound E on |entries|, E' = max(max|b|,
(piv E + max|d| max|b|) // den), repacks at twice the width (from 64; E reset
to the true maximum) before a new entry or a transformed column (at most
len(column) E) could reach that. The pivot updates the duals den * y,
p_i' = (piv p_i - f b_i) // den with f = p.a_e - c_e den. Only results
become Fractions.

Column generation: ``open_covering_lp`` keeps the optimal basis in its
``CoverLp``; ``add_covering_columns`` appends columns nonbasic at zero and
pivots on from it. A column is worth adding iff its duals ``den * y``,
counted once per entry, sum to more than ``den``.

One phase, one pivot rule. Each row i also has a unit column e_i at cost 1,
which any column that meets row i dominates: the units change no feasible
LP's value, and a row that no column meets takes its unit at weight b_i.
They are the first basis, B = I, x_B = b >= 1, den * y = 1, and stay priced
for the LP's whole life, each in O(1) from its dual. Dantzig pricing (lowest
id on ties) and the lexicographic ratio test (Dantzig-Orden-Wolfe 1955):
every row of [x_B | B^-1] starts lexicographically positive, each
lexicographic pivot keeps it so, and [c_B x_B | c_B B^-1] strictly
decreases, also across added columns, so no basis repeats over the LP's
whole life.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from ._record import Record
from .errors import CapExceeded

_ITERATION_GUARD = 500_000


class CoverLpSolution(Record):
    """Optimal primal weights, dual row prices, and the common objective value."""

    value: Fraction
    primal: dict[int, Fraction]  # column or unit id -> weight (only nonzero entries)
    dual: tuple[Fraction, ...]  # one price per row
    iterations: int


class CoverLp:
    """A covering LP held at its optimum, with the basis kept for added columns."""

    def __init__(self, m: int, columns: list[tuple[int, ...]], rhs: list[int]):
        self.m = m
        self.columns = columns
        self.rhs = rhs
        self.ns = len(columns)
        self.iterations = 0
        # B^-1 = binv / den, x_B = xb / den; cols packs binv, |entries| <= bound
        self.den = self.bound = 1
        _set_width(self, 64)
        self.cols = [1 << 64 * i for i in range(m)]
        self.xb = list(rhs)
        self.p = [1] * m  # den * y
        # variable ids: 0..ns-1 columns, ns..ns+m-1 surplus, ns+m+i the unit e_i
        self.basis = list(range(self.ns + m, self.ns + 2 * m))

    @property
    def binv(self) -> list[list[int]]:
        """den * B^-1 decoded, one row per basis position."""
        return list(map(list, zip(*map(self._unpack, self.cols))))

    def _unpack(self, x: int) -> list[int]:
        """The m signed fields of a packed int, field 0 first."""
        nb, half, take = self.w // 8, self.half, int.from_bytes
        raw = (x + self.bias).to_bytes(nb * self.m, "little")
        return [take(raw[k : k + nb], "little") - half for k in range(0, len(raw), nb)]

    def prices(self) -> list[int]:
        """The optimal duals scaled by den: den * y, nonnegative integers."""
        return list(self.p)

    def solution(self) -> CoverLpSolution:
        den = self.den
        dual = tuple(Fraction(v, den) for v in self.p)
        surplus = range(self.ns, self.ns + self.m)
        primal = {b: Fraction(x, den) for b, x in zip(self.basis, self.xb) if x and b not in surplus}
        value = sum(primal.values(), Fraction(0))
        if value != sum(map(mul, dual, self.rhs), Fraction(0)):
            raise RuntimeError("primal/dual value mismatch; simplex invariant broken")
        return CoverLpSolution(value, primal, dual, self.iterations)


def open_covering_lp(
    num_rows: int, columns: list[tuple[int, ...]], rhs: list[int] | None = None
) -> CoverLp:
    """The covering LP over the given columns and the unit columns, solved to
    optimality from the unit basis.

    ``rhs`` holds one positive integer per row and defaults to all ones.
    """
    m = num_rows
    rhs = [1] * m if rhs is None else list(rhs)
    if len(rhs) != m or not all(isinstance(b, int) and b >= 1 for b in rhs):
        raise ValueError(f"rhs must be {m} positive integers, got {rhs!r}")
    lp = CoverLp(m, list(columns), rhs)
    _check_columns(m, lp.columns)
    _iterate(lp)
    return lp


def add_covering_columns(lp: CoverLp, columns: list[tuple[int, ...]]) -> None:
    """Append columns to an optimal covering LP and re-optimize from its basis.

    The new columns enter nonbasic at zero, so the basis stays primal feasible
    and the pivots go on from it.
    """
    _check_columns(lp.m, columns)
    k, ns = len(columns), lp.ns
    lp.basis = [b + k if b >= ns else b for b in lp.basis]  # surplus and unit ids move up
    lp.columns += columns
    lp.ns += k
    _iterate(lp)


def _check_columns(m: int, columns: list[tuple[int, ...]]) -> None:
    """Each column must be a nonempty tuple of rows in 0..m-1."""
    for j, col in enumerate(columns):
        if not col or not all(0 <= i < m for i in col):
            raise ValueError(f"column {j} {col!r} is empty or names a row outside 0..{m - 1}")


def _set_width(st: CoverLp, w: int) -> None:
    """w-bit fields; bias, half a field in each, makes every field nonnegative."""
    st.w, st.half, st.mask = w, 1 << w - 1, (1 << w) - 1
    st.bias = st.half * ((1 << w * st.m) - 1) // st.mask


def _widen(st: CoverLp) -> None:
    """Repack at twice the width, with the bound reset to the true maximum."""
    fields = list(map(st._unpack, st.cols))
    st.bound = max(abs(v) for f in fields for v in f)
    _set_width(st, 2 * st.w)
    st.cols[:] = (sum(v << st.w * r for r, v in enumerate(f)) for f in fields)


def _iterate(st: CoverLp) -> None:
    """Pivot to the optimum; the guard bounds the LP's running total of
    iterations over its opening solve and every added batch of columns."""
    while True:
        st.iterations += 1
        if st.iterations > _ITERATION_GUARD:
            raise CapExceeded(
                f"simplex LP reached iteration {st.iterations}, above the"
                f" _ITERATION_GUARD cap of {_ITERATION_GUARD}"
            )
        entering = _price(st)
        if entering is None:
            return
        _pivot(st, *entering)


def _price(st: CoverLp) -> tuple[int, int] | None:
    """(den * r_j, j) for the entering variable j, or None at optimality."""
    m, ns, q, p = st.m, st.ns, st.den, st.p
    price = p.__getitem__
    z = [q - sum(map(price, col)) for col in st.columns]
    low = min(z, default=0)  # no columns, no structural candidate
    # (z_j, variable id): surplus A = -e_i at cost 0, unit A = e_i at cost 1
    candidates = [(y, ns + i) for i, y in enumerate(p) if y < 0]
    candidates += [(q - y, ns + m + i) for i, y in enumerate(p) if q < y]
    if low < 0:
        candidates.append((low, z.index(low)))
    return min(candidates, default=None)


def _pivot(st: CoverLp, z: int, enter: int) -> None:
    """Ratio test, then the Gauss-Jordan step on the pivot d[leave] > 0, the
    new den; z = den * r_enter = -f."""
    ns, m, cols = st.ns, st.m, st.cols
    if enter < ns:
        rows, sign = st.columns[enter], 1
    else:  # surplus A = -e_i, unit A = e_i
        rows, sign = ((enter - ns) % m,), 1 if enter >= ns + m else -1
    while len(rows) * st.bound >> st.w - 1:  # d must fit its fields
        _widen(st)
    D = sign * sum(map(cols.__getitem__, rows))  # den * B^-1 a, packed
    d = st._unpack(D)
    leave = _leaving_row(st, d)
    piv, den, bias, mask, half, s = d[leave], st.den, st.bias, st.mask, st.half, st.w * leave
    b = [(c + bias >> s & mask) - half for c in cols]  # row leave of binv
    top, dtop = max(map(abs, b)), max(map(abs, d))
    while True:  # so must the new entries
        bound = max(top, (piv * st.bound + dtop * top) // den)
        if not bound >> st.w - 1:
            break
        _widen(st)
        D = sign * sum(map(cols.__getitem__, rows))
    st.bound, s = bound, st.w * leave
    for i, (c, f) in enumerate(zip(cols, b)):
        if f:
            cols[i] = (piv * c - f * D) // den + (f << s)
        elif piv != den:
            cols[i] = piv * c // den
    xl = st.xb[leave]
    st.xb = [x if r == leave else (piv * x - f * xl) // den for r, (x, f) in enumerate(zip(st.xb, d))]
    st.p = [(piv * y + z * f) // den for y, f in zip(st.p, b)]
    st.den = piv
    st.basis[leave] = enter


def _leaving_row(st: CoverLp, d: list[int]) -> int:
    """The r, d[r] > 0, with [x_B | B^-1]_r / d[r] lexicographically least;
    B^-1 is read a column at a time, in the rows still tied."""
    rows = [r for r in range(st.m) if d[r] > 0]
    if not rows:
        raise RuntimeError("LP unbounded; covering LPs cannot be unbounded")
    key, cols, w, mask, half = st.xb, iter(st.cols), st.w, st.mask, st.half
    while True:
        low = rows[0]
        for r in rows:
            if key[r] * d[low] < key[low] * d[r]:
                low = r
        rows = [r for r in rows if key[r] * d[low] == key[low] * d[r]]
        if len(rows) == 1:
            return low
        c = next(cols) + st.bias
        key = {r: (c >> w * r & mask) - half for r in rows}
