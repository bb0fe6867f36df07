"""Independent brute-force oracles the library is checked against.

Nothing here shares an algorithm with the package: the successor oracle
maximizes over a denominator sweep, the neighbor oracle scans every fraction
in a window, the path oracle runs breadth-first search on the
bounded-denominator Farey graph, and the weight / multicurve oracles grid the
full search space, and the Seifert row oracle evaluates the displayed s_k
formulas in Fraction arithmetic over duals taken from the successor oracle.
parse_coordinates reads printed multicurve coordinates with a regular
expression, so a JSON report can be checked without the package's types.
Each search oracle takes an explicit bound (default 1000) and raises
OracleBoundError when the bound is provably insufficient.
"""

from __future__ import annotations

import re
from collections import deque
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor, gcd

from slopecalc import Slope

DEFAULT_BOUND = 1000


class OracleBoundError(RuntimeError):
    """The configured denominator bound cannot certify an answer."""


def successor_oracle(b: Slope, bound: int = DEFAULT_BOUND) -> Slope:
    """Maximize p'/q' over all 1 <= q' <= bound with p'*q - p*q' = 1."""
    if b.is_infinite:
        raise ValueError("successor oracle needs a finite slope")
    p, q = b.numerator, b.denominator
    if q > bound:
        raise OracleBoundError(f"bound {bound} below denominator {q}")
    best = None
    for qq in range(1, bound + 1):
        if (1 + p * qq) % q:
            continue
        cand = Slope((1 + p * qq) // q, qq)
        if best is None or best < cand:
            best = cand
    if best is None:
        raise OracleBoundError(f"no solution with denominator <= {bound}")
    return best


def neighbor_below_oracle(a: Slope, upper: Slope, bound: int = DEFAULT_BOUND) -> Slope:
    """Scan every fraction with denominator <= bound inside (a, upper); keep the
    greatest one whose intersection number with a is 1."""
    if a.is_infinite or not a < upper:
        raise ValueError("oracle needs finite a < upper")
    if upper.is_infinite:
        return successor_oracle(a, bound)
    av = a.numerator / a.denominator
    uv = upper.numerator / upper.denominator
    best = None
    for q in range(1, bound + 1):
        for p in range(floor(av * q) - 1, ceil(uv * q) + 2):
            if abs(p * a.denominator - q * a.numerator) != 1:
                continue
            cand = Slope(p, q)
            if a < cand < upper and (best is None or best < cand):
                best = cand
    if best is None:
        raise OracleBoundError(f"no neighbor with denominator <= {bound}")
    return best


@lru_cache(maxsize=None)
def _first_denominator(r: int, q: int) -> int:
    """The least q' in [1, q] with q | 1 + r*q', by plain scan."""
    return next(qq for qq in range(1, q + 1) if (1 + r * qq) % q == 0)


def _upward_neighbors(x: tuple[int, int], bound: int) -> list[tuple[int, int]]:
    """All y > x with |det(x, y)| = 1 and denominator <= bound, plus infinity
    when x is an integer.

    The admissible denominators q' (those with q | 1 + p*q') form an
    arithmetic progression of step q; the first one is found by plain scan,
    the rest by stepping, which keeps the sweep exhaustive without the
    closed-form modular inverse the implementation uses.  The first one
    depends only on (p mod q, q), so its scan is cached on that pair, which
    vertices one unit apart share."""
    p, q = x
    out = []
    if q == 1:
        out.append((1, 0))
    first = _first_denominator(p % q, q)
    if first > bound:
        return out
    for qq in range(first, bound + 1, q):
        out.append(((1 + p * qq) // q, qq))
    return out


def bfs_path_length(
    a: Slope, b: Slope, bound: int = DEFAULT_BOUND
) -> int:
    """Number of vertices of a shortest increasing path from a to b in the
    Farey graph restricted to denominators <= bound.

    For b = infinity, vertices beyond the smallest integer exceeding a are
    pruned: any path through larger values passes that integer first (Farey
    edges do not cross), so the pruning cannot change the distance.
    """
    if not a < b:
        raise ValueError("oracle needs a < b")
    if not b.is_infinite and b.denominator > bound:
        raise OracleBoundError(f"target denominator exceeds bound {bound}")
    if a.denominator > bound:
        raise OracleBoundError(f"start denominator exceeds bound {bound}")
    start = (a.numerator, a.denominator)
    target = (b.numerator, b.denominator)
    if b.is_infinite:
        cap: tuple[int, int] | None = (a.numerator // a.denominator + 1, 1)
    else:
        cap = None
    dist = {start: 0}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        d = dist[x]
        for y in _upward_neighbors(x, bound):
            if y == target:
                return d + 2  # vertex count includes both endpoints
            py, qy = y
            if qy == 0:
                continue
            if cap is not None and py * cap[1] > cap[0] * qy:
                continue
            if cap is None and py * target[1] > target[0] * qy:
                continue
            if y not in dist:
                dist[y] = d + 1
                queue.append(y)
    raise OracleBoundError(f"no path within denominator bound {bound}")


def seifert_rows_oracle(triple, k_max) -> list[tuple]:
    """Evidence rows (k, k1, k2, s_k, determinant, edge, coprime) for k <= k_max.

    The triple is shifted into 0 < b1/a1, b2/a2 < 1 with the integer parts
    moved onto b3/a3; r1 is the least value in range(a2 // g) solving
    r1*a1 + a1' = 0 (mod a2), and each row is the displayed formulas for k1,
    k2 and s_k evaluated in Fraction arithmetic.  s_k is a reduced Fraction.
    """
    s1, s2, s3 = (Fraction(s.numerator, s.denominator) for s in triple.invariants)
    shift = floor(s1) + floor(s2)
    s1, s2, s3 = s1 - floor(s1), s2 - floor(s2), s3 + shift
    (b1, a1), (b2, a2), (b3, a3) = (
        (s.numerator, s.denominator) for s in (s1, s2, s3)
    )
    d1 = successor_oracle(Slope(b1, a1))
    d2 = successor_oracle(Slope(b2, a2))
    (bp1, ap1), (bp2, ap2) = (d1.numerator, d1.denominator), (d2.numerator, d2.denominator)
    g = gcd(a1, a2)
    solutions = [r for r in range(a2 // g) if (r * a1 + ap1 - ap2) % a2 == 0]
    if not solutions:
        return []
    r1 = solutions[0]
    r2 = (r1 * a1 + ap1 - ap2) // a2
    rows = []
    k = Fraction(0)
    while k <= k_max:
        k1, k2 = k * a2 + r1, k * a1 + r2
        if k1.denominator != 1 or k2.denominator != 1:
            raise ValueError(f"non-integer (k1, k2) at k = {k}")
        num = 1 - (k1 * b1 + bp1) - (k2 * b2 + bp2)
        den = k1 * a1 + ap1
        if den != k2 * a2 + ap2:
            raise ValueError(f"the two s_k denominators differ at k = {k}")
        s_k = Fraction(int(num), int(den))
        edge = s3 < s_k and abs(
            s_k.numerator * s3.denominator - s3.numerator * s_k.denominator
        ) == 1
        rows.append(
            (
                k,
                int(k1),
                int(k2),
                s_k,
                int(a3 * num - b3 * den),
                edge,
                gcd(abs(int(num)), int(den)) == 1,
            )
        )
        k += Fraction(1, g)
    return rows


def grid_weight_solutions(surface, max_weight: int, positivity: str) -> list[dict[str, int]]:
    """Full-grid sweep of every assignment, checking each branch equation."""
    lo = 0 if positivity == "nonnegative" else 1
    ids = sorted(set(s.id for s in surface.sectors))
    solutions = []
    values = list(range(lo, max_weight + 1))

    def sweep(prefix: dict[str, int], remaining: list[str]) -> None:
        if not remaining:
            for c in surface.branch_curves:
                if prefix[c.out1] + prefix[c.out2] != prefix[c.inward]:
                    return
            solutions.append(dict(prefix))
            return
        sid = remaining[0]
        for v in values:
            prefix[sid] = v
            sweep(prefix, remaining[1:])
        del prefix[sid]

    sweep({}, ids)
    return solutions


def multicurve_grid(bd, allow_boundary_parallel: bool) -> list[tuple[int, ...]]:
    """Cube sweep over (n12, n13, n23); the b_i fall out of the equations.

    Static per-variable bounds (n_ij <= 2*min(k_i, k_j) follows from the two
    equations the arc appears in) keep the sweep exhaustive."""
    out = []
    for n12 in range(2 * min(bd.k1, bd.k2) + 1):
        for n13 in range(2 * min(bd.k1, bd.k3) + 1):
            for n23 in range(2 * min(bd.k2, bd.k3) + 1):
                twice_b1 = 2 * bd.k1 - n12 - n13
                twice_b2 = 2 * bd.k2 - n12 - n23
                twice_b3 = 2 * bd.k3 - n13 - n23
                if min(twice_b1, twice_b2, twice_b3) < 0:
                    continue
                if twice_b1 % 2 or twice_b2 % 2 or twice_b3 % 2:
                    continue
                b1, b2, b3 = twice_b1 // 2, twice_b2 // 2, twice_b3 // 2
                if not allow_boundary_parallel and (b1 or b2 or b3):
                    continue
                out.append((n12, n13, n23, b1, b2, b3))
    return sorted(out)


def parse_coordinates(text: str) -> tuple[int, ...]:
    """The six integers of a printed multicurve "(n12,n13,n23|b1,b2,b3)";
    ValueError on any other text."""
    match = re.fullmatch(r"\((\d+),(\d+),(\d+)\|(\d+),(\d+),(\d+)\)", text.strip())
    if match is None:
        raise ValueError(f"cannot parse multicurve coordinates {text!r}")
    return tuple(int(group) for group in match.groups())


def slope_corpus(max_den: int, max_num: int) -> list[Slope]:
    """Every canonical p/q with 1 <= q <= max_den and |p| <= max_num."""
    out = []
    for q in range(1, max_den + 1):
        for p in range(-max_num, max_num + 1):
            if gcd(abs(p), q) == 1:
                out.append(Slope(p, q))
    return out
