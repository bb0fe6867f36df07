"""Independent checks of slopecalc results, on plain integers.

Nothing here imports the package, so a defect in it cannot hide behind a
shared helper.  Farey relations are recomputed by cross-multiplication,
branch and endpoint equations are re-evaluated, and each Seifert determinant
is recomputed from (a3, b3) and (k1, k2).  A slope is a pair (p, q) with
q >= 0 and infinity stored as (1, 0).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd

INF = (1, 0)

VERDICT_FINITE = "GCS finite"
VERDICT_TORUS_BUNDLE = "torus-bundle candidate"
VERDICT_EDGE_FAILS = "edge condition fails for large k"


def parse_slope(text: str) -> tuple[int, int]:
    if text == "inf":
        return INF
    p, _, q = text.partition("/")
    return int(p), int(q or 1)


def slope_text(x: tuple[int, int]) -> str:
    return "inf" if x[1] == 0 else f"{x[0]}/{x[1]}"


def det(x, y) -> int:
    """p'q - pq' for x = p/q, y = p'/q': it is 1 exactly when x < y span an edge."""
    return y[0] * x[1] - x[0] * y[1]


def less(x, y) -> bool:
    return x[0] * y[1] < y[0] * x[1]


def reduced(p: int, q: int) -> tuple[int, int]:
    if q < 0:
        p, q = -p, -q
    g = gcd(abs(p), q)
    return p // g, q // g


def successor_of(x) -> tuple[int, int]:
    """The successor found by scanning denominators, for small q only."""
    p, q = x
    if q == 1:
        return p + 1, 1
    for q2 in range(1, q):
        if (1 + p * q2) % q == 0:
            return (1 + p * q2) // q, q2
    raise ValueError(f"no successor for {p}/{q}")


def check_successor(a, s) -> bool:
    """s > a spans an edge, and its denominator is the least positive one."""
    return det(a, s) == 1 and 1 <= s[1] <= max(a[1] - 1, 1)


def check_neighbor(a, upper, n) -> bool:
    """n in (a, upper) spans an edge, and the next larger upper neighbor does not fit."""
    prev = (n[0] - a[0], n[1] - a[1])
    return det(a, n) == 1 and less(n, upper) and (prev[1] <= 0 or not less(prev, upper))


def check_path(start, to, vertices) -> bool:
    """An edge path from start to to that is the shortest one.

    Every step before the last goes from a vertex x that spans no edge with
    to, to the greatest neighbor of x below to.  Farey edges do not cross, so
    any increasing path from x to to passes through that neighbor, and the
    path built this way is the shortest.
    """
    steps = list(zip(vertices, vertices[1:]))
    return (
        vertices[0] == start
        and vertices[-1] == to
        and to not in vertices[:-1]
        and det(*steps[-1]) == 1
        and all(det(x, to) != 1 and check_neighbor(x, to, y) for x, y in steps[:-1])
    )


def check_analysis(triple, k_max: Fraction, normalized, rows, verdict: str) -> bool:
    """Recompute normalization, every row and the verdict of a Seifert analysis.

    triple and normalized are three (b, a) slopes; rows are
    (k, k1, k2, s_k, determinant, edge, coprime) with s_k a reduced pair.
    """
    (b1, a1), (b2, a2), (b3, a3) = triple
    shift = b1 // a1 + b2 // a2
    b1, b2, b3 = b1 % a1, b2 % a2, b3 + shift * a3
    if tuple(normalized) != ((b1, a1), (b2, a2), (b3, a3)):
        return False
    bp1, ap1 = successor_of((b1, a1))
    bp2, ap2 = successor_of((b2, a2))
    g = gcd(a1, a2)
    family = (ap2 - ap1) % g == 0
    expected_rows = int(k_max * g) + 1 if family else 0
    if len(rows) != expected_rows:
        return False
    for i, (k, k1, k2, sk, d, edge, coprime) in enumerate(rows):
        if k != Fraction(i, g) or k1 * a1 + ap1 != k2 * a2 + ap2:
            return False
        if i == 0 and not 0 <= k1 < a2 // g:
            return False
        if i > 0 and k1 - rows[i - 1][1] != a2 // g:
            return False
        num = 1 - (k1 * b1 + bp1) - (k2 * b2 + bp2)
        den = k1 * a1 + ap1
        if d != a3 * num - b3 * den or sk != reduced(num, den):
            return False
        if edge != (det((b3, a3), sk) == 1) or coprime != (gcd(abs(num), den) == 1):
            return False
    e = Fraction(b1, a1) + Fraction(b2, a2) + Fraction(b3, a3)
    if not family or e != 0:
        expected = VERDICT_FINITE
    elif Fraction(1, a1) + Fraction(1, a2) + Fraction(1, a3) == 1:
        expected = VERDICT_TORUS_BUNDLE
    else:
        expected = VERDICT_EDGE_FAILS
    return verdict == expected


def branch_ok(curves, w) -> bool:
    """Every branch equation w(out1) + w(out2) = w(in) holds; curves index into w."""
    return all(w[o1] + w[o2] == w[i] for o1, o2, i in curves)


@lru_cache(maxsize=None)
def weight_count(sectors: int, curves: tuple, lo: int, hi: int) -> int:
    """The number of weight maps with values in [lo, hi] that satisfy curves.

    Each curve's inward sector must be the inward sector of no other curve
    and must not be used by an earlier curve, so the inward weights follow
    from the others, curve by curve.  The count is a brute force over the
    sectors the curves use but do not determine, times the free choices of
    the sectors no curve uses.
    """
    inward = [i for _, _, i in curves]
    used = {s for curve in curves for s in curve}
    free = sorted(used - set(inward))
    for j, (o1, o2, i) in enumerate(curves):
        if i in inward[:j] or i in (o1, o2) or any(i in c[:2] for c in curves[:j]):
            raise ValueError(f"curve {j} does not determine its inward sector")
    count = 0
    for values in product(range(lo, hi + 1), repeat=len(free)):
        w = dict(zip(free, values))
        for o1, o2, i in curves:
            w[i] = w[o1] + w[o2]
        count += all(lo <= w[i] <= hi for i in inward)
    return count * (hi - lo + 1) ** (sectors - len(used))


def check_weight_solutions(sectors: int, curves, lo: int, hi: int, solutions) -> bool:
    """Solutions are value tuples in sorted-id order: in range, valid, strictly
    lex-increasing, and as many as weight_count finds."""
    return (
        len(solutions) == weight_count(sectors, tuple(map(tuple, curves)), lo, hi)
        and all(len(w) == sectors and all(lo <= v <= hi for v in w) for w in solutions)
        and all(branch_ok(curves, w) for w in solutions)
        and all(x < y for x, y in zip(solutions, solutions[1:]))
    )


def multicurve_count(k, allow_boundary_parallel: bool) -> int:
    """The number of solutions of the endpoint equations, by a parity count.

    The three equations make n12, n13 and n23 all even or all odd.  Tight
    (every b_i zero), the system has the one solution n12 = k1 + k2 - k3 and
    so on, if that is nonnegative.  Otherwise, for each (n12, n13) with
    n12 + n13 <= 2 k1, n12 <= 2 k2 and n13 <= 2 k3, n23 takes every value of
    their parity from 0 or 1 up to min(2 k2 - n12, 2 k3 - n13).
    """
    k1, k2, k3 = k
    if not allow_boundary_parallel:
        return int(min(k1 + k2 - k3, k1 + k3 - k2, k2 + k3 - k1) >= 0)
    count = 0
    for n12 in range(min(2 * k1, 2 * k2) + 1):
        for n13 in range(n12 % 2, min(2 * k1 - n12, 2 * k3) + 1, 2):
            top = min(2 * k2 - n12, 2 * k3 - n13)
            count += (top - n12 % 2) // 2 + 1
    return count


def check_multicurves(k, allow_boundary_parallel: bool, coords) -> bool:
    """Coordinates (n12, n13, n23, b1, b2, b3) meet the endpoint equations, in
    lex order, and are as many as multicurve_count finds."""
    k1, k2, k3 = k
    if len(coords) != multicurve_count(k, allow_boundary_parallel):
        return False
    for n12, n13, n23, b1, b2, b3 in coords:
        if min(n12, n13, n23, b1, b2, b3) < 0:
            return False
        if not allow_boundary_parallel and (b1 or b2 or b3):
            return False
        if (
            n12 + n13 + 2 * b1 != 2 * k1
            or n12 + n23 + 2 * b2 != 2 * k2
            or n13 + n23 + 2 * b3 != 2 * k3
        ):
            return False
    return all(x < y for x, y in zip(coords, coords[1:]))


def amputated(doc: dict, removed: set[str]) -> dict:
    """The surface document expected after removing the sectors in removed."""
    kept, demoted = [], []
    for c in doc["branch_curves"]:
        incidences = ((c["out1"], "out1"), (c["out2"], "out2"), (c["in"], "in"))
        if all(sid not in removed for sid, _ in incidences):
            kept.append(c)
        else:
            demoted += [{"sector": s, "role": r} for s, r in incidences if s not in removed]
    boundary = [b for b in doc.get("boundary_curves", []) if b["sector"] not in removed]
    boundary = sorted(boundary + demoted, key=lambda b: (b["sector"], b["role"]))
    touched = {b["sector"] for b in boundary}
    out = {
        "sectors": [
            dict(s, boundary=s["boundary"] or s["id"] in touched)
            for s in doc["sectors"]
            if s["id"] not in removed
        ],
        "branch_curves": kept,
    }
    if boundary:
        out["boundary_curves"] = boundary
    if doc.get("vertical_annuli"):
        out["vertical_annuli"] = doc["vertical_annuli"]
    return out


def amputated_text(doc: dict) -> list[str]:
    curves = ", ".join(f"({c['out1']},{c['out2']}->{c['in']})" for c in doc["branch_curves"])
    boundary = ", ".join(f"{b['sector']}:{b['role']}" for b in doc.get("boundary_curves", []))
    return [
        "sectors: " + (", ".join(s["id"] for s in doc["sectors"]) or "(none)"),
        "branch curves: " + (curves or "(none)"),
        "boundary curves: " + (boundary or "(none)"),
    ]


def degree_violations(annuli) -> list[str]:
    """The annulus id of each expected degree-dichotomy violation, in order."""
    out = []
    for a in annuli:
        first, second = a["boundary_classes"]
        if first != second:
            out.append(a["id"])
        if a["degree"] == 0 and "disk-bounding" in (first, second):
            out.append(a["id"])
        elif a["degree"] == 1 and "essential" in (first, second):
            out.append(a["id"])
        elif a["degree"] >= 2:
            out.append(a["id"])
    return out
