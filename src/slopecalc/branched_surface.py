"""Combinatorial branched surfaces with integer weight systems.

A branched surface is stored as its sector set plus the branch curves of the
branch locus; each branch curve names the two sectors whose branching
direction is outward and the one sector whose branching direction is inward.
A weight function is a plain dict from sector id to integer (the library never
mutates one) and is valid when the branch equation w(out1) + w(out2) = w(in)
holds along every branch curve.  Valid weights form a cone: the zero weight is
valid, and validity is closed under pointwise addition and nonnegative integer
scaling.

Per-sector Euler data is input, not computed: the carried-surface Euler
characteristic is the linear functional sum(w(B) * cusped_euler(B)).
"""

from __future__ import annotations

import json
from math import gcd

from .farey import Value

ROLES = ("out1", "out2", "in")
BOUNDARY_CLASSES = ("essential", "disk-bounding")
# enumerate_weights stops with ValueError rather than hold more solutions than this
MAX_SOLUTIONS = 100_000


class SectorRecord(Value):
    """A sector: one connected component of the surface minus the branch locus."""

    __slots__ = ("id", "cusped_euler", "boundary")

    def __init__(self, id: str, cusped_euler: int = 0, boundary: bool = False) -> None:
        super().__init__(id, cusped_euler, boundary)


class BranchCurve(Value):
    """One branch-locus component, oriented by its branching direction.

    The branch equation along the curve reads w(out1) + w(out2) = w(inward).
    The three sector ids need not be distinct.
    """

    __slots__ = ("out1", "out2", "inward")

    def __init__(self, out1: str, out2: str, inward: str) -> None:
        super().__init__(out1, out2, inward)


class BoundaryCurve(Value):
    """A surviving sector incidence left behind when a branch curve is deleted."""

    __slots__ = ("sector", "role")

    def __init__(self, sector: str, role: str) -> None:
        if role not in ROLES:
            raise ValueError(f"unknown incidence role {role!r}")
        super().__init__(sector, role)


class VerticalAnnulus(Value):
    """Degree and boundary-class bookkeeping for one vertical boundary annulus."""

    __slots__ = ("id", "degree", "boundary_classes")

    def __init__(self, id: str, degree: int, boundary_classes: tuple[str, str]) -> None:
        if degree < 0:
            raise ValueError(f"annulus {id}: negative degree {degree}")
        classes = tuple(boundary_classes)
        if len(classes) != 2:
            raise ValueError(f"annulus {id}: needs two boundary classes, got {len(classes)}")
        for tag in classes:
            if tag not in BOUNDARY_CLASSES:
                raise ValueError(f"annulus {id}: unknown boundary class {tag!r}")
        super().__init__(id, degree, classes)


class BranchedSurface(Value):
    __slots__ = ("sectors", "branch_curves", "boundary_curves", "vertical_annuli")

    def __init__(
        self,
        sectors: tuple[SectorRecord, ...] = (),
        branch_curves: tuple[BranchCurve, ...] = (),
        boundary_curves: tuple[BoundaryCurve, ...] = (),
        vertical_annuli: tuple[VerticalAnnulus, ...] = (),
    ) -> None:
        super().__init__(
            tuple(sectors), tuple(branch_curves), tuple(boundary_curves), tuple(vertical_annuli)
        )

    def sector_ids(self) -> list[str]:
        return [s.id for s in self.sectors]


def validate_surface(surface: BranchedSurface) -> list[str]:
    """Structural violations of the surface data; an empty list means well formed."""
    violations = []
    ids = surface.sector_ids()
    seen: set[str] = set()
    for sid in ids:
        if sid in seen:
            violations.append(f"duplicate sector id {sid!r}")
        seen.add(sid)
    for curve in surface.branch_curves:
        for role in ROLES:
            sid = getattr(curve, "inward" if role == "in" else role)
            if sid not in seen:
                violations.append(f"branch curve references unknown sector {sid!r}")
    for bc in surface.boundary_curves:
        if bc.sector not in seen:
            violations.append(f"boundary curve references unknown sector {bc.sector!r}")
    annulus_ids: set[str] = set()
    for annulus in surface.vertical_annuli:
        if annulus.id in annulus_ids:
            violations.append(f"duplicate annulus id {annulus.id!r}")
        annulus_ids.add(annulus.id)
    return violations


def check_weights(surface: BranchedSurface, w: dict[str, int]) -> bool:
    """Whether w(out1) + w(out2) = w(in) holds on every curve for the id->integer map w.

    The keys of w must be exactly the sector ids; otherwise ValueError.
    """
    if set(w) != set(surface.sector_ids()):
        raise ValueError("weight function domain does not match the sector set")
    return all(
        w[c.out1] + w[c.out2] == w[c.inward] for c in surface.branch_curves
    )


def _echelon(rows: list[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Row-echelon form of the equations sum(c * w[j] for j, c in row.items()) == 0
    as {pivot: row}, a row's pivot being its largest position, no two rows sharing one.

    Fraction-free sparse elimination (Cohen, GTM 138, 2.2): while a row's
    largest position p is another row's pivot, p is cancelled by the
    gcd-reduced cross multiple and the row divided by its content.  The system
    keeps its solutions, so each pivot position is fixed by the positions
    before it.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row and (p := max(row)) in pivots:
            pivot = pivots[p]
            g = gcd(row[p], pivot[p])
            c, d = row[p] // g, pivot[p] // g
            row = {j: d * row.get(j, 0) - c * pivot.get(j, 0) for j in row.keys() | pivot}
            row = {j: v for j, v in row.items() if v}
            content = gcd(*row.values())
            row = {j: v // content for j, v in row.items()}
        if row:
            pivots[max(row)] = row
    return pivots


def enumerate_weights(
    surface: BranchedSurface,
    max_weight: int,
    positivity: str = "nonnegative",
) -> list[dict[str, int]]:
    """All valid weight functions with every weight in [lo, max_weight], as id->integer maps.

    lo is 0 for "nonnegative" and 1 for "positive".  Output is ordered
    lexicographically on the value tuple taken in sorted-sector-id order.
    The branch equations are brought to echelon form once (_echelon), which
    splits the sectors into free ones and determined ones, each determined
    sector fixed by the sectors that sort before it.  A depth-first search on
    an explicit stack runs each free sector from lo to max_weight and computes
    each determined one from the prefix, pruning when it is not an integer in
    [lo, max_weight]; so the cost follows the free sectors and the solutions,
    not the (max_weight + 1)^n grid.  Popping a free value pushes its
    successor before its children, which keeps the stack shallow and the
    order lexicographic.  A sector forced to 0 ends a positive search at once.
    Past MAX_SOLUTIONS solutions: ValueError.
    """
    if max_weight < 0:
        raise ValueError("max_weight must be nonnegative")
    if positivity not in ("nonnegative", "positive"):
        raise ValueError(f"unknown positivity {positivity!r}")
    lo = 0 if positivity == "nonnegative" else 1
    ids = sorted(set(surface.sector_ids()))
    index = {sid: i for i, sid in enumerate(ids)}
    equations = []
    for c in surface.branch_curves:
        row: dict[int, int] = {}
        for sid, sign in ((c.out1, 1), (c.out2, 1), (c.inward, -1)):
            row[index[sid]] = row.get(index[sid], 0) + sign
        equations.append({j: v for j, v in row.items() if v})
    # determined position p: d * w[p] == sum(c * w[j] for j, c in terms), all j < p
    solved = {
        p: (row[p], tuple((j, -c) for j, c in row.items() if j != p))
        for p, row in _echelon(equations).items()
    }
    if lo and any(not terms for _, terms in solved.values()):
        return []  # an echelon row holding only its pivot forces that sector to 0

    solutions: list[dict[str, int]] = []
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        depth = len(prefix)
        if depth and depth - 1 not in solved and prefix[-1] < max_weight:
            stack.append(prefix[:-1] + (prefix[-1] + 1,))
        if depth == len(ids):
            if len(solutions) == MAX_SOLUTIONS:
                raise ValueError(
                    f"more than {MAX_SOLUTIONS} solutions with weights up to {max_weight}"
                )
            solutions.append(dict(zip(ids, prefix)))
        elif depth not in solved:
            if lo <= max_weight:
                stack.append(prefix + (lo,))
        else:
            d, terms = solved[depth]
            value, rest = divmod(sum(c * prefix[j] for j, c in terms), d)
            if not rest and lo <= value <= max_weight:
                stack.append(prefix + (value,))
    return solutions


def carried_euler(surface: BranchedSurface, w: dict[str, int]) -> int:
    """Euler characteristic of the carried surface: sum of w(B) * cusped_euler(B).

    Linear in w.  Every component of a surface carried here is a torus, so a
    carrying weight must land in the kernel of this functional; the chi = 0
    filter is applied by callers.
    """
    if not check_weights(surface, w):
        raise ValueError("weight function violates the branch equations")
    return sum(w[s.id] * s.cusped_euler for s in surface.sectors)


def amputate(surface: BranchedSurface, sector_ids: set[str]) -> BranchedSurface:
    """Remove the named sectors, demoting orphaned incidences to boundary curves.

    Every branch curve touching a removed sector is deleted and each of its
    surviving incidences becomes a boundary-curve record; sectors that gain a
    boundary incidence are re-marked boundary = True (they are now candidates
    for further amputation).  Boundary records are kept sorted so that
    amputation by disjoint id sets commutes on the nose.
    """
    removed = set(sector_ids)
    if not removed:
        raise ValueError("amputation requires a nonempty sector set")
    known = set(surface.sector_ids())
    unknown = removed - known
    if unknown:
        raise ValueError(f"unknown sector ids: {sorted(unknown)}")

    kept_curves = []
    new_boundary = []
    for curve in surface.branch_curves:
        incidences = ((curve.out1, "out1"), (curve.out2, "out2"), (curve.inward, "in"))
        if all(sid not in removed for sid, _ in incidences):
            kept_curves.append(curve)
            continue
        for sid, role in incidences:
            if sid not in removed:
                new_boundary.append(BoundaryCurve(sid, role))
    boundary = [bc for bc in surface.boundary_curves if bc.sector not in removed]
    boundary.extend(new_boundary)
    boundary.sort(key=lambda bc: (bc.sector, bc.role))

    touched = {bc.sector for bc in boundary}
    sectors = tuple(
        SectorRecord(s.id, s.cusped_euler, True) if not s.boundary and s.id in touched else s
        for s in surface.sectors
        if s.id not in removed
    )
    return BranchedSurface(
        sectors=sectors,
        branch_curves=tuple(kept_curves),
        boundary_curves=tuple(boundary),
        vertical_annuli=surface.vertical_annuli,
    )


def check_degree_consistency(records: list[VerticalAnnulus]) -> list[str]:
    """Violations of the degree dichotomy.

    Admissible records have degree 0 with both boundary components essential,
    or degree 1 with both bounding disks; anything else is flagged: degree 0
    next to a disk, degree 1 next to an essential curve, any degree >= 2, and
    mixed boundary classes.
    """
    violations = []
    for r in records:
        first, second = r.boundary_classes
        if first != second:
            violations.append(f"annulus {r.id}: mixed boundary classes ({first}, {second})")
        if r.degree == 0:
            if "disk-bounding" in r.boundary_classes:
                violations.append(f"annulus {r.id}: degree 0 with a disk-bounding boundary")
        elif r.degree == 1:
            if "essential" in r.boundary_classes:
                violations.append(f"annulus {r.id}: degree 1 with an essential boundary")
        else:
            violations.append(f"annulus {r.id}: degree {r.degree} outside the 0/1 dichotomy")
    return violations


# ---------------------------------------------------------------------------
# Serialization: JSON-compatible documents
# ---------------------------------------------------------------------------

def surface_to_dict(surface: BranchedSurface) -> dict:
    doc: dict = {
        "sectors": [
            {"id": s.id, "cusped_euler": s.cusped_euler, "boundary": s.boundary}
            for s in surface.sectors
        ],
        "branch_curves": [
            {"out1": c.out1, "out2": c.out2, "in": c.inward}
            for c in surface.branch_curves
        ],
    }
    if surface.boundary_curves:
        doc["boundary_curves"] = [
            {"sector": bc.sector, "role": bc.role} for bc in surface.boundary_curves
        ]
    if surface.vertical_annuli:
        doc["vertical_annuli"] = [
            {"id": a.id, "degree": a.degree, "boundary_classes": list(a.boundary_classes)}
            for a in surface.vertical_annuli
        ]
    return doc


def _exact(value, kind: type, what: str):
    """value itself if its type is exactly kind (so true is no integer); else TypeError."""
    if type(value) is not kind:
        noun = {
            bool: "true or false", int: "an integer", dict: "an object", list: "an array",
            str: "a string",
        }[kind]
        raise TypeError(f"{what} must be {noun}, got {type(value).__name__}")
    return value


def _entries(doc: dict, field: str) -> list[dict]:
    """The array doc[field] (empty when absent), each entry required to be an object."""
    return [_exact(e, dict, f"{field} entry") for e in _exact(doc.get(field, []), list, field)]


def surface_from_dict(doc: dict) -> BranchedSurface:
    try:
        _exact(doc, dict, "top level")
        sectors = tuple(
            SectorRecord(
                _exact(s["id"], str, "sector id"),
                _exact(s.get("cusped_euler", 0), int, f"sector {s['id']!r} cusped_euler"),
                _exact(s.get("boundary", False), bool, f"sector {s['id']!r} boundary"),
            )
            for s in _entries(doc, "sectors")
        )
        curves = tuple(
            BranchCurve(
                *(_exact(c[key], str, f"branch curve {key}") for key in ("out1", "out2", "in"))
            )
            for c in _entries(doc, "branch_curves")
        )
        boundary = tuple(
            BoundaryCurve(
                _exact(b["sector"], str, "boundary curve sector"),
                _exact(b["role"], str, "boundary curve role"),
            )
            for b in _entries(doc, "boundary_curves")
        )
        annuli = tuple(
            VerticalAnnulus(
                id=_exact(a["id"], str, "annulus id"),
                degree=_exact(a["degree"], int, f"annulus {a['id']!r} degree"),
                boundary_classes=tuple(
                    _exact(t, str, f"annulus {a['id']!r} boundary class")
                    for t in _exact(a["boundary_classes"], list, "boundary_classes")
                ),
            )
            for a in _entries(doc, "vertical_annuli")
        )
    except KeyError as exc:
        raise ValueError(f"malformed surface document: missing field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed surface document: {exc}") from exc
    return BranchedSurface(sectors, curves, boundary, annuli)


def weights_from_dict(doc: dict) -> dict[str, int]:
    try:
        _exact(doc, dict, "top level")
        return {k: _exact(v, int, f"weight of {k!r}") for k, v in doc.items()}
    except TypeError as exc:
        raise ValueError(f"malformed weight document: {exc}") from exc


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"cannot parse {path}: {exc}") from exc


def load_surface(path: str) -> BranchedSurface:
    """Read, parse and validate a surface document; raises a one-line ValueError."""
    surface = surface_from_dict(_read_json(path))
    violations = validate_surface(surface)
    if violations:
        raise ValueError(f"invalid surface document {path}: " + "; ".join(violations))
    return surface


def load_weights(path: str) -> dict[str, int]:
    """Read and parse an id->integer weight map; raises a one-line ValueError."""
    return weights_from_dict(_read_json(path))
