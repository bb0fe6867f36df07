"""Slope analysis for Seifert fibered spaces over S^2 with three singular fibers.

The invariants are an ordered triple (b1/a1, b2/a2, b3/a3) of slopes with
positive denominators.  After normalization (0 < b1/a1, b2/a2 < 1 and
-2 < b3/a3 < 0) the analysis computes, in exact arithmetic:

  - the Euler number e = sum of the invariants,
  - the dual invariants b_i'/a_i' (the Farey successor of each meridian),
  - the one-parameter solution family of k1*a1 + a1' = k2*a2 + a2', stepping
    by 1/gcd(a1, a2) from a particular solution with r1 minimal nonnegative,
  - one evidence row per admissible k, all computed by the single row
    function `evidence` in integer arithmetic: (k1, k2), the boundary slope
    s_k as the unreduced integer pair, its determinant against (a3, b3), the
    Farey edge check to b3/a3 and the coprimality of the pair,
  - the limit slope s = -b1/a1 - b2/a2 the s_k descend to,
  - the torus-bundle test sum 1/a_i = 1, in integers
    a1*a2 + a1*a3 + a2*a3 = a1*a2*a3.

For e = 0 the determinant is a constant D and s_k - s = D / (a3 * den(s_k));
for e != 0 it moves by -a1*a2*a3*e per unit of k, so edges and coprimality
eventually fail and only finitely many candidate slopes survive.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, gcd

from .farey import Slope, Value, is_edge, parse_slope, successor

VERDICT_FINITE = "GCS finite"
VERDICT_TORUS_BUNDLE = "torus-bundle candidate"
VERDICT_EDGE_FAILS = "edge condition fails for large k"
# analyze rejects a k_max that needs more evidence rows than this
MAX_ROWS = 10_000

CASE2_NOTE = "Case-2 assumption violated (zero-twisting torus exists)"
EMPTY_FAMILY_NOTE = (
    "no admissible (k1, k2) pairs: gcd(a1, a2) does not divide a2' - a1'"
)


class NormalizationError(ValueError):
    """The triple cannot be brought to the normalization convention."""


class LensSpaceDegeneration(NormalizationError):
    """Some multiplicity a_i is 1: a lens-space degeneration, not analyzed here."""


class ConventionInfeasible(NormalizationError):
    """Shifting leaves b3/a3 outside (-2, 0); carries the offending slope."""

    def __init__(self, offending: Slope):
        self.offending = offending
        super().__init__(f"normalized b3/a3 = {offending} falls outside (-2, 0)")


class InadmissibleK(ValueError):
    """k is negative or not a multiple of the family step."""


class SeifertTriple(Value):
    """Ordered Seifert invariants (b1/a1, b2/a2, b3/a3), all finite."""

    __slots__ = ("invariants",)

    def __init__(self, invariants: tuple[Slope, Slope, Slope]) -> None:
        super().__init__(invariants := tuple(invariants))
        if len(invariants) != 3:
            raise ValueError("a Seifert triple has exactly three invariants")
        for slope in invariants:
            if slope.is_infinite:
                raise ValueError("Seifert invariants must be finite slopes")

    @property
    def alphas(self) -> tuple[int, int, int]:
        return tuple(s.denominator for s in self.invariants)

    @property
    def betas(self) -> tuple[int, int, int]:
        return tuple(s.numerator for s in self.invariants)

    def is_normalized(self) -> bool:
        """0 < b1/a1 < 1, 0 < b2/a2 < 1 and -2 < b3/a3 < 0."""
        one = Slope(1)
        zero = Slope(0)
        minus_two = Slope(-2)
        s1, s2, s3 = self.invariants
        return zero < s1 < one and zero < s2 < one and minus_two < s3 < zero

    def __str__(self) -> str:
        return "(" + ", ".join(str(s) for s in self.invariants) + ")"


def parse_triple(text: str) -> SeifertTriple:
    """Parse "(b1/a1, b2/a2, b3/a3)"; spaces optional."""
    stripped = text.strip()
    if stripped.startswith("(") and stripped.endswith(")"):
        stripped = stripped[1:-1]
    parts = stripped.split(",")
    if len(parts) != 3:
        raise ValueError(f"cannot parse Seifert triple {text!r}")
    return SeifertTriple(tuple(parse_slope(p) for p in parts))


def euler_number(t: SeifertTriple) -> Fraction:
    """The exact rational e = b1/a1 + b2/a2 + b3/a3."""
    return sum((s.as_fraction() for s in t.invariants), Fraction(0))


def normalize(t: SeifertTriple) -> SeifertTriple:
    """Shift b1, b2 into (0, a_i), compensating through b3; e is preserved.

    Requires three genuine singular fibers (all a_i >= 2); errors if the
    compensated b3/a3 escapes (-2, 0).
    """
    if any(a < 2 for a in t.alphas):
        raise LensSpaceDegeneration(
            f"lens-space degeneration: multiplicities {t.alphas} include 1"
        )
    s1, s2, s3 = t.invariants
    shift = s1.numerator // s1.denominator + s2.numerator // s2.denominator
    r1 = Slope(s1.numerator % s1.denominator, s1.denominator)
    r2 = Slope(s2.numerator % s2.denominator, s2.denominator)
    r3 = Slope(s3.numerator + shift * s3.denominator, s3.denominator)
    result = SeifertTriple((r1, r2, r3))
    if not result.is_normalized():
        raise ConventionInfeasible(r3)
    return result


def dual_invariants(t: SeifertTriple) -> tuple[Slope, Slope]:
    """The pair (successor(b1/a1), successor(b2/a2)) for a normalized triple."""
    if not t.is_normalized():
        raise ValueError(f"dual invariants require a normalized triple, got {t}")
    return successor(t.invariants[0]), successor(t.invariants[1])


class GcsFamily(Value):
    """The solution family of k1*a1 + a1' = k2*a2 + a2'.

    k runs over nonnegative multiples of step = 1/gcd(a1, a2), with
    k1 = k*a2 + r1 and k2 = k*a1 + r2 from the particular solution (r1, r2),
    r1 minimal nonnegative.  An (r1, r2) off the equation raises ValueError.
    """

    __slots__ = ("base", "duals", "r1", "r2", "step")

    def __init__(
        self, base: SeifertTriple, duals: tuple[Slope, Slope], r1: int, r2: int, step: Fraction
    ) -> None:
        a1, a2, _ = base.alphas
        if r1 * a1 + duals[0].denominator != r2 * a2 + duals[1].denominator:
            raise ValueError(f"r1 = {r1}, r2 = {r2} do not solve k1*a1 + a1' = k2*a2 + a2'")
        super().__init__(base, duals, r1, r2, step)


def gcs_family(t: SeifertTriple) -> GcsFamily | None:
    """The family for a normalized triple, or None when no solution exists.

    None means gcd(a1, a2) does not divide a2' - a1', so there are no
    (k1, k2) pairs at all and the infinite-family mechanism cannot arise.
    """
    d1, d2 = dual_invariants(t)
    a1, a2, _ = t.alphas
    ap1, ap2 = d1.denominator, d2.denominator
    g = gcd(a1, a2)
    diff = ap2 - ap1
    if diff % g:
        return None
    # a1 * r1 = diff (mod a2); minimal nonnegative r1 via inverse mod a2/g
    m = a2 // g
    r1 = (pow((a1 // g) % m, -1, m) * (diff // g)) % m if m > 1 else 0
    # a2 divides the value, and r2 >= 0 since a1' >= 1 and a2' <= a2
    r2 = (r1 * a1 + ap1 - ap2) // a2
    return GcsFamily(base=t, duals=(d1, d2), r1=r1, r2=r2, step=Fraction(1, g))


class KEvidence(Value):
    """One audited row of the analysis: the checks at a single admissible k."""

    __slots__ = ("k", "k1", "k2", "s_k", "determinant", "edge", "coprime")

    def __init__(
        self, k: Fraction, k1: int, k2: int, s_k: Slope, determinant: int, edge: bool,
        coprime: bool,
    ) -> None:
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "k1", k1)
        object.__setattr__(self, "k2", k2)
        object.__setattr__(self, "s_k", s_k)
        object.__setattr__(self, "determinant", determinant)
        object.__setattr__(self, "edge", edge)
        object.__setattr__(self, "coprime", coprime)


def evidence(family: GcsFamily, k: Fraction | int) -> KEvidence:
    """The evidence row at an admissible k; raises InadmissibleK otherwise.

    Integer arithmetic in m = k*g, g = gcd(a1, a2): k1 = m*(a2/g) + r1,
    k2 = m*(a1/g) + r2, and s_k is the unreduced pair of the direct form
    (1 - (k1*b1 + b1') - (k2*b2 + b2')) / (k1*a1 + a1').  The determinant
    a3*num - b3*den (constant in k exactly when e = 0, otherwise moving by
    -a1*a2*a3*e per unit of k) and the coprimality are taken on that pair.
    """
    k = Fraction(k)
    g = family.step.denominator
    if k.numerator < 0 or g % k.denominator:
        raise InadmissibleK(f"k = {k} is not a nonnegative multiple of {family.step}")
    m = k.numerator * (g // k.denominator)
    b1, b2, b3 = family.base.betas
    a1, a2, a3 = family.base.alphas
    (bp1, ap1), (bp2, _) = ((s.numerator, s.denominator) for s in family.duals)
    r1, r2 = family.r1, family.r2
    k1 = m * (a2 // g) + r1
    k2 = m * (a1 // g) + r2
    num = 1 - (k1 * b1 + bp1) - (k2 * b2 + bp2)
    den = k1 * a1 + ap1
    s_k = Slope(num, den)
    s3 = family.base.invariants[2]
    return KEvidence(
        k=k,
        k1=k1,
        k2=k2,
        s_k=s_k,
        determinant=a3 * num - b3 * den,
        edge=s3 < s_k and is_edge(s3, s_k),
        coprime=gcd(abs(num), den) == 1,
    )


def limit_slope(t: SeifertTriple) -> Slope:
    """The slope s = -b1/a1 - b2/a2 the s_k tend to; equals b3/a3 when e = 0."""
    if not t.is_normalized():
        raise ValueError(f"limit slope requires a normalized triple, got {t}")
    (b1, b2, _), (a1, a2, _) = t.betas, t.alphas
    return Slope(-(b1 * a2 + b2 * a1), a1 * a2)


def is_torus_bundle(t: SeifertTriple) -> bool:
    """Whether sum 1/a_i = 1, the elliptic-torus-bundle condition."""
    a1, a2, a3 = t.alphas
    if min(a1, a2, a3) < 2:
        raise LensSpaceDegeneration(
            f"torus-bundle test requires multiplicities >= 2, got {t.alphas}"
        )
    return a1 * a2 + a1 * a3 + a2 * a3 == a1 * a2 * a3


class AnalysisReport(Value):
    __slots__ = (
        "triple", "normalized", "euler", "torus_bundle", "limit", "family", "rows", "verdict",
        "note",
    )

    def __init__(
        self, triple: SeifertTriple, normalized: SeifertTriple, euler: Fraction,
        torus_bundle: bool, limit: Slope, family: GcsFamily | None, rows: tuple[KEvidence, ...],
        verdict: str, note: str | None = None,
    ) -> None:
        super().__init__(
            triple, normalized, euler, torus_bundle, limit, family, rows, verdict, note
        )


def analyze(t: SeifertTriple, k_max: Fraction | int) -> AnalysisReport:
    """Full slope analysis of a normalizable triple up to k = k_max.

    For every admissible k <= k_max the report carries s_k, the determinant,
    the edge check and the coprimality check; the verdict separates e != 0
    (finite), e = 0 with sum 1/a_i = 1 (torus-bundle candidate), and e = 0
    otherwise (edge condition must eventually fail).  A k_max that needs more
    than MAX_ROWS rows raises ValueError before any row is built.
    """
    k_max = Fraction(k_max)
    normalized = normalize(t)
    e = euler_number(normalized)
    bundle = is_torus_bundle(normalized)
    limit = limit_slope(normalized)
    s3 = normalized.invariants[2]
    family = gcs_family(normalized)
    rows = ()
    if family is not None:
        g = family.step.denominator
        count = floor(k_max * g) + 1
        if count > MAX_ROWS:
            raise ValueError(f"k_max {k_max} needs {count} rows, more than {MAX_ROWS}")
        rows = tuple(evidence(family, Fraction(m, g)) for m in range(count))

    note = None
    if family is None:
        verdict = VERDICT_FINITE
        note = EMPTY_FAMILY_NOTE
    elif e != 0:
        verdict = VERDICT_FINITE
        # the slopes running up from b3/a3 to the limit pass through infinity
        if limit < s3:
            note = CASE2_NOTE
    elif bundle:
        verdict = VERDICT_TORUS_BUNDLE
    else:
        verdict = VERDICT_EDGE_FAILS

    return AnalysisReport(
        triple=t,
        normalized=normalized,
        euler=e,
        torus_bundle=bundle,
        limit=limit,
        family=family,
        rows=rows,
        verdict=verdict,
        note=note,
    )


def report_to_dict(report: AnalysisReport) -> dict:
    """JSON-compatible rendering of an analysis report."""
    doc: dict = {
        "triple": str(report.triple),
        "normalized": str(report.normalized),
        "euler": str(report.euler),
        "torus_bundle": report.torus_bundle,
        "limit": str(report.limit),
        "verdict": report.verdict,
        "rows": [
            {
                "k": str(row.k),
                "k1": row.k1,
                "k2": row.k2,
                "s_k": str(row.s_k),
                "determinant": row.determinant,
                "edge": row.edge,
                "coprime": row.coprime,
            }
            for row in report.rows
        ],
    }
    if report.family is not None:
        doc["duals"] = [str(d) for d in report.family.duals]
        doc["r1"] = report.family.r1
        doc["r2"] = report.family.r2
        doc["step"] = str(report.family.step)
    if report.note is not None:
        doc["note"] = report.note
    return doc
