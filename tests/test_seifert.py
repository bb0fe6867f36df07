import random
from fractions import Fraction
from math import gcd

import pytest

from slopecalc import (
    ConventionInfeasible,
    GcsFamily,
    InadmissibleK,
    LensSpaceDegeneration,
    SeifertTriple,
    Slope,
    analyze,
    dual_invariants,
    euler_number,
    evidence,
    gcs_family,
    is_torus_bundle,
    limit_slope,
    normalize,
    parse_triple,
)
from slopecalc.seifert import (
    CASE2_NOTE,
    EMPTY_FAMILY_NOTE,
    VERDICT_EDGE_FAILS,
    VERDICT_FINITE,
    VERDICT_TORUS_BUNDLE,
    report_to_dict,
)

from oracles import seifert_rows_oracle, successor_oracle


def triple(*fracs):
    return SeifertTriple(tuple(Slope(f.numerator, f.denominator) for f in map(Fraction, fracs)))


WORKED = triple("1/3", "1/6", "-1/2")

# the three e = 0 torus-bundle invariant families
TORUS_BUNDLES = [
    triple("1/4", "1/4", "-1/2"),
    triple("1/3", "1/6", "-1/2"),
    triple("1/3", "1/3", "-2/3"),
]


def random_normalized(rng, alpha_max=12, alphas=None):
    """Random triple satisfying the normalization inequalities."""
    def coprime_pick(a, lo, hi):
        while True:
            b = rng.randint(lo, hi)
            if gcd(abs(b), a) == 1:
                return b

    a1, a2, a3 = alphas or (rng.randint(2, alpha_max) for _ in range(3))
    b1 = coprime_pick(a1, 1, a1 - 1)
    b2 = coprime_pick(a2, 1, a2 - 1)
    b3 = coprime_pick(a3, -2 * a3 + 1, -1)
    return SeifertTriple((Slope(b1, a1), Slope(b2, a2), Slope(b3, a3)))


def random_case(rng, case):
    """A normalized triple with e != 0 ("nonzero"), a torus bundle ("bundle"),
    or e = 0 off the bundles ("edge-fails")."""
    while True:
        alphas = None
        if case == "bundle":
            alphas = list(rng.choice([(2, 3, 6), (2, 4, 4), (3, 3, 3)]))
            rng.shuffle(alphas)
        t = random_normalized(rng, alphas=alphas)
        if case == "nonzero":
            if euler_number(t) != 0:
                return t
            continue
        s1, s2 = t.invariants[:2]
        third = -(s1.as_fraction() + s2.as_fraction())
        if third.denominator < 2:
            continue
        t = SeifertTriple((s1, s2, Slope(third.numerator, third.denominator)))
        if is_torus_bundle(t) == (case == "bundle"):
            return t


class TestParsing:
    def test_parse_round_trip(self):
        assert parse_triple("(1/3, 1/6, -1/2)") == WORKED
        assert parse_triple("(1/3,1/6,-1/2)") == WORKED
        assert parse_triple(str(WORKED)) == WORKED

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_triple("(1/2, 1/2)")
        with pytest.raises(ValueError):
            parse_triple("1/2; 1/2; 1/2")

    def test_two_invariants_rejected(self):
        with pytest.raises(ValueError, match="exactly three"):
            SeifertTriple((Slope(1, 3), Slope(1, 6)))

    def test_infinite_invariant_rejected(self):
        with pytest.raises(ValueError):
            SeifertTriple((Slope(1, 0), Slope(1, 2), Slope(-1, 2)))


class TestEulerNumber:
    def test_examples(self):
        assert euler_number(WORKED) == 0
        assert euler_number(triple("1/2", "1/2", "-1/2")) == Fraction(1, 2)
        assert euler_number(triple("0", "0", "0")) == 0


class TestNormalize:
    def test_fixpoint(self):
        assert normalize(WORKED) == WORKED

    def test_shift_into_convention(self):
        # shift b1 by -a1, compensate b3 by +a3; e is preserved (= 0)
        shifted = triple("4/3", "1/6", "-3/2")
        assert euler_number(shifted) == 0
        assert normalize(shifted) == WORKED

    def test_infeasible_positive_b3(self):
        with pytest.raises(ConventionInfeasible) as info:
            normalize(triple("1/2", "1/2", "1/2"))
        assert info.value.offending == Slope(1, 2)

    def test_lens_space_degeneration(self):
        with pytest.raises(LensSpaceDegeneration):
            normalize(triple("1/2", "1/2", "-1"))

    def test_euler_preserved_on_random_shifts(self):
        rng = random.Random(30)
        for _ in range(60):
            base = random_normalized(rng)
            s1, s2, s3 = base.invariants
            m1, m2 = rng.randint(-4, 4), rng.randint(-4, 4)
            shifted = SeifertTriple(
                (
                    Slope(s1.numerator + m1 * s1.denominator, s1.denominator),
                    Slope(s2.numerator + m2 * s2.denominator, s2.denominator),
                    Slope(s3.numerator - (m1 + m2) * s3.denominator, s3.denominator),
                )
            )
            assert euler_number(shifted) == euler_number(base)
            assert normalize(shifted) == base


class TestDualInvariants:
    def test_worked_example(self):
        # brute-force successor oracle fixes (1/2, 1/5)
        assert successor_oracle(Slope(1, 3)) == Slope(1, 2)
        assert successor_oracle(Slope(1, 6)) == Slope(1, 5)
        assert dual_invariants(WORKED) == (Slope(1, 2), Slope(1, 5))

    def test_half_half(self):
        assert dual_invariants(triple("1/2", "1/2", "-1")) == (Slope(1, 1), Slope(1, 1))

    def test_two_fifths_third(self):
        assert dual_invariants(triple("2/5", "1/3", "-1/2")) == (Slope(1, 2), Slope(1, 2))

    def test_requires_normalized(self):
        with pytest.raises(ValueError):
            dual_invariants(triple("4/3", "1/6", "-3/2"))

    def test_determinant_identity(self):
        rng = random.Random(31)
        for _ in range(40):
            t = random_normalized(rng)
            (d1, d2) = dual_invariants(t)
            for d, s in ((d1, t.invariants[0]), (d2, t.invariants[1])):
                assert d.numerator * s.denominator - s.numerator * d.denominator == 1
                assert s < d


class TestGcsFamily:
    def test_worked_example(self):
        fam = gcs_family(WORKED)
        assert fam.duals == (Slope(1, 2), Slope(1, 5))
        assert (fam.r1, fam.r2) == (1, 0)
        assert fam.step == Fraction(1, 3)
        # particular solution solves 3*k1 + 2 = 6*k2 + 5
        assert fam.r1 * 3 + 2 == fam.r2 * 6 + 5

    def test_symmetric_case(self):
        fam = gcs_family(triple("1/4", "1/4", "-1/2"))
        assert (fam.r1, fam.r2) == (0, 0)
        assert fam.step == Fraction(1, 4)

    def test_symmetric_with_unequal_duals_is_empty(self):
        # a1 = a2 forces a1 | (a2' - a1'); distinct duals leave no solution
        t = triple("1/5", "2/5", "-1/2")
        d1, d2 = dual_invariants(t)
        assert d1.denominator != d2.denominator
        assert gcs_family(t) is None

    def test_empty_family_witness(self):
        # gcd(3, 3) = 3 does not divide a2' - a1' = 1 - 2
        assert gcs_family(triple("1/3", "2/3", "-1/2")) is None

    def test_inconsistent_particular_solution_rejected(self):
        fam = gcs_family(WORKED)
        with pytest.raises(ValueError, match="do not solve"):
            GcsFamily(fam.base, fam.duals, fam.r1, fam.r2 + 1, fam.step)

    def test_family_equation_random(self):
        rng = random.Random(32)
        for _ in range(60):
            t = random_normalized(rng)
            fam = gcs_family(t)
            if fam is None:
                a1, a2, _ = t.alphas
                d1, d2 = dual_invariants(t)
                assert (d2.denominator - d1.denominator) % gcd(a1, a2) != 0
                continue
            a1, a2, _ = t.alphas
            d1, d2 = fam.duals
            assert 0 <= fam.r1 < a2 // gcd(a1, a2) and fam.r2 >= 0
            for m in range(6):
                k = m * fam.step
                k1 = k * a2 + fam.r1
                k2 = k * a1 + fam.r2
                assert k1.denominator == 1 and k2.denominator == 1
                assert int(k1) * a1 + d1.denominator == int(k2) * a2 + d2.denominator


class TestSlopeSk:
    def test_worked_values(self):
        fam = gcs_family(WORKED)
        assert evidence(fam, 0).s_k == Slope(-2, 5)
        assert evidence(fam, Fraction(1, 3)).s_k == Slope(-5, 11)
        assert evidence(fam, 1).s_k == Slope(-11, 23)

    def test_unreduced_pair(self):
        fam = gcs_family(WORKED)
        # a coprime unreduced pair is the reduced s_k
        for k, pair in ((0, (-2, 5)), (1, (-11, 23))):
            row = evidence(fam, k)
            assert row.coprime
            assert (row.s_k.numerator, row.s_k.denominator) == pair

    def test_inadmissible_k(self):
        fam = gcs_family(WORKED)
        for bad in (-1, Fraction(1, 2), Fraction(1, 6), Fraction(-1, 3)):
            with pytest.raises(InadmissibleK):
                evidence(fam, bad)

    def test_presentations_agree_on_random_triples(self):
        # s_k as the k-expanded form (-k*(a2*b1 + a1*b2) + 1 - r1*b1 - b1' -
        # r2*b2 - b2') / (k*a1*a2 + r1*a1 + a1'), over both denominators
        # k1*a1 + a1' = k2*a2 + a2', across random normalized triples and k <= 20
        rng = random.Random(33)
        seen = 0
        while seen < 50:
            t = random_normalized(rng)
            fam = gcs_family(t)
            if fam is None:
                continue
            seen += 1
            (b1, b2, _), (a1, a2, _) = t.betas, t.alphas
            (bp1, ap1), (bp2, ap2) = ((d.numerator, d.denominator) for d in fam.duals)
            r1, r2 = fam.r1, fam.r2
            k = Fraction(0)
            while k <= 20:
                row = evidence(fam, k)
                den = row.k1 * a1 + ap1
                assert den == row.k2 * a2 + ap2 == k * a1 * a2 + r1 * a1 + ap1 > 0
                num = -k * (a2 * b1 + a1 * b2) + 1 - r1 * b1 - bp1 - r2 * b2 - bp2
                assert row.s_k.as_fraction() == num / den
                k += fam.step * rng.randint(1, 7)


class TestLimitSlope:
    def test_examples(self):
        assert limit_slope(WORKED) == Slope(-1, 2)
        assert limit_slope(triple("1/2", "1/2", "-1/2")) == Slope(-1, 1)
        assert limit_slope(triple("1/4", "1/4", "-1/2")) == Slope(-1, 2)

    def test_requires_normalized(self):
        with pytest.raises(ValueError, match="normalized"):
            limit_slope(triple("4/3", "1/6", "-3/2"))

    def test_euler_zero_iff_limit_is_third_invariant(self):
        rng = random.Random(34)
        for _ in range(60):
            t = random_normalized(rng)
            assert (euler_number(t) == 0) == (limit_slope(t) == t.invariants[2])


class TestGcsDeterminant:
    def test_worked_constant_one(self):
        fam = gcs_family(WORKED)
        for k in (0, Fraction(1, 3), 1, 5):
            assert evidence(fam, k).determinant == 1

    def test_second_torus_bundle_constant(self):
        fam = gcs_family(triple("1/4", "1/4", "-1/2"))
        dets = {evidence(fam, m * fam.step).determinant for m in range(30)}
        assert dets == {1}

    def test_constant_when_euler_zero(self):
        # build e = 0 triples by forcing b3/a3 = -(b1/a1 + b2/a2)
        rng = random.Random(38)
        seen = 0
        while seen < 25:
            t0 = random_normalized(rng)
            s1, s2 = t0.invariants[:2]
            third = -(s1.as_fraction() + s2.as_fraction())
            if third.denominator < 2:
                continue
            t = SeifertTriple((s1, s2, Slope(third.numerator, third.denominator)))
            fam = gcs_family(t)
            if fam is None:
                continue
            seen += 1
            steps = int(20 / fam.step) + 1
            dets = {evidence(fam, m * fam.step).determinant for m in range(steps)}
            assert len(dets) == 1, t

    def test_k_coefficient_two_point_evaluation(self):
        # slope of det in k, read off two points, equals
        # a3*(-a2*b1 - a1*b2) - b3*a1*a2 = -a1*a2*a3*e
        rng = random.Random(39)
        seen = 0
        while seen < 40:
            t = random_normalized(rng)
            fam = gcs_family(t)
            if fam is None:
                continue
            seen += 1
            a1, a2, a3 = t.alphas
            b1, b2, b3 = t.betas
            coefficient = a3 * (-a2 * b1 - a1 * b2) - b3 * a1 * a2
            assert coefficient == -a1 * a2 * a3 * euler_number(t)
            d0 = evidence(fam, 0).determinant
            d1 = evidence(fam, 7 * fam.step).determinant
            assert Fraction(d1 - d0, 1) == coefficient * 7 * fam.step

    def test_linear_growth_when_euler_nonzero(self):
        rng = random.Random(35)
        seen = 0
        while seen < 30:
            t = random_normalized(rng)
            e = euler_number(t)
            fam = gcs_family(t)
            if fam is None or e == 0:
                continue
            seen += 1
            a1, a2, a3 = t.alphas
            d0 = evidence(fam, 0).determinant
            d1 = evidence(fam, fam.step).determinant
            d2 = evidence(fam, 2 * fam.step).determinant
            increment = -a1 * a2 * a3 * e * fam.step
            assert increment.denominator == 1
            assert d1 - d0 == int(increment)
            assert d2 - d1 == int(increment)


class TestRelPrimeAndEdge:
    def test_worked_coprime(self):
        fam = gcs_family(WORKED)
        assert evidence(fam, 1).coprime  # gcd(11, 23) = 1
        assert evidence(fam, 0).coprime  # gcd(2, 5) = 1

    def test_unit_determinant_forces_coprime(self):
        rng = random.Random(36)
        seen = 0
        while seen < 200:
            t = random_normalized(rng)
            fam = gcs_family(t)
            if fam is None:
                continue
            k = rng.randint(0, 8) * fam.step
            seen += 1
            row = evidence(fam, k)
            if abs(row.determinant) == 1:
                assert row.coprime

    def test_worked_edges(self):
        fam = gcs_family(WORKED)
        assert evidence(fam, 1).edge  # -11/23 > -1/2, det 1
        assert evidence(fam, Fraction(1, 3)).edge  # -5/11 vs -1/2

    def test_edge_fails_for_large_k_when_euler_nonzero(self):
        fam = gcs_family(triple("1/2", "1/2", "-1/2"))
        assert not evidence(fam, 40).edge
        fam = gcs_family(triple("2/5", "3/7", "-1/2"))
        assert any(not evidence(fam, m * fam.step).edge for m in range(2, 40))


class TestRowOracle:
    def test_rows_match_displayed_formulas(self):
        # shifted copies exercise normalization; k_max runs over [-1, 20]
        rng = random.Random(44)
        verdicts = set()
        for i in range(200):
            t = random_case(rng, ("nonzero", "bundle", "edge-fails")[i % 3])
            s1, s2, s3 = t.invariants
            m1, m2 = rng.randint(-2, 2), rng.randint(-2, 2)
            shifted = SeifertTriple(
                (
                    Slope(s1.numerator + m1 * s1.denominator, s1.denominator),
                    Slope(s2.numerator + m2 * s2.denominator, s2.denominator),
                    Slope(s3.numerator - (m1 + m2) * s3.denominator, s3.denominator),
                )
            )
            k_max = Fraction(rng.randint(-6, 120), rng.randint(1, 6))
            k_max = min(max(k_max, Fraction(-1)), Fraction(20))
            report = analyze(shifted, k_max)
            verdicts.add(report.verdict)
            got = [
                (r.k, r.k1, r.k2, r.s_k.as_fraction(), r.determinant, r.edge, r.coprime)
                for r in report.rows
            ]
            assert got == seifert_rows_oracle(shifted, k_max), (shifted, k_max)
        assert verdicts == {VERDICT_FINITE, VERDICT_TORUS_BUNDLE, VERDICT_EDGE_FAILS}


class TestTorusBundle:
    @pytest.mark.parametrize("t", TORUS_BUNDLES)
    def test_remark_families(self, t):
        assert is_torus_bundle(t)
        assert euler_number(t) == 0

    def test_237_is_not(self):
        assert not is_torus_bundle(triple("1/2", "1/3", "-6/7"))

    def test_identity_equivalence_small_range(self):
        for a1 in range(2, 9):
            for a2 in range(2, 9):
                for a3 in range(2, 9):
                    t = SeifertTriple((Slope(1, a1), Slope(1, a2), Slope(-1, a3)))
                    assert is_torus_bundle(t) == (
                        (a1 * a2 - a1 - a2) * a3 == a1 * a2
                    )

    def test_requires_genuine_fibers(self):
        with pytest.raises(LensSpaceDegeneration):
            is_torus_bundle(triple("1/2", "1/2", "-1"))


class TestAnalyze:
    def test_worked_pipeline(self):
        report = analyze(WORKED, 5)
        assert report.verdict == VERDICT_TORUS_BUNDLE
        assert report.torus_bundle
        assert report.euler == 0
        assert report.limit == Slope(-1, 2)
        assert report.note is None
        assert all(row.edge and row.coprime and row.determinant == 1 for row in report.rows)
        assert len(report.rows) == 16  # k = 0, 1/3, ..., 5
        values = [row.s_k.as_fraction() for row in report.rows]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > Fraction(-1, 2) for v in values)

    def test_finite_verdicts(self):
        assert analyze(triple("1/2", "1/2", "-1/2"), 5).verdict == VERDICT_FINITE
        assert analyze(triple("1/3", "1/3", "-1/2"), 5).verdict == VERDICT_FINITE

    def test_euler_positive_gets_case2_note(self):
        # e > 0 puts the limit slope below b3/a3, so the candidate window
        # wraps through infinity: exactly the excluded Case-2 situation
        report = analyze(triple("1/2", "1/2", "-1/2"), 3)
        assert report.euler > 0
        assert report.verdict == VERDICT_FINITE
        assert report.note == CASE2_NOTE

    def test_euler_negative_stays_unnoted(self):
        report = analyze(triple("1/3", "1/6", "-2/3"), 3)
        assert report.euler < 0
        assert report.verdict == VERDICT_FINITE
        assert report.note is None

    def test_empty_family_reported_finite(self):
        report = analyze(triple("1/3", "2/3", "-1/2"), 5)
        assert report.family is None
        assert report.rows == ()
        assert report.verdict == VERDICT_FINITE
        assert report.note == EMPTY_FAMILY_NOTE

    def test_euler_zero_non_bundle_edge_fails(self):
        # e = 0 but sum 1/a_i = 2/3: determinant is the constant 5, so edge
        # and coprimality never hold together (a common factor of 5 can make
        # the reduced pair an edge, but then the pair is not coprime)
        t = triple("1/3", "1/4", "-7/12")
        assert euler_number(t) == 0
        report = analyze(t, 8)
        assert not report.torus_bundle
        assert report.verdict == VERDICT_EDGE_FAILS
        assert {row.determinant for row in report.rows} == {5}
        assert all(not (row.edge and row.coprime) for row in report.rows)
        assert any(row.edge for row in report.rows)  # k = 2 mod 5 shares the factor 5

    def test_normalizes_input(self):
        report = analyze(triple("4/3", "1/6", "-3/2"), 2)
        assert report.normalized == WORKED
        assert report.verdict == VERDICT_TORUS_BUNDLE

    def test_normalization_errors_propagate(self):
        with pytest.raises(ConventionInfeasible):
            analyze(triple("1/2", "1/2", "1/2"), 5)
        with pytest.raises(LensSpaceDegeneration):
            analyze(triple("1/2", "1/2", "-1"), 5)

    def test_checks_independent_of_particular_solution(self):
        # replacing (r1, r2) by the next solution shifts k by one step:
        # the evidence rows coincide under that reindexing
        for t in TORUS_BUNDLES + [triple("2/5", "3/7", "-1/2")]:
            fam = gcs_family(t)
            a1, a2, _ = t.alphas
            g = gcd(a1, a2)
            shifted = GcsFamily(
                base=fam.base,
                duals=fam.duals,
                r1=fam.r1 + a2 // g,
                r2=fam.r2 + a1 // g,
                step=fam.step,
            )
            for m in range(8):
                k = m * fam.step
                # equal (k1, k2) give equal unreduced s_k pairs
                row, later = evidence(shifted, k), evidence(fam, k + fam.step)
                fields = ("k1", "k2", "s_k", "determinant", "edge", "coprime")
                assert [getattr(row, f) for f in fields] == [getattr(later, f) for f in fields]

    def test_report_dict_shape(self):
        doc = report_to_dict(analyze(WORKED, 1))
        assert doc["verdict"] == VERDICT_TORUS_BUNDLE
        assert doc["rows"][0] == {
            "k": "0",
            "k1": 1,
            "k2": 0,
            "s_k": "-2/5",
            "determinant": 1,
            "edge": True,
            "coprime": True,
        }
        assert doc["duals"] == ["1/2", "1/5"]
        assert doc["step"] == "1/3"
