"""Property tests: canonical slopes, shortest Farey paths, JSON round trips,
commuting amputation and Seifert normalization.

derandomize=True makes every run draw the same examples and keeps no example
database; deadline=None keeps a slow machine from failing a correct example.
"""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slopecalc import (
    INFINITY,
    AnalysisReport,
    BoundaryCurve,
    BoundaryData,
    BranchCurve,
    BranchedSurface,
    GcsFamily,
    KEvidence,
    MulticurveCoordinates,
    SectorRecord,
    SeifertTriple,
    Slope,
    VerticalAnnulus,
    amputate,
    analyze,
    enumerate_multicurves,
    euler_number,
    normalize,
    parse_slope,
    parse_triple,
    shortest_increasing_path,
)
from slopecalc.branched_surface import (
    BOUNDARY_CLASSES,
    ROLES,
    surface_from_dict,
    surface_to_dict,
    weights_from_dict,
)
from slopecalc.cli import run
from slopecalc.multicurve import parse_boundary

from oracles import bfs_path_length, parse_coordinates

PROPERTY = settings(derandomize=True, deadline=None)

integers = st.integers(-9, 9) | st.integers(-(10**12), 10**12)
nonzero = integers.filter(bool)
# a fixed alphabet (quote, backslash, NUL, non-ASCII) spares building Unicode tables
ids = st.text(alphabet='Ab0 "\\\x00\u00e9\U0001d53d', min_size=1, max_size=4)


@st.composite
def pairs(draw):
    """(p, q) of either sign, never (0, 0)."""
    q = draw(integers)
    return draw(nonzero if q == 0 else integers), q


@st.composite
def continued_fractions(draw):
    """A slope with a 1- to 12-digit denominator whose continued fraction has
    partial quotients 1 to 8, so paths to and from it stay short."""
    bound = 10 ** (draw(st.integers(1, 12)) - 1)
    h_prev, h, k_prev, k = 1, draw(st.integers(-2, 1)), 0, 1
    while k < bound:  # k grows at most 9-fold, so it ends below 10 * bound
        a = draw(st.integers(1, 8))
        h_prev, h, k_prev, k = h, a * h + h_prev, k, a * k + k_prev
    return Slope(h, k)


@st.composite
def surfaces(draw, min_sectors=1):
    names = draw(st.lists(ids, min_size=min_sectors, max_size=6, unique=True))
    sector = st.sampled_from(names)
    return BranchedSurface(
        sectors=tuple(
            SectorRecord(sid, draw(st.integers(-3, 3)), draw(st.booleans())) for sid in names
        ),
        branch_curves=tuple(
            draw(st.lists(st.builds(BranchCurve, sector, sector, sector), max_size=6))
        ),
        boundary_curves=tuple(
            draw(st.lists(st.builds(BoundaryCurve, sector, st.sampled_from(ROLES)), max_size=3))
        ),
        vertical_annuli=tuple(
            draw(
                st.lists(
                    st.builds(
                        VerticalAnnulus,
                        ids,
                        st.integers(0, 3),
                        st.tuples(*[st.sampled_from(BOUNDARY_CLASSES)] * 2),
                    ),
                    max_size=2,
                )
            )
        ),
    )


@st.composite
def seifert_triples(draw):
    """A normalized triple with b1 and b2 shifted by whole multiples of a1 and
    a2 and b3 compensating, so that normalize has a shift to undo."""
    a1, a2, a3 = (draw(st.integers(2, 12)) for _ in range(3))
    s1 = Slope(draw(st.integers(1, a1 - 1)), a1)
    s2 = Slope(draw(st.integers(1, a2 - 1)), a2)
    # -2 < b3/a3 < 0 and b3/a3 != -1, so the reduced a3 stays at least 2
    s3 = Slope(draw(st.integers(1 - 2 * a3, -1).filter(lambda b: b != -a3)), a3)
    j1, j2 = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    return SeifertTriple(
        (
            Slope(s1.numerator + j1 * s1.denominator, s1.denominator),
            Slope(s2.numerator + j2 * s2.denominator, s2.denominator),
            Slope(s3.numerator - (j1 + j2) * s3.denominator, s3.denominator),
        )
    )


def json_report(argv: list[str]) -> dict:
    """The document `slopecalc ... --format json` prints."""
    with redirect_stdout(io.StringIO()) as out:
        assert run([*argv, "--format", "json"]) == 0
    return json.loads(out.getvalue())


class TestSlopeCanonicalForm:
    @PROPERTY
    @given(pairs(), nonzero)
    def test_common_factor_cancels(self, pq, c):
        p, q = pq
        assert Slope(c * p, c * q) == Slope(p, q)

    @PROPERTY
    @given(pairs())
    def test_reduced_with_sign_on_numerator(self, pq):
        p, q = pq
        s = Slope(p, q)
        if q == 0:
            assert (s.numerator, s.denominator) == (1, 0)
        else:
            assert s.denominator > 0 and gcd(s.numerator, s.denominator) == 1
            assert s.numerator * q == p * s.denominator

    @PROPERTY
    @given(pairs())
    def test_text_round_trip(self, pq):
        s = Slope(*pq)
        assert parse_slope(str(s)) == s


class TestShortestPath:
    small_slopes = st.builds(Slope, st.integers(-12, 12), st.integers(1, 6))

    @PROPERTY
    @given(small_slopes, small_slopes | st.just(INFINITY))
    def test_length_matches_bfs_oracle(self, a, b):
        # a bound of 8x the largest endpoint denominator lets the search find
        # any shorter path through larger denominators
        assume(a != b)
        a, b = min(a, b), max(a, b)
        assert len(shortest_increasing_path(a, b)) == bfs_path_length(a, b, bound=48)

    @PROPERTY
    @given(continued_fractions(), continued_fractions() | st.just(INFINITY))
    def test_each_step_is_the_greatest_edge_below_the_target(self, a, b):
        # plain cross-multiplication on the (p, q) pairs, infinity being (1, 0)
        assume(a != b)
        a, b = min(a, b), max(a, b)
        path = [(v.numerator, v.denominator) for v in shortest_increasing_path(a, b)]
        u, v = b.numerator, b.denominator
        assert path[0] == (a.numerator, a.denominator) and path[-1] == (u, v)
        for (xp, xq), (yp, yq) in zip(path, path[1:]):
            assert abs(xp * yq - yp * xq) == 1  # an edge
            assert yq == 0 or xp * yq < yp * xq  # increasing
            if (yp, yq) == (u, v):
                continue
            assert yq > 0 and (v == 0 or yp * v < u * yq)  # below the target
            # the neighbors of x above it fall as successor(x) + t*x, t >= 0,
            # so the next larger one is y - x; with denominator <= 0 there is none
            wp, wq = yp - xp, yq - xq
            assert wq <= 0 or (v > 0 and wp * v >= u * wq)


class TestJsonRoundTrips:
    @PROPERTY
    @given(st.dictionaries(ids | st.just(""), integers, max_size=6))
    def test_weight_map(self, w):
        assert weights_from_dict(json.loads(json.dumps(w))) == w

    @PROPERTY
    @given(surfaces())
    def test_surface_document(self, surface):
        assert surface_from_dict(json.loads(json.dumps(surface_to_dict(surface)))) == surface

    @PROPERTY
    @given(seifert_triples(), st.integers(-1, 24))
    def test_seifert_report(self, triple, quarters):
        k_max = Fraction(quarters, 4)
        doc = json_report(["seifert", f"--triple={triple}", f"--kmax={k_max}"])
        normalized = parse_triple(doc["normalized"])
        family = None
        if "duals" in doc:
            duals = tuple(parse_slope(d) for d in doc["duals"])
            family = GcsFamily(normalized, duals, doc["r1"], doc["r2"], Fraction(doc["step"]))
        rows = tuple(
            KEvidence(
                Fraction(r["k"]), r["k1"], r["k2"], parse_slope(r["s_k"]),
                r["determinant"], r["edge"], r["coprime"],
            )
            for r in doc["rows"]
        )
        reparsed = AnalysisReport(
            parse_triple(doc["triple"]), normalized, Fraction(doc["euler"]),
            doc["torus_bundle"], parse_slope(doc["limit"]), family, rows,
            doc["verdict"], doc.get("note"),
        )
        assert reparsed == analyze(triple, k_max)

    @PROPERTY
    @given(st.tuples(*[st.integers(0, 8)] * 3), st.booleans())
    def test_multicurve_report(self, ks, allow):
        bd = BoundaryData(*ks)
        flags = ["--allow-boundary-parallel"] if allow else []
        doc = json_report(["multicurve", f"--boundary={bd}", *flags])
        assert parse_boundary(doc["boundary"]) == bd
        assert doc["allow_boundary_parallel"] is allow
        coordinates = [MulticurveCoordinates(*parse_coordinates(c)) for c in doc["coordinates"]]
        assert coordinates == enumerate_multicurves(bd, allow)
        assert doc["count"] == len(coordinates)


class TestSeifertNormalization:
    @PROPERTY
    @given(seifert_triples())
    def test_normalize_preserves_euler_number(self, triple):
        normalized = normalize(triple)
        assert normalized.is_normalized()
        assert euler_number(normalized) == euler_number(triple)


class TestAmputation:
    @PROPERTY
    @given(st.data())
    def test_disjoint_amputations_commute(self, data):
        surface = data.draw(surfaces(min_sectors=2))
        names = surface.sector_ids()
        chosen = data.draw(st.lists(st.sampled_from(names), min_size=2, unique=True))
        cut = data.draw(st.integers(1, len(chosen) - 1))
        first, second = set(chosen[:cut]), set(chosen[cut:])
        one_way = amputate(amputate(surface, first), second)
        assert one_way == amputate(amputate(surface, second), first)
        assert one_way == amputate(surface, first | second)
