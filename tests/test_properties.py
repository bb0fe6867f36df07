"""Property tests: canonical slopes, JSON round trips and commuting amputation.

derandomize=True makes every run draw the same examples and keeps no example
database; deadline=None keeps a slow machine from failing a correct example.
"""

import json
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from slopecalc import (
    BoundaryCurve,
    BranchCurve,
    BranchedSurface,
    SectorRecord,
    Slope,
    VerticalAnnulus,
    amputate,
    parse_slope,
)
from slopecalc.branched_surface import (
    BOUNDARY_CLASSES,
    ROLES,
    surface_from_dict,
    surface_to_dict,
    weights_from_dict,
)

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


class TestJsonRoundTrips:
    @PROPERTY
    @given(st.dictionaries(ids | st.just(""), integers, max_size=6))
    def test_weight_map(self, w):
        assert weights_from_dict(json.loads(json.dumps(w))) == w

    @PROPERTY
    @given(surfaces())
    def test_surface_document(self, surface):
        assert surface_from_dict(json.loads(json.dumps(surface_to_dict(surface)))) == surface


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
