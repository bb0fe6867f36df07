import random
from fractions import Fraction

import pytest

from slopecalc import (
    INFINITY,
    FareyError,
    Slope,
    greatest_neighbor_below,
    intersection_number,
    is_edge,
    mediant,
    parse_slope,
    shortest_increasing_path,
    successor,
)

from oracles import (
    bfs_path_length,
    neighbor_below_oracle,
    slope_corpus,
    successor_oracle,
)


class TestSlope:
    def test_canonical_reduction(self):
        assert Slope(2, 4) == Slope(1, 2)
        assert Slope(-2, -4) == Slope(1, 2)
        assert Slope(3, -6) == Slope(-1, 2)
        assert Slope(0, 7) == Slope(0, 1)

    def test_infinity_normalizes_to_one_over_zero(self):
        assert Slope(5, 0) == INFINITY
        assert Slope(-3, 0) == INFINITY
        with pytest.raises(FareyError):
            Slope(0, 0)

    def test_order_total_with_infinity_maximal(self):
        assert Slope(1, 2) < Slope(2, 3) < Slope(1, 1) < INFINITY
        assert Slope(-5, 1) < Slope(-1, 2) < Slope(0, 1)
        assert not INFINITY < INFINITY
        assert Slope(7, 3) < INFINITY

    def test_order_against_a_non_slope_is_a_type_error(self):
        with pytest.raises(TypeError):
            Slope(1, 2) < 3

    def test_fraction_round_trip(self):
        assert Slope(-3, 7).as_fraction() == Fraction(-3, 7)
        f = Fraction(6, 4)
        assert Slope(f.numerator, f.denominator) == Slope(3, 2)
        with pytest.raises(FareyError):
            INFINITY.as_fraction()

    @pytest.mark.parametrize(
        "text,expected",
        [("1/2", Slope(1, 2)), ("-3/6", Slope(-1, 2)), ("4", Slope(4, 1)), ("inf", INFINITY)],
    )
    def test_parse(self, text, expected):
        assert parse_slope(text) == expected
        assert parse_slope(str(expected)) == expected

    @pytest.mark.parametrize("text", ["", "a/b", "1/2/3", "1.5", "nan"])
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(FareyError):
            parse_slope(text)

    def test_str(self):
        assert str(Slope(3, 1)) == "3/1"
        assert str(INFINITY) == "inf"


class TestIntersectionNumber:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (Slope(1, 2), Slope(1, 3), 1),
            (Slope(1, 3), Slope(2, 3), 3),
            (Slope(5, 7), Slope(5, 7), 0),
        ],
    )
    def test_examples(self, a, b, expected):
        assert intersection_number(a, b) == expected

    def test_symmetry_and_zero_iff_equal(self):
        corpus = slope_corpus(6, 6) + [INFINITY]
        for a in corpus:
            for b in corpus:
                assert intersection_number(a, b) == intersection_number(b, a)
                assert (intersection_number(a, b) == 0) == (a == b)


class TestIsEdge:
    def test_examples(self):
        assert is_edge(Slope(0, 1), Slope(1, 1))
        for n in range(-6, 7):
            assert is_edge(INFINITY, Slope(n, 1))
        assert not is_edge(Slope(1, 3), Slope(2, 3))


class TestSuccessor:
    @pytest.mark.parametrize(
        "b,expected",
        [
            # frozen from the alpha' <= 50 brute-force maximization
            (Slope(1, 2), Slope(1, 1)),
            (Slope(1, 6), Slope(1, 5)),
            (Slope(2, 5), Slope(1, 2)),
        ],
    )
    def test_examples(self, b, expected):
        assert successor_oracle(b, bound=50) == expected
        assert successor(b) == expected

    def test_rejects_infinity(self):
        with pytest.raises(FareyError):
            successor(INFINITY)

    def test_oracle_equivalence_denominators_to_30(self):
        for b in slope_corpus(30, 31):
            assert successor(b) == successor_oracle(b, bound=1000), b

    def test_edge_above_and_maximal(self):
        # successor has an edge to x, exceeds x, and nothing better exists
        # among denominators <= 50
        for x in slope_corpus(9, 9):
            s = successor(x)
            assert is_edge(x, s)
            assert x < s
            for q in range(1, 51):
                lo = (x.numerator * q) // x.denominator - 1
                hi = (s.numerator * q) // max(s.denominator, 1) + 2
                for p in range(lo, hi + 1):
                    y = Slope(p, q)
                    if s < y and not y.is_infinite:
                        assert not is_edge(x, y), (x, s, y)


class TestGreatestNeighborBelow:
    def test_negative_interval_value_settled_by_scan(self):
        # the bounded scan settles the uncertain value: -3/7, not -5/11
        expected = neighbor_below_oracle(Slope(-1, 2), Slope(-2, 5), bound=60)
        assert expected == Slope(-3, 7)
        assert greatest_neighbor_below(Slope(-1, 2), Slope(-2, 5)) == expected

    def test_unit_interval_example(self):
        expected = neighbor_below_oracle(Slope(0, 1), Slope(1, 1), bound=50)
        assert expected == Slope(1, 2)
        assert greatest_neighbor_below(Slope(0, 1), Slope(1, 1)) == expected

    def test_below_one_half_is_unit_fraction(self):
        result = greatest_neighbor_below(Slope(0, 1), Slope(1, 2))
        assert result == neighbor_below_oracle(Slope(0, 1), Slope(1, 2), bound=50)
        assert result == Slope(1, 3)
        assert result < Slope(1, 2)
        assert result.numerator == 1
        assert is_edge(Slope(0, 1), result)

    def test_infinite_upper_is_successor(self):
        for a in slope_corpus(5, 5):
            assert greatest_neighbor_below(a, INFINITY) == successor(a)

    def test_oracle_equivalence_sampled_pairs(self):
        rng = random.Random(20)
        corpus = slope_corpus(8, 8)
        for _ in range(60):
            a = rng.choice(corpus)
            f = a.as_fraction() + Fraction(rng.randint(1, 9), 10)
            upper = Slope(f.numerator, f.denominator)
            got = greatest_neighbor_below(a, upper)
            assert got == neighbor_below_oracle(a, upper, bound=300), (a, upper)

    def test_denominator_smaller_when_upper_inside_the_fan(self):
        # when upper < successor(a) and upper is not itself a neighbor of a,
        # it sits strictly between consecutive neighbors, so its denominator
        # exceeds theirs
        rng = random.Random(21)
        corpus = slope_corpus(8, 8)
        for _ in range(150):
            a = rng.choice(corpus)
            outer = successor(a)
            for _ in range(rng.randint(0, 3)):
                outer = greatest_neighbor_below(a, outer)
            inner = greatest_neighbor_below(a, outer)
            f = (inner.as_fraction() + outer.as_fraction()) / 2
            upper = Slope(f.numerator, f.denominator)
            assert not is_edge(a, upper) and upper < successor(a)
            got = greatest_neighbor_below(a, upper)
            assert got == inner
            assert a < got < upper
            assert got.denominator < upper.denominator, (a, upper, got)

    def test_rejects_bad_intervals(self):
        with pytest.raises(FareyError):
            greatest_neighbor_below(Slope(1, 2), Slope(1, 3))
        with pytest.raises(FareyError):
            greatest_neighbor_below(Slope(1, 2), Slope(1, 2))
        with pytest.raises(FareyError):
            greatest_neighbor_below(INFINITY, INFINITY)


class TestShortestIncreasingPath:
    def test_known_paths_to_infinity(self):
        assert list(shortest_increasing_path(Slope(1, 2), INFINITY)) == [
            Slope(1, 2),
            Slope(1, 1),
            INFINITY,
        ]
        assert list(shortest_increasing_path(Slope(1, 5), INFINITY)) == [
            Slope(1, 5),
            Slope(1, 4),
            Slope(1, 3),
            Slope(1, 2),
            Slope(1, 1),
            INFINITY,
        ]

    def test_integers_step_straight_to_infinity(self):
        for n in range(-5, 6):
            assert list(shortest_increasing_path(Slope(n, 1), INFINITY)) == [
                Slope(n, 1),
                INFINITY,
            ]

    def test_bfs_minimality_to_infinity(self):
        for a in slope_corpus(12, 12):
            path = shortest_increasing_path(a, INFINITY)
            assert len(path) == bfs_path_length(a, INFINITY, bound=50), a

    def test_bfs_minimality_finite_targets(self):
        rng = random.Random(22)
        corpus = slope_corpus(8, 8)
        checked = 0
        while checked < 60:
            a, b = rng.choice(corpus), rng.choice(corpus)
            if not a < b:
                continue
            path = shortest_increasing_path(a, b)
            assert len(path) == bfs_path_length(a, b, bound=60), (a, b)
            checked += 1

    def test_rejects_non_increasing_input(self):
        with pytest.raises(FareyError):
            shortest_increasing_path(Slope(1, 1), Slope(0, 1))
        with pytest.raises(FareyError):
            shortest_increasing_path(INFINITY, INFINITY)

    def test_path_serialization_round_trip(self):
        path = shortest_increasing_path(Slope(1, 5), INFINITY)
        assert isinstance(path, tuple)
        text = ", ".join(str(v) for v in path)
        assert text == "1/5, 1/4, 1/3, 1/2, 1/1, inf"
        assert tuple(parse_slope(v) for v in text.split(",")) == path


class TestMediant:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (Slope(0, 1), Slope(1, 1), Slope(1, 2)),
            (Slope(1, 2), Slope(1, 1), Slope(2, 3)),
            (Slope(1, 1), INFINITY, Slope(2, 1)),
        ],
    )
    def test_examples(self, a, b, expected):
        assert mediant(a, b) == expected

    def test_rejects_non_edge(self):
        with pytest.raises(FareyError):
            mediant(Slope(1, 3), Slope(2, 3))

    def test_betweenness_and_edges(self):
        corpus = slope_corpus(9, 9) + [INFINITY]
        for a in corpus:
            for b in corpus:
                if not (a < b and is_edge(a, b)):
                    continue
                m = mediant(a, b)
                assert a < m < b
                assert is_edge(a, m) and is_edge(m, b)


class TestCanonicality:
    def test_all_outputs_reduced(self):
        rng = random.Random(23)
        corpus = slope_corpus(10, 10)

        def canonical(s):
            from math import gcd

            if s.denominator == 0:
                return s.numerator == 1
            return s.denominator > 0 and gcd(abs(s.numerator), s.denominator) == 1

        for _ in range(200):
            a = rng.choice(corpus)
            assert canonical(successor(a))
            b = rng.choice(corpus)
            if a < b:
                assert canonical(greatest_neighbor_below(a, b))
                if is_edge(a, b):
                    assert canonical(mediant(a, b))
                for v in shortest_increasing_path(a, b):
                    assert canonical(v)


class TestOracleBound:
    def test_insufficient_bound_is_a_distinct_error(self):
        from oracles import OracleBoundError

        with pytest.raises(OracleBoundError):
            successor_oracle(Slope(1, 40), bound=30)
        with pytest.raises(OracleBoundError):
            bfs_path_length(Slope(0, 1), Slope(13, 40), bound=30)
        with pytest.raises(OracleBoundError):
            neighbor_below_oracle(Slope(1, 3), Slope(2, 5), bound=2)
