import itertools
import random

import pytest

from slopecalc import (
    BoundaryData,
    MulticurveCoordinates,
    enumerate_multicurves,
)
from slopecalc.multicurve import parse_boundary

from oracles import multicurve_grid, parse_coordinates


def coords(*values):
    return MulticurveCoordinates(*values)


class TestEnumerate:
    def test_one_one_one_tight(self):
        got = enumerate_multicurves(BoundaryData(1, 1, 1), allow_boundary_parallel=False)
        assert got == [coords(1, 1, 1, 0, 0, 0)]

    def test_one_one_one_with_boundary_parallel(self):
        got = enumerate_multicurves(BoundaryData(1, 1, 1), allow_boundary_parallel=True)
        assert got == [
            coords(0, 0, 0, 1, 1, 1),
            coords(0, 0, 2, 1, 0, 0),
            coords(0, 2, 0, 0, 1, 0),
            coords(1, 1, 1, 0, 0, 0),
            coords(2, 0, 0, 0, 0, 1),
        ]

    def test_empty_boundary_data(self):
        for mode in (True, False):
            assert enumerate_multicurves(BoundaryData(0, 0, 0), mode) == [
                coords(0, 0, 0, 0, 0, 0)
            ]

    def test_infeasible_data_empty(self):
        # k3 too large for the others: no solutions even with b arcs
        assert enumerate_multicurves(BoundaryData(1, 0, 0), False) == []

    def test_endpoint_equations_hold(self):
        rng = random.Random(40)
        for _ in range(40):
            bd = BoundaryData(rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6))
            for mode in (True, False):
                for m in enumerate_multicurves(bd, mode):
                    assert m.n12 + m.n13 + 2 * m.b1 == 2 * bd.k1
                    assert m.n12 + m.n23 + 2 * m.b2 == 2 * bd.k2
                    assert m.n13 + m.n23 + 2 * m.b3 == 2 * bd.k3
                    if not mode:
                        assert (m.b1, m.b2, m.b3) == (0, 0, 0)

    def test_lexicographic_order(self):
        got = enumerate_multicurves(BoundaryData(3, 2, 4), True)
        tuples = [(m.n12, m.n13, m.n23, m.b1, m.b2, m.b3) for m in got]
        assert tuples == sorted(tuples)

    def test_grid_oracle_equivalence(self):
        for k1, k2, k3 in itertools.product(range(6), repeat=3):
            bd = BoundaryData(k1, k2, k3)
            for mode in (True, False):
                got = [
                    (m.n12, m.n13, m.n23, m.b1, m.b2, m.b3)
                    for m in enumerate_multicurves(bd, mode)
                ]
                assert got == multicurve_grid(bd, mode), (bd, mode)


class TestCount:
    def test_examples(self):
        assert len(enumerate_multicurves(BoundaryData(1, 1, 1), False)) == 1
        assert len(enumerate_multicurves(BoundaryData(1, 1, 1), True)) == 5
        assert len(enumerate_multicurves(BoundaryData(2, 2, 2), False)) == 1

    def test_tight_system_unique_iff_triangle_inequalities(self):
        for k1, k2, k3 in itertools.product(range(11), repeat=3):
            n = len(enumerate_multicurves(BoundaryData(k1, k2, k3), False))
            feasible = k1 + k2 >= k3 and k1 + k3 >= k2 and k2 + k3 >= k1
            assert n == (1 if feasible else 0), (k1, k2, k3)

    def test_monotone_in_boundary_parallel_allowance(self):
        rng = random.Random(41)
        for _ in range(50):
            bd = BoundaryData(rng.randint(0, 8), rng.randint(0, 8), rng.randint(0, 8))
            tight = enumerate_multicurves(bd, False)
            assert len(enumerate_multicurves(bd, True)) >= len(tight)


class TestEquivariance:
    # permuting the boundary components permutes the pair and parallel
    # coordinates: sigma sends n_ij to n_{sigma(i)sigma(j)} and b_i to
    # b_{sigma(i)}
    PAIR_SLOT = {frozenset({1, 2}): 0, frozenset({1, 3}): 1, frozenset({2, 3}): 2}

    def apply(self, sigma, m):
        pairs = [0, 0, 0]
        for (i, j), value in (((1, 2), m.n12), ((1, 3), m.n13), ((2, 3), m.n23)):
            pairs[self.PAIR_SLOT[frozenset({sigma[i - 1], sigma[j - 1]})]] = value
        parallels = [0, 0, 0]
        for i, value in ((1, m.b1), (2, m.b2), (3, m.b3)):
            parallels[sigma[i - 1] - 1] = value
        return MulticurveCoordinates(*pairs, *parallels)

    def test_permutation_action(self):
        for k in itertools.product(range(6), repeat=3):
            for sigma in itertools.permutations((1, 2, 3)):
                bd = BoundaryData(*k)
                permuted_k = [0, 0, 0]
                for i in (1, 2, 3):
                    permuted_k[sigma[i - 1] - 1] = k[i - 1]
                image = {
                    self.apply(sigma, m) for m in enumerate_multicurves(bd, True)
                }
                direct = set(enumerate_multicurves(BoundaryData(*permuted_k), True))
                assert image == direct, (k, sigma)


class TestParsing:
    def test_boundary_round_trip(self):
        bd = BoundaryData(1, 2, 3)
        assert parse_boundary(str(bd)) == bd
        assert parse_boundary("0,0,0") == BoundaryData(0, 0, 0)

    def test_coordinates_round_trip(self):
        m = coords(1, 0, 3, 0, 2, 0)
        assert str(m) == "(1,0,3|0,2,0)"
        assert parse_coordinates(str(m)) == (1, 0, 3, 0, 2, 0)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_boundary("1,2")
        with pytest.raises(ValueError):
            parse_coordinates("(1,2,3)")
        with pytest.raises(ValueError):
            BoundaryData(-1, 0, 0)
        with pytest.raises(ValueError):
            coords(1, 1, 1, 0, 0, -1)
