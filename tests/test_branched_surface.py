import json
import random
import time

import pytest

from slopecalc import (
    BoundaryCurve,
    BranchCurve,
    BranchedSurface,
    SectorRecord,
    VerticalAnnulus,
    amputate,
    carried_euler,
    check_degree_consistency,
    check_weights,
    enumerate_weights,
    validate_surface,
)
from slopecalc.branched_surface import (
    load_surface,
    surface_from_dict,
    surface_to_dict,
    weights_from_dict,
)

from oracles import grid_weight_solutions


def simple_surface(eulers=(0, 0, 0)):
    """One branch curve (A, B -> C)."""
    return BranchedSurface(
        sectors=(
            SectorRecord("A", eulers[0]),
            SectorRecord("B", eulers[1]),
            SectorRecord("C", eulers[2]),
        ),
        branch_curves=(BranchCurve("A", "B", "C"),),
    )


def chain_surface():
    """Two branch curves (A, B -> C) and (C, D -> E)."""
    return BranchedSurface(
        sectors=tuple(SectorRecord(i) for i in "ABCDE"),
        branch_curves=(BranchCurve("A", "B", "C"), BranchCurve("C", "D", "E")),
    )


def curves_surface(ids, *curves):
    """Sectors named by ids, one branch curve per (out1, out2, in) triple."""
    return BranchedSurface(
        sectors=tuple(SectorRecord(i) for i in ids),
        branch_curves=tuple(BranchCurve(*c) for c in curves),
    )


def random_surface(rng, max_sectors=4, max_curves=4):
    n = rng.randint(1, max_sectors)
    ids = [f"S{i}" for i in range(n)]
    curves = tuple(
        BranchCurve(rng.choice(ids), rng.choice(ids), rng.choice(ids))
        for _ in range(rng.randint(0, max_curves))
    )
    sectors = tuple(SectorRecord(i, rng.randint(-2, 2)) for i in ids)
    return BranchedSurface(sectors=sectors, branch_curves=curves)


class TestValidate:
    def test_single_sector_no_curves(self):
        surface = BranchedSurface(sectors=(SectorRecord("A"),))
        assert validate_surface(surface) == []

    def test_dangling_reference(self):
        surface = BranchedSurface(
            sectors=(SectorRecord("A"),),
            branch_curves=(BranchCurve("A", "A", "Z"),),
        )
        violations = validate_surface(surface)
        assert len(violations) == 1
        assert "Z" in violations[0]

    def test_well_formed_triangle(self):
        assert validate_surface(simple_surface()) == []

    def test_duplicate_ids(self):
        surface = BranchedSurface(sectors=(SectorRecord("A"), SectorRecord("A")))
        assert any("duplicate" in v for v in validate_surface(surface))


class TestCheckWeights:
    def test_branch_equation_holds(self):
        w = {"A": 1, "B": 2, "C": 3}
        assert check_weights(simple_surface(), w)

    def test_branch_equation_fails(self):
        w = {"A": 1, "B": 1, "C": 1}
        assert not check_weights(simple_surface(), w)

    def test_zero_always_valid(self):
        rng = random.Random(1)
        for _ in range(25):
            surface = random_surface(rng)
            zero = {i: 0 for i in surface.sector_ids()}
            assert check_weights(surface, zero)

    def test_domain_mismatch_raises(self):
        with pytest.raises(ValueError):
            check_weights(simple_surface(), {"A": 1, "B": 2})


class TestEnumerateWeights:
    def test_simple_nonnegative(self):
        # all (a, b, a+b) with a, b >= 0 and a+b <= 2: six solutions
        got = enumerate_weights(simple_surface(), 2, "nonnegative")
        tuples = [(w["A"], w["B"], w["C"]) for w in got]
        assert tuples == [(0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 0, 1), (1, 1, 2), (2, 0, 2)]

    def test_simple_positive(self):
        got = enumerate_weights(simple_surface(), 2, "positive")
        assert [(w["A"], w["B"], w["C"]) for w in got] == [(1, 1, 2)]

    def test_empty_surface_has_empty_solution(self):
        got = enumerate_weights(BranchedSurface(), 3)
        assert got == [{}]

    def test_positive_with_max_zero_has_no_solution(self):
        # the value range [1, 0] is empty; this once raised KeyError
        assert enumerate_weights(simple_surface(), 0, "positive") == []

    def test_depth_beyond_recursion_limit(self):
        # more sectors than Python's default recursion limit of 1000
        ids = [f"S{i:04d}" for i in range(1200)]
        surface = BranchedSurface(sectors=tuple(SectorRecord(sid) for sid in ids))
        assert enumerate_weights(surface, 0) == [dict.fromkeys(ids, 0)]

    def test_lexicographic_by_sector_id(self):
        got = enumerate_weights(simple_surface(), 3)
        tuples = [tuple(w[i] for i in ("A", "B", "C")) for w in got]
        assert tuples == sorted(tuples)

    def test_grid_oracle_equivalence(self):
        rng = random.Random(2)
        chain = [f"S{i}" for i in range(4)] + ["Z"]
        hand_picked = [
            curves_surface("AB", ("A", "A", "B")),  # B = 2A
            curves_surface("AB", ("B", "B", "A")),  # A = 2B: a pivot of 2, no B for odd A
            curves_surface("AB", ("A", "B", "A")),  # B = 0
            curves_surface("ABC", ("C", "C", "A"), ("C", "C", "B")),  # two pivots of 2 on C
            curves_surface("ABCD", ("A", "B", "C"), ("B", "A", "C"), ("C", "D", "A")),  # redundant
            curves_surface("ABC", ("A", "A", "B"), ("B", "B", "A")),  # only A = B = 0
            curves_surface(chain, *((chain[i], "Z", chain[i + 1]) for i in range(3))),
        ]
        for surface in hand_picked + [random_surface(rng) for _ in range(30)]:
            for positivity in ("nonnegative", "positive"):
                got = enumerate_weights(surface, 5, positivity)
                assert got == grid_weight_solutions(surface, 5, positivity)

    def test_chain_closed_form(self):
        # curves (S_i, S_last, S_i+1) force w_i = a + i*d and w_last = d; two
        # free sectors, so 200 sectors take milliseconds, not 11^200 grid points
        n = 200
        ids = [f"S{i:03d}" for i in range(n)]
        surface = curves_surface(ids, *((ids[i], ids[-1], ids[i + 1]) for i in range(n - 2)))
        expected = [
            {**{sid: a + i * d for i, sid in enumerate(ids[:-1])}, ids[-1]: d}
            for a in range(11)
            for d in range(11)
            if a + (n - 2) * d <= 10
        ]
        started = time.perf_counter()
        assert enumerate_weights(surface, 10) == expected
        assert time.perf_counter() - started < 5.0

    def test_cone_closure(self):
        rng = random.Random(3)
        for _ in range(20):
            surface = random_surface(rng, max_sectors=6)
            solutions = enumerate_weights(surface, 4)
            for _ in range(10):
                w1, w2 = rng.choice(solutions), rng.choice(solutions)
                assert check_weights(surface, {k: w1[k] + w2[k] for k in w1})
                c = rng.randint(1, 5)
                assert check_weights(surface, {k: c * v for k, v in w1.items()})

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_weights(simple_surface(), -1)
        with pytest.raises(ValueError):
            enumerate_weights(simple_surface(), 2, "negative")


class TestCarriedEuler:
    def test_torus_sector(self):
        surface = BranchedSurface(sectors=(SectorRecord("T", 0),))
        assert carried_euler(surface, {"T": 5}) == 0

    def test_zero_weight(self):
        surface = simple_surface(eulers=(-1, 2, 1))
        zero = {"A": 0, "B": 0, "C": 0}
        assert carried_euler(surface, zero) == 0

    def test_linearity(self):
        surface = simple_surface(eulers=(-1, 0, 1))
        w1 = {"A": 1, "B": 1, "C": 2}
        w2 = {"A": 2, "B": 1, "C": 3}
        assert carried_euler(surface, {k: w1[k] + w2[k] for k in w1}) == carried_euler(
            surface, w1
        ) + carried_euler(surface, w2)

    def test_linearity_random(self):
        rng = random.Random(4)
        for _ in range(20):
            surface = random_surface(rng)
            solutions = enumerate_weights(surface, 3)
            w1, w2 = rng.choice(solutions), rng.choice(solutions)
            a, b = rng.randint(0, 3), rng.randint(0, 3)
            combo = {k: a * w1[k] + b * w2[k] for k in w1}
            assert carried_euler(surface, combo) == a * carried_euler(
                surface, w1
            ) + b * carried_euler(surface, w2)

    def test_rejects_invalid_weights(self):
        with pytest.raises(ValueError):
            carried_euler(simple_surface(), {"A": 1, "B": 1, "C": 1})


class TestAmputate:
    def test_single_sector_removal(self):
        result = amputate(simple_surface(), {"C"})
        assert result.sector_ids() == ["A", "B"]
        assert result.branch_curves == ()
        assert result.boundary_curves == (
            BoundaryCurve("A", "out1"),
            BoundaryCurve("B", "out2"),
        )
        assert all(s.boundary for s in result.sectors)

    def test_total_amputation(self):
        result = amputate(simple_surface(), {"A", "B", "C"})
        assert not result.sectors
        assert result.branch_curves == ()
        assert result.boundary_curves == ()

    def test_chain_derived_example(self):
        # deleting E kills (C, D -> E); (A, B -> C) survives; C and D gain
        # boundary records
        result = amputate(chain_surface(), {"E"})
        assert result.sector_ids() == ["A", "B", "C", "D"]
        assert result.branch_curves == (BranchCurve("A", "B", "C"),)
        assert result.boundary_curves == (
            BoundaryCurve("C", "out1"),
            BoundaryCurve("D", "out2"),
        )

    def test_sector_count_strictly_decreases(self):
        rng = random.Random(5)
        for _ in range(30):
            surface = random_surface(rng)
            ids = surface.sector_ids()
            chosen = set(rng.sample(ids, rng.randint(1, len(ids))))
            result = amputate(surface, chosen)
            assert len(result.sectors) < len(surface.sectors)

    def test_disjoint_amputations_commute(self):
        rng = random.Random(6)
        for _ in range(30):
            surface = random_surface(rng, max_sectors=6)
            ids = surface.sector_ids()
            if len(ids) < 3:
                continue
            k = rng.randint(2, len(ids) - 1)
            chosen = rng.sample(ids, k)
            cut = rng.randint(1, k - 1)
            first, second = set(chosen[:cut]), set(chosen[cut:])
            one_way = amputate(amputate(surface, first), second)
            other_way = amputate(amputate(surface, second), first)
            assert one_way == other_way
            assert one_way == amputate(surface, first | second)

    def test_unknown_id_raises(self):
        with pytest.raises(ValueError):
            amputate(simple_surface(), {"Z"})
        with pytest.raises(ValueError):
            amputate(simple_surface(), set())


class TestDegreeConsistency:
    def test_degree_zero_essential(self):
        record = VerticalAnnulus("A1", 0, ("essential", "essential"))
        assert check_degree_consistency([record]) == []

    def test_degree_one_disks(self):
        record = VerticalAnnulus("A1", 1, ("disk-bounding", "disk-bounding"))
        assert check_degree_consistency([record]) == []

    def test_mixed_classes_flagged(self):
        record = VerticalAnnulus("A1", 1, ("essential", "disk-bounding"))
        violations = check_degree_consistency([record])
        assert any("mixed" in v for v in violations)

    def test_degree_zero_mixed_classes_list_both_violations(self):
        record = VerticalAnnulus("A1", 0, ("essential", "disk-bounding"))
        assert check_degree_consistency([record]) == [
            "annulus A1: mixed boundary classes (essential, disk-bounding)",
            "annulus A1: degree 0 with a disk-bounding boundary",
        ]

    def test_full_dichotomy(self):
        class_pairs = [
            ("essential", "essential"),
            ("essential", "disk-bounding"),
            ("disk-bounding", "disk-bounding"),
        ]
        for degree in range(4):
            for pair in class_pairs:
                record = VerticalAnnulus("X", degree, pair)
                ok = (degree == 0 and pair == ("essential", "essential")) or (
                    degree == 1 and pair == ("disk-bounding", "disk-bounding")
                )
                assert (check_degree_consistency([record]) == []) == ok, (degree, pair)

    def test_violations_accumulate_across_records(self):
        records = [
            VerticalAnnulus("A1", 0, ("essential", "essential")),
            VerticalAnnulus("A2", 2, ("essential", "essential")),
            VerticalAnnulus("A3", 0, ("disk-bounding", "disk-bounding")),
        ]
        violations = check_degree_consistency(records)
        assert len(violations) == 2
        assert not any("A1" in v for v in violations)


class TestAnnulusValidation:
    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            VerticalAnnulus("A", -1, ("essential", "essential"))

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            VerticalAnnulus("A", 0, ("essential", "compressible"))


class TestSerialization:
    def test_round_trip(self):
        surface = BranchedSurface(
            sectors=(SectorRecord("A", -1, True), SectorRecord("B", 2)),
            branch_curves=(BranchCurve("A", "B", "A"),),
            boundary_curves=(BoundaryCurve("B", "in"),),
            vertical_annuli=(VerticalAnnulus("V", 1, ("disk-bounding", "disk-bounding")),),
        )
        assert surface_from_dict(surface_to_dict(surface)) == surface

    def test_json_keys_match_document_format(self):
        doc = surface_to_dict(simple_surface())
        assert set(doc["branch_curves"][0]) == {"out1", "out2", "in"}
        assert set(doc["sectors"][0]) == {"id", "cusped_euler", "boundary"}

    def test_defaults_and_missing_arrays(self):
        surface = surface_from_dict({"sectors": [{"id": "A"}]})
        assert surface.sectors == (SectorRecord("A", 0, False),)
        assert surface.branch_curves == ()

    def test_malformed_document(self):
        with pytest.raises(ValueError):
            surface_from_dict({"sectors": [{"no_id": 1}]})

    def test_load_surface_file(self, tmp_path):
        path = tmp_path / "surf.json"
        path.write_text(json.dumps(surface_to_dict(chain_surface())))
        assert load_surface(str(path)) == chain_surface()

    def test_weight_map_round_trip(self):
        w = {"B": 2, "A": 1}
        assert weights_from_dict(json.loads(json.dumps(w))) == w
