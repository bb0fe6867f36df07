"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line (visible with pytest -s or -rA) and
enforces the stated runtime budget.  Expected values come from the
independent oracles in oracles.py or are recomputed in place from the
displayed formulas; nothing is asserted that was not derived.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

from slopecalc import (
    INFINITY,
    BoundaryData,
    BranchCurve,
    BranchedSurface,
    SectorRecord,
    SeifertTriple,
    Slope,
    VerticalAnnulus,
    amputate,
    analyze,
    check_degree_consistency,
    check_weights,
    enumerate_multicurves,
    enumerate_weights,
    evidence,
    gcs_family,
    greatest_neighbor_below,
    is_torus_bundle,
    parse_slope,
    shortest_increasing_path,
    successor,
)
from slopecalc.branched_surface import surface_from_dict, surface_to_dict
from slopecalc.cli import run
from slopecalc.seifert import VERDICT_FINITE, VERDICT_TORUS_BUNDLE

from oracles import (
    bfs_path_length,
    grid_weight_solutions,
    multicurve_grid,
    neighbor_below_oracle,
    parse_coordinates,
    slope_corpus,
    successor_oracle,
)

TORUS_BUNDLE_TRIPLES = {
    (2, 4, 4): "(1/4, 1/4, -1/2)",
    (2, 3, 6): "(1/3, 1/6, -1/2)",
    (3, 3, 3): "(1/3, 1/3, -2/3)",
}


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - started
    print(f"PASS  criterion {number}: {label} ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def normalized_triples(rng, count, euler_filter=None, require_family=False):
    out = []
    while len(out) < count:
        def coprime(a, lo, hi):
            while True:
                b = rng.randint(lo, hi)
                if gcd(abs(b), a) == 1:
                    return b

        a1, a2, a3 = (rng.randint(2, 12) for _ in range(3))
        t = SeifertTriple(
            (
                Slope(coprime(a1, 1, a1 - 1), a1),
                Slope(coprime(a2, 1, a2 - 1), a2),
                Slope(coprime(a3, -2 * a3 + 1, -1), a3),
            )
        )
        e = sum((s.as_fraction() for s in t.invariants), Fraction(0))
        if euler_filter is not None and not euler_filter(e):
            continue
        if require_family and gcs_family(t) is None:
            continue
        out.append(t)
    return out


def random_surfaces(count, seed=2024):
    rng = random.Random(seed)
    surfaces = []
    for _ in range(count):
        n = rng.randint(1, 4)
        ids = [f"S{i}" for i in range(n)]
        surfaces.append(
            BranchedSurface(
                sectors=tuple(SectorRecord(i, rng.randint(-2, 2)) for i in ids),
                branch_curves=tuple(
                    BranchCurve(rng.choice(ids), rng.choice(ids), rng.choice(ids))
                    for _ in range(rng.randint(0, 4))
                ),
            )
        )
    return surfaces


def test_c01_torus_bundle_families():
    with criterion(1, "torus-bundle triples: unit determinant, edges, coprimality", 1.0):
        for alphas, text in TORUS_BUNDLE_TRIPLES.items():
            t = SeifertTriple(tuple(parse_slope(p) for p in text.strip("()").split(",")))
            assert sorted(t.alphas) == sorted(alphas)
            assert is_torus_bundle(t)
            family = gcs_family(t)
            dets = set()
            k = Fraction(0)
            while k <= 20:
                row = evidence(family, k)
                dets.add(row.determinant)
                assert row.edge, (text, k)
                assert row.coprime, (text, k)
                k += family.step
            assert len(dets) == 1 and abs(dets.pop()) == 1, text


def test_c02_torus_bundle_identity():
    with criterion(2, "identity (a1a2-a1-a2)a3 = a1a2 iff sum 1/ai = 1, ai <= 12", 1.0):
        cases = 0
        for a1, a2, a3 in itertools.product(range(2, 13), repeat=3):
            t = SeifertTriple((Slope(1, a1), Slope(1, a2), Slope(-1, a3)))
            identity = (a1 * a2 - a1 - a2) * a3 == a1 * a2
            harmonic = Fraction(1, a1) + Fraction(1, a2) + Fraction(1, a3) == 1
            assert identity == harmonic == is_torus_bundle(t), (a1, a2, a3)
            cases += 1
        assert cases == 1331


def test_c03_worked_pipeline():
    with criterion(3, "worked pipeline for (1/3, 1/6, -1/2)", 1.0):
        t = SeifertTriple((Slope(1, 3), Slope(1, 6), Slope(-1, 2)))
        family = gcs_family(t)
        assert family.duals == (Slope(1, 2), Slope(1, 5))
        assert (family.r1, family.r2) == (1, 0)
        assert family.step == Fraction(1, 3)

        def displayed_form(k):
            k1, k2 = 6 * k + 1, 3 * k
            assert k1.denominator == 1 and k2.denominator == 1
            num = 1 - (int(k1) * 1 + 1) - (int(k2) * 1 + 1)
            den = int(k1) * 3 + 2
            return num, den

        def expanded_form(k):
            num = k * (-6 * 1 - 3 * 1) + (1 - 1 * 1 - 1 - 0 * 1 - 1)
            den = k * 18 + 1 * 3 + 2
            assert num.denominator == 1 and den.denominator == 1
            return int(num), int(den)

        expected = {
            Fraction(0): Slope(-2, 5),
            Fraction(1, 3): Slope(-5, 11),
            Fraction(1): Slope(-11, 23),
        }
        previous = None
        k = Fraction(0)
        while k <= 3:
            row = evidence(family, k)
            num, den = displayed_form(k)
            assert (num, den) == expanded_form(k)
            # coprime, so the row's unreduced pair is the reduced s_k
            assert row.coprime and row.s_k == Slope(num, den)
            assert (row.k1, row.k2) == (6 * k + 1, 3 * k)
            sk = row.s_k
            if k in expected:
                assert sk == expected[k], k
            assert row.determinant == 1
            # strict descent to s = -1/2 with gap exactly 1/(2 den(k))
            assert sk.as_fraction() - Fraction(-1, 2) == Fraction(1, 2 * den)
            if previous is not None:
                assert sk < previous
            previous = sk
            k += family.step


def test_c04_nonzero_euler_dichotomy():
    with criterion(4, "e != 0: determinant increment -a1*a2*a3*e*step, finite verdict", 5.0):
        rng = random.Random(404)
        triples = normalized_triples(
            rng, 50, euler_filter=lambda e: e != 0, require_family=True
        )
        for t in triples:
            e = sum((s.as_fraction() for s in t.invariants), Fraction(0))
            a1, a2, a3 = t.alphas
            family = gcs_family(t)
            increment = -a1 * a2 * a3 * e * family.step
            assert increment.denominator == 1
            dets = [evidence(family, m * family.step).determinant for m in range(6)]
            assert all(b - a == int(increment) for a, b in zip(dets, dets[1:])), t
            assert analyze(t, 3).verdict == VERDICT_FINITE, t
        # empty-family e != 0 triples are finite as well
        empty = SeifertTriple((Slope(1, 3), Slope(2, 3), Slope(-1, 2)))
        assert gcs_family(empty) is None
        assert analyze(empty, 3).verdict == VERDICT_FINITE


def test_c05_farey_oracle_equivalence():
    with criterion(5, "successor/neighbor/path agree with bound-1000 oracles, den <= 12", 30.0):
        corpus = slope_corpus(12, 12)
        assert len(corpus) > 150
        for a in corpus:
            assert successor(a) == successor_oracle(a, bound=1000), a
            path = shortest_increasing_path(a, INFINITY)
            assert len(path) == bfs_path_length(a, INFINITY, bound=1000), a
            f = a.as_fraction() + Fraction(1, 17)
            upper = Slope(f.numerator, f.denominator)
            assert greatest_neighbor_below(a, upper) == neighbor_below_oracle(
                a, upper, bound=1000
            ), a
            assert greatest_neighbor_below(a, INFINITY) == successor_oracle(a, bound=1000)


def test_c06_weight_cone_oracle_equivalence():
    with criterion(6, "enumerate_weights matches full grid; cone closed under addition", 60.0):
        rng = random.Random(606)
        for surface in random_surfaces(100):
            solutions = enumerate_weights(surface, 10, "nonnegative")
            assert solutions == grid_weight_solutions(surface, 10, "nonnegative")
            # every pair whose sum stays in range remains in the cone;
            # exhaustive when feasible, dense deterministic sample otherwise
            if len(solutions) <= 300:
                pairs = itertools.combinations_with_replacement(solutions, 2)
            else:
                pairs = (
                    (rng.choice(solutions), rng.choice(solutions)) for _ in range(2000)
                )
            for w1, w2 in pairs:
                total = {k: w1[k] + w2[k] for k in w1}
                if max(total.values(), default=0) <= 10:
                    assert check_weights(surface, total)


def test_c07_amputation_properties():
    with criterion(7, "amputation: strict decrease, commutation, total emptiness", 5.0):
        rng = random.Random(707)
        for surface in random_surfaces(100, seed=707):
            ids = surface.sector_ids()
            chosen = set(rng.sample(ids, rng.randint(1, len(ids))))
            result = amputate(surface, chosen)
            assert len(result.sectors) == len(surface.sectors) - len(chosen)
            assert len(result.sectors) < len(surface.sectors)
            assert not amputate(surface, set(ids)).sectors
            if len(ids) >= 2:
                split = rng.randint(1, len(ids) - 1)
                first, second = set(ids[:split]), set(ids[split:])
                assert amputate(amputate(surface, first), second) == amputate(
                    amputate(surface, second), first
                )


def test_c08_degree_dichotomy():
    with criterion(8, "degree consistency accepts exactly {0, ess/ess} and {1, disk/disk}", 1.0):
        class_pairs = [
            ("essential", "essential"),
            ("essential", "disk-bounding"),
            ("disk-bounding", "disk-bounding"),
        ]
        combos = 0
        for degree in range(4):
            for pair in class_pairs:
                record = VerticalAnnulus("A", degree, pair)
                accepted = check_degree_consistency([record]) == []
                expected = (degree == 0 and pair == ("essential", "essential")) or (
                    degree == 1 and pair == ("disk-bounding", "disk-bounding")
                )
                assert accepted == expected, (degree, pair)
                combos += 1
        assert combos == 12


def test_c09_multicurve_enumeration():
    with criterion(9, "multicurve counts match exhaustive solver for all ki <= 10", 10.0):
        for k1, k2, k3 in itertools.product(range(11), repeat=3):
            bd = BoundaryData(k1, k2, k3)
            for mode in (True, False):
                got = [
                    (m.n12, m.n13, m.n23, m.b1, m.b2, m.b3)
                    for m in enumerate_multicurves(bd, mode)
                ]
                assert got == multicurve_grid(bd, mode), (bd, mode)
            feasible = k1 + k2 >= k3 and k1 + k3 >= k2 and k2 + k3 >= k1
            assert len(enumerate_multicurves(bd, False)) == (1 if feasible else 0)


def test_c10_cli_round_trip_determinism(tmp_path, capsys):
    with criterion(10, "CLI JSON round-trips losslessly; reruns byte-identical", 5.0):
        surface = BranchedSurface(
            sectors=(SectorRecord("A"), SectorRecord("B"), SectorRecord("C")),
            branch_curves=(BranchCurve("A", "B", "C"),),
        )
        surf_path = tmp_path / "surf.json"
        surf_path.write_text(json.dumps(surface_to_dict(surface)))

        invocations = [
            ["farey", "path", "--from", "1/5", "--to", "inf", "--format", "json"],
            ["seifert", "--triple", "(1/3,1/6,-1/2)", "--kmax", "4", "--format", "json"],
            ["multicurve", "--boundary", "2,3,4", "--allow-boundary-parallel", "--format", "json"],
            ["amputate", "--input", str(surf_path), "--sectors", "C", "--format", "json"],
            ["weights", "solve", "--input", str(surf_path), "--max", "2", "--format", "json"],
            ["seifert", "--triple", "(1/3,1/6,-1/2)", "--kmax", "4"],
        ]
        outputs = []
        for argv in invocations:
            assert run(argv) == 0
            first = capsys.readouterr().out
            assert run(argv) == 0
            assert capsys.readouterr().out == first
            outputs.append(first)

        path_doc = json.loads(outputs[0])
        assert [str(parse_slope(v)) for v in path_doc["path"]] == path_doc["path"]
        report_doc = json.loads(outputs[1])
        assert report_doc["verdict"] == VERDICT_TORUS_BUNDLE
        assert parse_slope(report_doc["limit"]) == Slope(-1, 2)
        assert Fraction(report_doc["euler"]) == 0
        for row in report_doc["rows"]:
            assert str(Fraction(row["k"])) == row["k"]
            assert str(parse_slope(row["s_k"])) == row["s_k"]
        multi_doc = json.loads(outputs[2])
        assert [parse_coordinates(c) for c in multi_doc["coordinates"]] == multicurve_grid(
            BoundaryData(2, 3, 4), True
        )
        surf_doc = json.loads(outputs[3])
        assert surface_from_dict(surf_doc) == amputate(surface, {"C"})
        weights_doc = json.loads(outputs[4])
        assert weights_doc["count"] == 6
        assert outputs[5].rstrip().endswith("verdict: torus-bundle candidate")
