"""The benchmark's three workloads: seeded inputs, one op, and its check.

Each workload builds a pool of ops from a seeded ``random.Random``, grouped
by shape; ``run.py`` warms up on the first ops, shuffles the pool with the
same generator and cycles through it.  Parameters that set an op's cost
(denominator digits, evidence rows, surface shape, boundary size) come from
fixed, evenly spread lists, and the seed draws everything else (numerators,
partial quotients, labels, orientations, permutations).  Every seed therefore
runs the same mix of costs, which keeps run-to-run spread low.

``run(op)`` does the timed work through the library entry points imported
by name below; a traced run patches those names in this module with span
wrappers (see ``tracing.Tracer.patched``).  ``check`` and ``canon`` run outside
the timed region: ``check`` verifies the result with ``checks`` (which shares
no code with the package) and ``canon`` renders it for the output digest.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from time import perf_counter_ns

from slopecalc import branched_surface, farey, multicurve, seifert
from slopecalc.branched_surface import enumerate_weights
from slopecalc.farey import greatest_neighbor_below, shortest_increasing_path, successor
from slopecalc.multicurve import enumerate_multicurves
from slopecalc.seifert import analyze

import checks
from checks import INF, reduced, slope_text

CHECK_ERRORS = (ArithmeticError, AttributeError, IndexError, KeyError, TypeError, ValueError)


def kernel_ns() -> int:
    """Time a fixed stdlib-only kernel, with the collector off.

    On a shared 2-vCPU VM, CPU speed drifts by up to 1.8x within seconds,
    and CPU time drifts with it.  Timing a fixed reference between ops tracks that drift,
    and the benchmark reports op times scaled to a machine on which the
    reference takes REF_NS.  The reference runs no slopecalc code, so a
    change to the package cannot move it.
    """
    gc.disable()
    try:
        start = perf_counter_ns()
        total = Fraction(0)
        for i in range(1, 300):
            total += Fraction(1, i)
        return perf_counter_ns() - start
    finally:
        gc.enable()


class InProcess:
    """In-process workloads scale by kernel_ns, at 1 ms."""

    REF_NS = 1_000_000

    @staticmethod
    def reference_ns() -> int:
        return kernel_ns()


def pair(s) -> tuple[int, int]:
    return s.numerator, s.denominator


def make_slope(x) -> farey.Slope:
    return farey.INFINITY if x == INF else farey.Slope(*x)


def random_slope(rng, digits: int, lo_value=None) -> tuple[int, int]:
    """A reduced slope with a denominator of about `digits` digits, above lo_value."""
    q = rng.randint(10 ** (digits - 1) + 1, 10**digits)
    if lo_value is None:
        return reduced(rng.randint(-2 * q, 2 * q), q)
    p0, q0 = lo_value
    return reduced(p0 * q // q0 + rng.randint(1, 2 * q), q)


def cf_slope(rng, digits: int) -> tuple[int, int]:
    """A slope whose continued fraction has partial quotients 1 to 8, with a
    `digits`-digit denominator.

    Bounded partial quotients keep path lengths from being heavy-tailed, so
    the total work of a pool hardly depends on the seed.
    """
    h_prev, h, k_prev, k = 1, rng.randint(-2, 1), 0, 1
    while k < max(2, 10 ** (digits - 1)):
        a = rng.randint(1, 8)
        h_prev, h, k_prev, k = h, a * h + h_prev, k, a * k + k_prev
    return h, k


def upper_neighbor(rng, a) -> tuple[int, int]:
    """A random slope above a that spans an edge with it: successor plus t * a."""
    p, q = a
    q2 = (-pow(p % q, -1, q)) % q if q > 1 else 1
    s = ((1 + p * q2) // q, q2)
    t = rng.randint(0, 3)
    return s[0] + t * p, s[1] + t * q


# ---------------------------------------------------------------------------
# Seifert triples
# ---------------------------------------------------------------------------

BUNDLE_ALPHAS = [
    (2, 3, 6), (2, 6, 3), (3, 2, 6), (3, 6, 2), (6, 2, 3), (6, 3, 2),
    (2, 4, 4), (4, 2, 4), (4, 4, 2), (3, 3, 3),
]


def _unit(rng, a: int) -> int:
    while True:
        b = rng.randint(1, a - 1)
        if gcd(b, a) == 1:
            return b


def random_triple(rng, case: int):
    """A normalizable triple ((b1, a1), (b2, a2), (b3, a3)) with a nonempty family.

    case 0: e = 0 torus bundle; case 1: e = 0, not a bundle; case 2: e != 0.
    b1 and b3 are shifted by a multiple of a1, a3 so that analyze normalizes.
    """
    while True:
        if case == 0:
            a1, a2, a3 = rng.choice(BUNDLE_ALPHAS)
        else:
            a1, a2, a3 = rng.randint(2, 12), rng.randint(2, 12), rng.randint(2, 12)
        b1, b2 = _unit(rng, a1), _unit(rng, a2)
        if case == 2:
            b3 = -rng.randint(1, 2 * a3 - 1)
            if gcd(b3, a3) != 1:
                continue
            s3 = Fraction(b3, a3)
            if Fraction(b1, a1) + Fraction(b2, a2) + s3 == 0:
                continue
        else:
            s3 = -(Fraction(b1, a1) + Fraction(b2, a2))
            bundle = Fraction(1, a1) + Fraction(1, a2) + Fraction(1, s3.denominator) == 1
            if s3.denominator < 2 or (case == 0) != bundle or (case == 0 and s3.denominator != a3):
                continue
            b3, a3 = s3.numerator, s3.denominator
        ap1 = checks.successor_of((b1, a1))[1]
        ap2 = checks.successor_of((b2, a2))[1]
        if (ap2 - ap1) % gcd(a1, a2):
            continue
        m = rng.randint(-2, 2)
        return (b1 + m * a1, a1), (b2, a2), (b3 - m * a3, a3)


def kmax_for_rows(triple, rows: int) -> Fraction:
    """The k_max that gives exactly `rows` evidence rows (k steps by 1/gcd(a1, a2))."""
    return Fraction(rows - 1, gcd(triple[0][1], triple[1][1]))


def triple_text(triple) -> str:
    return "(" + ",".join(f"{b}/{a}" for b, a in triple) + ")"


def make_triple(triple) -> seifert.SeifertTriple:
    return seifert.SeifertTriple(tuple(farey.Slope(b, a) for b, a in triple))


def analysis_rows(report):
    rows = [
        (r.k, r.k1, r.k2, pair(r.s_k), r.determinant, r.edge, r.coprime)
        for r in report.rows
    ]
    normalized = [pair(s) for s in report.normalized.invariants]
    return normalized, rows


def rows_canon(verdict, rows) -> str:
    return verdict + ";" + ";".join(
        f"{k},{k1},{k2},{slope_text(sk)},{d},{int(e)},{int(c)}"
        for k, k1, k2, sk, d, e, c in rows
    )


# ---------------------------------------------------------------------------
# arith: in-process Farey queries and Seifert analyses
# ---------------------------------------------------------------------------

class Arith(InProcess):
    """Farey successor/neighbor/path on slopes with 1- to 12-digit denominators,
    and Seifert analyses with 40 to 300 evidence rows over three cases."""

    root = "bench.op"
    warmup = 60
    FAREY_PER_DIGITS = 100
    SEIFERT_OPS = 240

    def build(self, rng, workdir):
        pool = []
        for i in range(12 * self.FAREY_PER_DIGITS):
            digits = 1 + i % 12
            a = b = cf_slope(rng, digits)
            while b == a:
                b = cf_slope(rng, digits)
            a, b = (a, INF) if i % 10 == 9 else sorted((a, b), key=lambda x: Fraction(*x))
            pool.append(("farey", make_slope(a), make_slope(b), a, b))
        n = self.SEIFERT_OPS
        for i in range(n):
            triple = random_triple(rng, i % 3)
            k_max = kmax_for_rows(triple, 40 + 260 * i // (n - 1))
            pool.append(("seifert", make_triple(triple), k_max, triple))
        return pool

    def run(self, op):
        if op[0] == "farey":
            a, b = op[1], op[2]
            return successor(a), greatest_neighbor_below(a, b), shortest_increasing_path(a, b)
        return analyze(op[1], op[2])

    def check(self, op, result):
        if op[0] == "farey":
            a, b = op[3], op[4]
            s, n, path = result
            return (
                checks.check_successor(a, pair(s))
                and checks.check_neighbor(a, b, pair(n))
                and checks.check_path(a, b, [pair(v) for v in path])
            )
        normalized, rows = analysis_rows(result)
        return checks.check_analysis(op[3], op[2], normalized, rows, result.verdict)

    def canon(self, op, result):
        if op[0] == "farey":
            s, n, path = result
            return ",".join(slope_text(pair(v)) for v in (s, n, *path))
        return rows_canon(result.verdict, analysis_rows(result)[1])


# ---------------------------------------------------------------------------
# enumerate: weight cones and multicurves
# ---------------------------------------------------------------------------

# One round of ops.  ("chain", sectors, max weight) is search-bound: one
# curve (S_i, S_last, S_i+1) per i, few solutions, many nodes.  ("cone",
# sectors, max weight, curves as sector positions) has few equations and up to
# 11k solutions.  ("multicurve", k, allow boundary-parallel arcs) has a
# boundary that is a permutation of (k-1, k, k+1).  Costs run from about 4 to
# 180 ms.  Six multicurves near 40 ms sit at the median and several ops of
# 115 to 140 ms at p90, so neither percentile falls in a gap between costs.
ONE, TWO = ((0, 1, 2),), ((0, 1, 2), (3, 4, 5))
ENUMERATE_ROUND = [
    ("multicurve", 13, True), ("multicurve", 16, True), ("multicurve", 19, True),
    ("multicurve", 22, True), ("multicurve", 25, True), ("multicurve", 40, False),
    ("chain", 4, 12), ("chain", 4, 13), ("chain", 4, 14), ("chain", 5, 7), ("chain", 6, 4),
    ("cone", 5, 10, ONE), ("cone", 5, 11, ONE), ("cone", 6, 6, ONE), ("cone", 6, 8, TWO),
    ("cone", 5, 7, ((0, 1, 4),)), ("cone", 6, 6, ((0, 2, 4),)),
    ("multicurve", 29, True), ("multicurve", 30, True), ("multicurve", 31, True),
    ("multicurve", 29, True), ("multicurve", 30, True), ("multicurve", 31, True),
    ("chain", 4, 15), ("chain", 4, 16), ("chain", 4, 18), ("chain", 4, 19), ("chain", 4, 20),
    ("chain", 5, 8), ("chain", 5, 9), ("chain", 5, 10), ("chain", 6, 5), ("chain", 6, 6),
    ("cone", 5, 8, ((0, 1, 4),)), ("cone", 5, 9, ((0, 1, 4),)), ("cone", 6, 5, ((0, 1, 5),)),
    ("cone", 6, 9, TWO), ("cone", 6, 10, TWO), ("cone", 6, 11, TWO),
]


def sector_labels(rng, n: int) -> list[str]:
    """n random ids whose sorted order is their position, so the shape fixes the search order."""
    return [f"S{v}" for v in sorted(rng.sample(range(100, 1000), n))]


class Enumerate(InProcess):
    """enumerate_weights on search-bound chains and output-bound cones, and
    enumerate_multicurves with boundaries up to k = 32, and one tight case
    with boundaries up to 41."""

    root = "bench.op"
    warmup = 8
    ROUNDS = 2

    def build(self, rng, workdir):
        pool = []
        for _ in range(self.ROUNDS):
            for shape in ENUMERATE_ROUND:
                if shape[0] == "multicurve":
                    _, k, allow = shape
                    ks = tuple(rng.sample((k - 1, k, k + 1), 3))
                    pool.append(("multicurve", multicurve.BoundaryData(*ks), allow, ks))
                    continue
                kind, n, max_weight = shape[:3]
                ids = sector_labels(rng, n)
                if kind == "chain":
                    curves = [(i, n - 1, i + 1) for i in range(n - 2)]
                else:
                    curves = [
                        (o2, o1, i) if rng.random() < 0.5 else (o1, o2, i)
                        for o1, o2, i in shape[3]
                    ]
                surface = branched_surface.BranchedSurface(
                    sectors=tuple(
                        branched_surface.SectorRecord(sid, rng.randint(-2, 2)) for sid in ids
                    ),
                    branch_curves=tuple(
                        branched_surface.BranchCurve(ids[a], ids[b], ids[c]) for a, b, c in curves
                    ),
                )
                pool.append(("weights", surface, max_weight, ids, curves))
        return pool

    def run(self, op):
        if op[0] == "weights":
            return enumerate_weights(op[1], op[2], "nonnegative")
        return enumerate_multicurves(op[1], op[2])

    def _values(self, op, result):
        if op[0] == "weights":
            return [tuple(w[sid] for sid in op[3]) for w in result]
        return [(m.n12, m.n13, m.n23, m.b1, m.b2, m.b3) for m in result]

    def check(self, op, result):
        values = self._values(op, result)
        if op[0] == "weights":
            return checks.check_weight_solutions(len(op[3]), op[4], 0, op[2], values)
        return checks.check_multicurves(op[3], op[2], values)

    def canon(self, op, result):
        return repr(self._values(op, result))


# ---------------------------------------------------------------------------
# cli-mix: one `python -m slopecalc.cli` process per op
# ---------------------------------------------------------------------------

ROLES = ("out1", "out2", "in")
BOUNDARY_CLASSES = ("essential", "disk-bounding")
CLI_KINDS = (
    "successor", "neighbor", "path", "edge", "mediant", "intersection",
    "seifert", "multicurve", "solve", "check", "euler", "amputate", "degree-check",
)


def random_surface_doc(rng):
    """A small surface document and a weight map valid on it.

    Each branch curve takes its inward sector fresh, so valid weights follow
    from free values on the first sectors.
    """
    m, c = rng.randint(2, 3), rng.randint(1, 3)
    ids = [chr(ord("A") + i) for i in range(m + c)]
    weights = {sid: rng.randint(0, 3) for sid in ids[:m]}
    curves = []
    for j in range(c):
        out1, out2, inward = rng.choice(ids[: m + j]), rng.choice(ids[: m + j]), ids[m + j]
        curves.append({"out1": out1, "out2": out2, "in": inward})
        weights[inward] = weights[out1] + weights[out2]
    doc = {
        "sectors": [
            {"id": sid, "cusped_euler": rng.randint(-2, 2), "boundary": rng.random() < 0.3}
            for sid in ids
        ],
        "branch_curves": curves,
        "boundary_curves": [
            {"sector": rng.choice(ids), "role": rng.choice(ROLES)}
            for _ in range(rng.randint(0, 1))
        ],
        "vertical_annuli": [
            {
                "id": f"V{i}",
                "degree": rng.randint(0, 2),
                "boundary_classes": [rng.choice(BOUNDARY_CLASSES) for _ in range(2)],
            }
            for i in range(rng.randint(1, 3))
        ],
    }
    return doc, weights


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def cli_query(rng, kind: str, fmt: str, index: int, workdir: str) -> dict:
    """One CLI invocation: argv plus what its check needs."""
    q = {"kind": kind, "fmt": fmt}
    digits = 1 + index % 6
    if kind in ("successor", "neighbor", "path", "edge", "mediant", "intersection"):
        a = random_slope(rng, digits)
        b = random_slope(rng, digits, a)
        if kind == "mediant" or (kind == "edge" and rng.random() < 0.5):
            b = upper_neighbor(rng, a)
        if kind == "path" and rng.random() < 0.2:
            b = INF
        q["a"], q["b"] = a, b
        flag_a, flag_b = {
            "successor": ("--of", None), "neighbor": ("--of", "--upper"),
            "path": ("--from", "--to"),
        }.get(kind, ("--a", "--b"))
        argv = ["farey", kind, f"{flag_a}={slope_text(a)}"]
        if flag_b:
            argv.append(f"{flag_b}={slope_text(b)}")
    elif kind == "seifert":
        triple = random_triple(rng, index % 3)
        q["triple"], q["kmax"] = triple, kmax_for_rows(triple, rng.randint(5, 20))
        argv = ["seifert", f"--triple={triple_text(triple)}", f"--kmax={q['kmax']}"]
    elif kind == "multicurve":
        q["k"] = tuple(rng.randint(0, 6) for _ in range(3))
        q["allow"] = rng.random() < 0.6
        argv = ["multicurve", "--boundary=" + ",".join(map(str, q["k"]))]
        if q["allow"]:
            argv.append("--allow-boundary-parallel")
    else:
        doc, weights = random_surface_doc(rng)
        surface = os.path.join(workdir, f"surface{index}.json")
        q["doc"], q["surface"] = doc, surface
        _write_json(surface, doc)
        if kind == "solve":
            q["max"], q["positive"] = rng.randint(2, 3), rng.random() < 0.3
            argv = ["weights", "solve", f"--input={surface}", f"--max={q['max']}"]
            if q["positive"]:
                argv.append("--positive")
        elif kind in ("check", "euler"):
            if kind == "check" and rng.random() < 0.5:
                sid = rng.choice(sorted(weights))
                weights[sid] += 1
            q["weights"] = weights
            path = os.path.join(workdir, f"weights{index}.json")
            _write_json(path, weights)
            argv = ["weights", kind, f"--input={surface}", f"--weights={path}"]
        elif kind == "amputate":
            ids = [s["id"] for s in doc["sectors"]]
            q["removed"] = sorted(rng.sample(ids, rng.randint(1, 2)))
            argv = ["amputate", f"--input={surface}", "--sectors=" + ",".join(q["removed"])]
        else:
            argv = ["degree-check", f"--input={surface}"]
    q["argv"] = argv + [f"--format={fmt}"]
    return q


def _triple_from_text(text: str):
    return tuple(checks.parse_slope(part.strip()) for part in text.strip()[1:-1].split(","))


def _seifert_from_text(lines):
    header = next((i for i, ln in enumerate(lines) if ln.split()[:2] == ["k", "k1"]), None)
    rows = []
    for ln in lines[header + 1 :] if header is not None else ():
        if ln.startswith(("note:", "verdict:")):
            break
        k, k1, k2, sk, d, edge, coprime = ln.split()
        rows.append((k, k1, k2, sk, d, edge == "yes", coprime == "yes"))
    normalized = next(ln for ln in lines if ln.startswith("normalized: "))[12:]
    verdict = next(ln for ln in lines if ln.startswith("verdict: "))[9:]
    return normalized, rows, verdict


def check_cli_output(q: dict, out: str) -> bool:
    """Check one CLI report, text or JSON, against the query that produced it."""
    kind, js = q["kind"], q["fmt"] == "json"
    doc = json.loads(out) if js else None
    lines = out.splitlines()
    a, b = q.get("a"), q.get("b")
    if kind in ("successor", "neighbor", "mediant"):
        value = checks.parse_slope(doc[kind] if js else lines[0])
        if kind == "successor":
            return checks.check_successor(a, value)
        if kind == "neighbor":
            return checks.check_neighbor(a, b, value)
        return value == reduced(a[0] + b[0], a[1] + b[1])
    if kind == "path":
        parts = doc["path"] if js else lines[0].split(", ")
        return checks.check_path(a, b, [checks.parse_slope(p) for p in parts])
    if kind == "edge":
        value = doc["edge"] if js else {"true": True, "false": False}[lines[0]]
        return value is (abs(checks.det(a, b)) == 1)
    if kind == "intersection":
        return int(doc["intersection"] if js else lines[0]) == abs(checks.det(a, b))
    if kind == "seifert":
        if js:
            raw = [
                (r["k"], r["k1"], r["k2"], r["s_k"], r["determinant"], r["edge"], r["coprime"])
                for r in doc["rows"]
            ]
            normalized, verdict = doc["normalized"], doc["verdict"]
        else:
            normalized, raw, verdict = _seifert_from_text(lines)
        rows = [
            (Fraction(k), int(k1), int(k2), checks.parse_slope(sk), int(d), e, c)
            for k, k1, k2, sk, d, e, c in raw
        ]
        return checks.check_analysis(
            q["triple"], q["kmax"], _triple_from_text(normalized), rows, verdict
        )
    if kind == "multicurve":
        texts = doc["coordinates"] if js else lines[:-1]
        count = doc["count"] if js else int(lines[-1].removeprefix("count: "))
        coords = [
            tuple(int(v) for v in t.strip("()").replace("|", ",").split(",")) for t in texts
        ]
        return count == len(coords) and checks.check_multicurves(q["k"], q["allow"], coords)
    surface = q["doc"]
    ids = [s["id"] for s in surface["sectors"]]
    index = {sid: i for i, sid in enumerate(ids)}
    curves = [(index[c["out1"]], index[c["out2"]], index[c["in"]]) for c in surface["branch_curves"]]
    if kind == "solve":
        if js:
            sectors = doc["sectors"]
            sols = [tuple(w[sid] for sid in ids) for w in doc["solutions"]]
            count = doc["count"]
        else:
            sectors = lines[0].removeprefix("sectors: ").split(", ")
            sols = [tuple(int(v) for v in ln.strip("()").split(", ")) for ln in lines[1:-1]]
            count = int(lines[-1].removesuffix(" solution(s)"))
        lo = 1 if q["positive"] else 0
        return (
            sectors == ids
            and count == len(sols)
            and checks.check_weight_solutions(len(ids), curves, lo, q["max"], sols)
        )
    if kind == "check":
        valid = checks.branch_ok(curves, [q["weights"][sid] for sid in ids])
        return (doc["valid"] if js else {"valid": True, "invalid": False}[lines[0]]) is valid
    if kind == "euler":
        chi = sum(q["weights"][s["id"]] * s["cusped_euler"] for s in surface["sectors"])
        return int(doc["carried_euler"] if js else lines[0]) == chi
    if kind == "amputate":
        expected = checks.amputated(surface, set(q["removed"]))
        return doc == expected if js else lines == checks.amputated_text(expected)
    expected = checks.degree_violations(surface["vertical_annuli"])
    if js:
        if doc["annuli"] != len(surface["vertical_annuli"]):
            return False
        lines = doc["violations"]
    elif not expected:
        return lines == ["no violations"]
    return [ln.split(":")[0].removeprefix("annulus ") for ln in lines] == expected


class CliMix:
    """Fresh `python -m slopecalc.cli` processes over every subcommand.

    Its reference is a `python -c pass` process, scaled to 50 ms: process
    start-up drifts differently from in-process code.
    """

    root = "cli.process"
    warmup = 3
    ROUNDS = 6
    REF_NS = 50_000_000

    def __init__(self, src: str):
        self.env = dict(os.environ, PYTHONPATH=src)

    def reference_ns(self) -> int:
        start = perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True, timeout=60)
        return perf_counter_ns() - start

    def build(self, rng, workdir):
        pool = []
        for r in range(self.ROUNDS):
            for j, kind in enumerate(CLI_KINDS):
                fmt = ("text", "json")[(r + j) % 2]
                pool.append(cli_query(rng, kind, fmt, len(pool), workdir))
        return pool

    def run(self, op):
        proc = subprocess.run(
            [sys.executable, "-m", "slopecalc.cli", *op["argv"]],
            env=self.env, capture_output=True, text=True, timeout=60,
        )
        return proc.returncode, proc.stdout

    def check(self, op, result):
        code, out = result
        return code == 0 and check_cli_output(op, out)

    def canon(self, op, result):
        return result[1]


def make_workload(name: str, src: str):
    if name == "cli-mix":
        return CliMix(src)
    return {"arith": Arith, "enumerate": Enumerate}[name]()
