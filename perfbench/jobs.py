"""The jobs of one benchmark pass, built from a seed, and their checks.

A workload is a fixed list of jobs.  `build` turns a workload name, a
seed and a scale into `Job` objects; running a job calls into the
`superspan` package and returns a JSON-able summary of the result, and
`Job.check` compares that summary with the reference in refs.json
(detect reports, written by make_refs.py) or with an invariant the
result must satisfy.

Detect jobs go through `superspan.cli.main(["detect", ...])`, the path
a `superspan detect` user takes, and are checked on everything
`ExceptionalReport.semantic_content` covers (confirmed tuples, subspace
bases, preimages, intersection counts) plus the input echo.  Diagnostics
are left out: the filter primes and filter counts change legitimately
when the filter does.  The seed of a detect workload is passed as
`--seed`, which picks the filter primes; the report it checks does not
depend on it.

The analysis workload never calls detect.  Its seed draws the
fingerprint tuple pairs and the primes q of the relation-lattice points
[1, 2q, 3, 6q].
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable, List

WORKLOADS = ("detect-sparse", "detect-growth", "detect-periodic", "analysis")
SCALES = ("full", "smoke")
REFS_PATH = Path(__file__).with_name("refs.json")

# Points as `superspan detect` takes them: a --field spec and coordinate
# arrays (constant term first).  The sextic is the worked example
# [alpha, -1-alpha, 1] over Q[x]/(x^6+3x^5+5/2x^4+5/2x^2+3x+1).
POINTS = {
    "2,3,5,7": ("rational", [["2"], ["3"], ["5"], ["7"]]),
    "1,2,3,6": ("rational", [["1"], ["2"], ["3"], ["6"]]),
    "1,2,-3": ("rational", [["1"], ["2"], ["-3"]]),
    "sextic": ("numberfield:1,3,5/2,0,5/2,3,1", [["0", "1"], ["-1", "-1"], ["1"]]),
    "1,z5,2,3": ("cyclotomic:5", [["1"], ["0", "1"], ["2"], ["3"]]),
    "1,z5,z5^2": ("cyclotomic:5", [["1"], ["0", "1"], ["0", "0", "1"]]),
    "1,z5,z5^2,z5^3": ("cyclotomic:5",
                       [["1"], ["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1"]]),
}

# workload -> [(point, r, M at full scale, M at smoke scale)], all d = 2.
# Full-scale sizes keep one pass between one and two seconds on one core,
# so a run of 30 s holds 13 to 22 passes.
DETECT_JOBS = {
    # generic points: the modular filter certifies (nearly) every tuple
    "detect-sparse": [("2,3,5,7", 3, 12, 5), ("1,2,3,6", 3, 12, 5),
                      ("1,z5,2,3", 3, 12, 6)],
    # super-spanned subspaces whose exact iterates double in bit size
    "detect-growth": [("1,2,-3", 2, 21, 5), ("sextic", 2, 10, 4)],
    # roots of unity: periodic orbit, the filter certifies few tuples
    "detect-periodic": [("1,z5,z5^2", 2, 9, 5), ("1,z5,z5^2,z5^3", 3, 7, 5)],
}

# analysis sizes per scale
ANALYSIS_SIZES = {
    "full": {"fingerprint_pairs": 150, "quadric_bound": 5, "cyclotomic_iter": 20,
             "relation_points": 2, "relation_q_low": 10 ** 12, "rank_drop": None},
    "smoke": {"fingerprint_pairs": 10, "quadric_bound": 4, "cyclotomic_iter": 8,
              "relation_points": 1, "relation_q_low": 10 ** 6, "rank_drop": 4},
}
RELATION_Q_SPAN = 10 ** 6  # q is drawn from [low, low + span): same work for every seed

# criterion-6 rank-drop instances: ell, d, zeta-exponents of the
# coordinates, tuple m, row t whose deletion drops the rank
RANK_DROP_SPECS = [
    (5, 2, (0, 1, 2), (0, 4, 5), 2),
    (5, 2, (0, 1, 2), (0, 3, 4), 1),
    (5, 2, (0, 1, 2), (2, 3, 7), 0),
    (5, 2, (0, 1, 2, 3), (0, 4, 5, 7), 3),
    (5, 2, (0, 1, 3), (1, 5, 6), 2),
    (5, 2, (0, 2, 3), (1, 2, 5), 1),
    (5, 3, (0, 1, 2), (0, 4, 7), 2),
    (5, 3, (0, 1, 4), (1, 2, 5), 1),
    (7, 2, (0, 1, 3), (0, 3, 4), 2),
    (7, 2, (0, 2, 3), (1, 4, 5), 2),
    (7, 2, (0, 1, 5), (2, 3, 6), 0),
    (7, 3, (0, 1, 2), (0, 6, 7), 2),
    (7, 3, (0, 2, 5), (1, 7, 9), 2),
    (11, 2, (0, 1, 5), (0, 10, 11), 2),
    (11, 2, (0, 3, 7), (1, 5, 11), 1),
    (5, 2, (0, 1, 2, 3), (0, 4, 5), 2),
    (5, 2, (0, 1, 2, 3), (1, 2, 5), 1),
    (7, 2, (0, 1, 2, 4), (0, 3, 5), 2),
    (5, 2, (0, 1, 2, 3), (1, 5, 6, 8), 3),
    (7, 2, (0, 1, 2, 4), (0, 3, 4, 5), 3),
    (7, 3, (0, 1, 3, 5), (0, 6, 7, 9), 3),
]

RELATION_BASIS = [[1, -1, -1, 1]]  # R([1, 2q, 3, 6q]) for any prime q > 3


@dataclass
class Job:
    """One call into the package.  `run` returns a JSON-able summary;
    `check` says whether that summary is correct."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]

    def digest(self, summary) -> str:
        text = summary if isinstance(summary, str) else json.dumps(summary, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()


def load_refs() -> dict:
    """Detect job name -> the semantic part of its report."""
    with open(REFS_PATH) as fh:
        return json.load(fh)


def detect_argv(point: str, r: int, M: int, seed: int) -> List[str]:
    spec, coords = POINTS[point]
    return ["detect", "--field", spec, "--point", json.dumps(coords),
            "--d", "2", "--r", str(r), "--max-iter", str(M), "--seed", str(seed)]


def detect_job_name(point: str, r: int, M: int) -> str:
    return f"detect[{point}] r={r} M={M}"


def semantic_part(doc: dict) -> dict:
    """The part of a detect report the reference pins down."""
    return {"input": doc["input"], "tuples": doc["tuples"], "subspaces": doc["subspaces"]}


def run_cli(ss, argv: List[str]) -> str:
    """Run the CLI and return what it writes to stdout; a nonzero exit
    code is a failure."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ss.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"superspan {' '.join(argv[:1])} exited with {code}")
    return out.getvalue()


def _detect_jobs(ss, workload: str, seed: int, scale: str, refs: dict) -> List[Job]:
    jobs = []
    for point, r, m_full, m_smoke in DETECT_JOBS[workload]:
        M = m_full if scale == "full" else m_smoke
        name = detect_job_name(point, r, M)
        argv = detect_argv(point, r, M, seed)
        expected = refs[name]

        def check(text, expected=expected):
            doc = json.loads(text)
            # the bytes must be the canonical encoding of the document
            canonical = json.dumps(doc, sort_keys=True, indent=2) + "\n"
            return text == canonical and semantic_part(doc) == expected

        jobs.append(Job(name, lambda argv=argv: run_cli(ss, argv), check))
    return jobs


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.4e14."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17)
    if n in small:
        return True
    if any(n % p == 0 for p in small):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sample_pairs(rng: random.Random, count: int):
    """Mixing-family pairs: two distinct increasing 3-tuples below 9."""
    pairs = []
    for _ in range(count):
        m1 = tuple(sorted(rng.sample(range(9), 3)))
        m2 = m1
        while m2 == m1:
            m2 = tuple(sorted(rng.sample(range(9), 3)))
        pairs.append((m1, m2))
    return pairs


def _sample_bullet_pairs(rng: random.Random, count: int):
    """Bullet-family pairs: tuples that differ only in position t."""
    pairs = []
    for _ in range(count):
        t = rng.randrange(3)
        while True:
            m1 = sorted(rng.sample(range(9), 3))
            lo = m1[t - 1] + 1 if t > 0 else 0
            hi = m1[t + 1] if t < 2 else 9
            alternatives = [v for v in range(lo, hi) if v != m1[t]]
            if alternatives:
                break
        m2 = list(m1)
        m2[t] = rng.choice(alternatives)
        pairs.append((t, tuple(m1), tuple(m2)))
    return pairs


def _analysis_jobs(ss, seed: int, scale: str) -> List[Job]:
    sizes = ANALYSIS_SIZES[scale]
    rng = random.Random(seed)
    jobs = []

    # fingerprints of [1,2,3], d = 2: a mixing family (not exceptional)
    # separates every pair, a bullet family at t merges tuples differing
    # only at position t
    P123 = ss.ProjPoint.rational([1, 2, 3])
    selections = ss.column_selections(2, 2)
    mixing = ss.TermPartition.from_blocks(
        2, [[(0, 1, 2), (1, 2, 0)], [(0, 2, 1), (1, 0, 2)], [(2, 0, 1), (2, 1, 0)]])
    mixing_family = {p: mixing for p in selections}
    bullet_families = [{p: ss.bullet_partition(2, t) for p in selections} for t in range(3)]
    mixing_pairs = _sample_pairs(rng, sizes["fingerprint_pairs"])
    bullet_pairs = _sample_bullet_pairs(rng, sizes["fingerprint_pairs"])

    def fingerprint_mixing():
        fp = ss.subsum.fingerprint
        return {"pairs": len(mixing_pairs),
                "collisions": sum(fp(P123, 2, m1, mixing_family) == fp(P123, 2, m2, mixing_family)
                                  for m1, m2 in mixing_pairs)}

    def fingerprint_bullet():
        fp = ss.subsum.fingerprint
        return {"pairs": len(bullet_pairs),
                "collisions": sum(fp(P123, 2, m1, bullet_families[t])
                                  == fp(P123, 2, m2, bullet_families[t])
                                  for t, m1, m2 in bullet_pairs)}

    jobs.append(Job("fingerprint mixing", fingerprint_mixing,
                    lambda s: s["collisions"] == 0))
    jobs.append(Job("fingerprint bullet", fingerprint_bullet,
                    lambda s: s["collisions"] == s["pairs"]))

    # the quadric probe on [1,6,2,3]: no counterexample, exact check count
    bound = sizes["quadric_bound"]
    quadric_point = ss.ProjPoint.rational([1, 6, 2, 3])
    expected_checked = quadric_checked(bound)

    def quadric():
        report = ss.constructions.quadric_case_probe(quadric_point, 2, bound)
        return {"checked": report["checked"], "counterexamples": report["counterexamples"]}

    jobs.append(Job(f"quadric bound={bound}", quadric,
                    lambda s: s["counterexamples"] == [] and s["checked"] == expected_checked))

    cyclotomic_iter = sizes["cyclotomic_iter"]
    jobs.append(Job(
        f"cyclotomic family max_iter={cyclotomic_iter}",
        lambda: ss.constructions.verify_cyclotomic_family(2, 5, (2, 3), cyclotomic_iter),
        lambda s: len(s["checks"]) == 2 and all(c["pass"] for c in s["checks"])))

    # relation lattices of [1, 2q, 3, 6q]: trial division makes the cost
    # depend on the size of q, so q comes from a narrow range
    low = sizes["relation_q_low"]
    qs = []
    while len(qs) < sizes["relation_points"]:
        q = rng.randrange(low, low + RELATION_Q_SPAN)
        if is_prime(q) and q not in qs:
            qs.append(q)
    for q in qs:
        point = ss.ProjPoint.rational([1, 2 * q, 3, 6 * q])
        jobs.append(Job(
            f"relation lattice q={q}",
            lambda point=point: ss.jsonio.encode_lattice(ss.relations.relation_lattice(point)),
            lambda s: s["basis"] == RELATION_BASIS))

    # criterion-6 rank-drop instances: every bullet block sum at t
    # vanishes, the finest zero partition is exceptional for t (searched
    # for r <= 2 only: r = 3 has 24 terms and the search takes minutes),
    # and deleting row t drops the rank to r - 1
    specs = RANK_DROP_SPECS[:sizes["rank_drop"]]
    for ell, d, exps, m, t in specs:
        C = ss.cyclotomic_field(ell)
        z = C.gen()
        P = ss.ProjPoint(C, [z ** e if e else C.one() for e in exps])
        r = len(m) - 1

        def rank_drop(P=P, d=d, m=m, t=t, r=r):
            summary = {"bullet_vanishes": True, "exceptional_for": []}
            for p in ss.column_selections(r, P.dim):
                tv = ss.subsum.det_terms(P, d, m, p)
                if any(tv.block_sum(block) for block in ss.bullet_partition(r, t).blocks):
                    summary["bullet_vanishes"] = False
                if r <= 2:
                    found = ss.subsum.finest_zero_partition(tv)
                    summary["exceptional_for"].append(
                        sorted(ss.classify_exceptional(found.partition)))
            A = ss.iterate_matrix(P, d, m)
            summary["deleted_row_rank"] = ss.subsum.deleted_row_rank(A, t)
            return summary

        def check(s, t=t, r=r):
            return (s["bullet_vanishes"] and s["deleted_row_rank"] == r - 1
                    and all(t in ts for ts in s["exceptional_for"]))

        jobs.append(Job(f"rank drop ell={ell} d={d} {exps} m={m} t={t}", rank_drop, check))
    return jobs


def build(ss, workload: str, seed: int, scale: str = "full") -> List[Job]:
    """The jobs of one pass.  `ss` is the imported `superspan` package."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    if workload == "analysis":
        return _analysis_jobs(ss, seed, scale)
    return _detect_jobs(ss, workload, seed, scale, load_refs())


def quadric_checked(bound: int) -> int:
    """Checks the quadric probe makes: ordered pairs of distinct
    increasing 4-tuples with entries <= bound, times |S_4|^2."""
    tuples = len(list(combinations(range(bound + 1), 4)))
    return tuples * (tuples - 1) * 24 * 24
