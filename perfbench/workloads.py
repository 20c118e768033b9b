"""The four workloads: seeded query lists and the checks on every answer.

A workload is a fixed list of queries that the runner repeats in whole
rounds.  The seed picks the inputs (sizes inside narrow windows, flip
strings, simulation seeds, the order of the list) so that every seed asks
for about the same amount of work; see README.md for the make-up of each
list.  Every answer is checked against oracle.py, never against a stored
copy of coinduel's own output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import oracle
from coinduel import cli, core, excursions, montecarlo, verify

ASYM_C = 0.5 / math.sqrt(math.pi)


class CheckFailed(Exception):
    """An answer disagreed with the independent computation."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Query:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    # span the traced run opens around the query
    span: str = "query"


@dataclass
class Workload:
    queries: list[Query]
    # checks across the answers of one round, keyed by query label
    round_checks: list[Callable[[dict[str, Any]], None]] = field(default_factory=list)


def _cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.dispatch(argv)
    if rc != 0:
        raise RuntimeError(f"coinduel {' '.join(argv)} exited with {rc}")
    return buf.getvalue()


def _cli_query(argv: list[str], check: Callable[[Any], None]) -> Query:
    return Query(" ".join(argv), lambda: _cli(argv), check)


# ------------------------------------------------------------ exact-fair


def _exact_law_check(n: int, want: tuple[Fraction, Fraction, Fraction], label: str):
    def check(text: str) -> None:
        doc = json.loads(text)
        pA, pB, pTie = (Fraction(doc[k]) for k in ("pA", "pB", "pTie"))
        expect((pA, pB, pTie) == want, f"{label}: law differs from the reference")
        expect(pA + pB + pTie == 1, f"{label}: pA + pB + pTie != 1")
        expect(Fraction(doc["diff"]) == pB - pA, f"{label}: diff != pB - pA")
        if n >= 3 and Fraction(doc["p"]) == Fraction(1, 2):
            expect(pB > pA, f"{label}: pB <= pA at p = 1/2")

    return check


def _diff_check(want: Fraction, label: str):
    def check(text: str) -> None:
        expect(Fraction(json.loads(text)["diff"]) == want, f"{label}: diff differs from the reference")

    return check


def _renewal_check(m_to: int, label: str):
    counts = oracle.count_rx_series(m_to)

    def check(text: str) -> None:
        rows = json.loads(text)["rows"]
        expect(len(rows) == m_to, f"{label}: {len(rows)} rows")
        for row in rows:
            m = row["m"]
            exact_pi = Fraction(counts[m], 1 << (m - 1))
            expect(row["count_rx"] == counts[m], f"{label}: count_rx({m}) off the recurrence")
            expect(Fraction(row["pi_exact"]) == exact_pi, f"{label}: pi_exact({m})")
            # the float column sums m/3 gammaln terms
            expect(
                math.isclose(row["pi_float"], float(exact_pi), rel_tol=1e-9, abs_tol=1e-300),
                f"{label}: pi_float({m}) = {row['pi_float']} against {float(exact_pi)}",
            )

    return check


def _stored_law(ref: dict, n: int) -> tuple[Fraction, Fraction, Fraction]:
    below, equal, above = (int(v) for v in ref["exact_fair_counts"][str(n)])
    den = 1 << n
    return Fraction(below, den), Fraction(above, den), Fraction(equal, den)


def _table_check(n_from: int, n_to: int, step: int, rows_ref: dict, label: str):
    def check(text: str) -> None:
        rows = json.loads(text)["rows"]
        ns = list(range(n_from, n_to + 1, step))
        expect([r["n"] for r in rows] == ns, f"{label}: rows at the wrong n")
        for row in rows:
            n = row["n"]
            want = rows_ref[n]
            got = [row[k] for k in ("pA", "pB", "pTie", "diff")]
            # both sides round the same exact rationals once
            expect(got == want, f"{label}: row n={n} is {got}, reference {want}")
            expect(
                math.isclose(row["diff_asym"], ASYM_C / math.sqrt(n), rel_tol=1e-14)
                and math.isclose(row["tie_asym"], 2 * ASYM_C / math.sqrt(n), rel_tol=1e-14),
                f"{label}: asymptotic columns at n={n}",
            )

    return check


def exact_fair(seed: int, ref: dict) -> Workload:
    rng = random.Random(seed)
    queries = []

    def jitter() -> int:
        return rng.randrange(4)

    # light end, one cluster of similar latency so that the median query
    # lands inside it whatever the seed
    for n, p in [(6, "1/2"), (8, "1/2"), (10, "1/2"), (12, "1/2"),
                 (10, "3/5"), (10, "2/5"), (12, "3/5"), (12, "2/5"), (16, "1/2")]:
        label = f"exact --n {n} --p {p}"
        want = oracle.brute_law(n, Fraction(p))
        queries.append(_cli_query(label.split(), _exact_law_check(n, want, label)))
    label = "exact --n 20"
    queries.append(_cli_query(label.split(), _exact_law_check(20, oracle.law(20, Fraction(1, 2)), label)))
    for n in (10, 20, 30, 50, 200):
        label = f"dp --n {n}"
        queries.append(_cli_query(label.split(), _exact_law_check(n, oracle.law(n, Fraction(1, 2)), label)))
    for n, method in ((10, "renewal"), (20, "renewal"), (30, "renewal"), (200, "renewal"), (18, "enum")):
        pA, pB, _ = oracle.law(n, Fraction(1, 2))
        label = f"diff --n {n} --method {method}"
        queries.append(_cli_query(label.split(), _diff_check(pB - pA, label)))
    for m in (20, 30, 100):
        label = f"renewal --m-to {m}"
        queries.append(_cli_query(label.split(), _renewal_check(m, label)))

    # heavy end: the rational DP and the renewal convolution
    n = oracle.EXACT_FAIR_DP_N[jitter()]
    queries.append(_cli_query(["dp", "--n", str(n)],
                              _exact_law_check(n, _stored_law(ref, n), f"dp --n {n}")))
    for window, method in ((oracle.EXACT_FAIR_DIFF_DP_N, "dp"), (oracle.EXACT_FAIR_RENEWAL_N, "renewal")):
        n = window[jitter()]
        pA, pB, _ = _stored_law(ref, n)
        queries.append(_cli_query(["diff", "--n", str(n), "--method", method],
                                  _diff_check(pB - pA, f"diff --n {n} --method {method}")))
    m = 700 + jitter()
    queries.append(_cli_query(["renewal", "--m-to", str(m)], _renewal_check(m, f"renewal --m-to {m}")))
    j = jitter()
    n_from, n_to = oracle.EXACT_FAIR_TABLE_N[0] + j, oracle.EXACT_FAIR_TABLE_N[-1] + j
    rows_ref = {int(k): v for k, v in ref["exact_fair_table"].items()}
    label = f"table --n-from {n_from} --n-to {n_to} --step 100"
    queries.append(_cli_query(label.split(), _table_check(n_from, n_to, 100, rows_ref, label)))

    rng.shuffle(queries)
    return Workload(queries)


# ---------------------------------------------------------- float-biased


def _float_doc(text: str, label: str) -> dict:
    doc = json.loads(text)
    total = doc["pA"] + doc["pB"] + doc["pTie"]
    expect(abs(total - 1.0) <= doc["rounding_bound"], f"{label}: pA + pB + pTie = {total!r}")
    return doc


def _float_ref_check(p: Fraction, n: int, ref: dict, label: str):
    want = [Fraction(v) for v in ref["float_laws"][f"{p.numerator}/{p.denominator}:{n}"]]

    def check(text: str) -> None:
        doc = _float_doc(text, label)
        for key, exact_value in zip(("pA", "pB", "pTie"), want):
            err = abs(Fraction(doc[key]) - exact_value)
            expect(err <= Fraction(doc["rounding_bound"]),
                   f"{label}: {key} off the exact law by {float(err):.3g}")

    return check


def _sqrt_laws(n: int, diff: float, tie: float, label: str) -> None:
    root = math.sqrt(n)
    gap_ratio = diff * root / ASYM_C
    tie_ratio = tie * root / (2 * ASYM_C)
    expect(0.9 <= gap_ratio <= 1.1 and 0.9 <= tie_ratio <= 1.1,
           f"{label}: sqrt(n) ratios {gap_ratio:.4f}, {tie_ratio:.4f}")


def _heavy_float_check(p: str, n: int, label: str):
    def check(text: str) -> None:
        doc = _float_doc(text, label)
        if p == "0.6":
            expect(doc["pA"] > doc["pB"], f"{label}: pA <= pB at p = 0.6")
        elif p == "0.4":
            expect(doc["pB"] > doc["pA"], f"{label}: pB <= pA at p = 0.4")
        else:
            _sqrt_laws(n, doc["diff"], doc["pTie"], label)

    return check


def _float_table_check(n_from: int, n_to: int, step: int, label: str):
    def check(text: str) -> None:
        rows = json.loads(text)["rows"]
        expect([r["n"] for r in rows] == list(range(n_from, n_to + 1, step)),
               f"{label}: rows at the wrong n")
        for row in rows:
            n = row["n"]
            total = row["pA"] + row["pB"] + row["pTie"]
            expect(row["method"] == "dp-float" and abs(total - 1.0) < 1e-9,
                   f"{label}: row n={n} sums to {total!r}")
            if n >= 10**4:
                _sqrt_laws(n, row["diff"], row["pTie"], f"{label} row n={n}")

    return check


def float_biased(seed: int, ref: dict) -> Workload:
    rng = random.Random(seed)
    queries = []
    rising = []

    # light end: n <= 2000, each against the exact law at the same rational p
    for p in oracle.FLOAT_CHECK_P:
        text = str(float(p))
        for n in oracle.FLOAT_CHECK_N:
            label = f"dp --n {n} --p {text} --mode float"
            queries.append(_cli_query(label.split(), _float_ref_check(p, n, ref, label)))
            if text == "0.6":
                rising.append((n, label))

    # heavy end: half at p = 0.6, where much of the band is subnormal
    heavy = [("0.6", base) for base in (5000, 6000, 7000, 8000, 9000)]
    heavy += [("0.4", 5000), ("0.4", 9000), ("0.5", 10000), ("0.5", 11000)]
    for p, base in heavy:
        n = base + rng.randrange(20)
        label = f"dp --n {n} --p {p} --mode float"
        queries.append(_cli_query(label.split(), _heavy_float_check(p, n, label)))
        if p == "0.6":
            rising.append((n, label))
    j = rng.randrange(20)
    label = f"table --n-from {5000 + j} --n-to {11000 + j} --step 1000"
    queries.append(_cli_query(label.split(), _float_table_check(5000 + j, 11000 + j, 1000, label)))

    def pa_rises(answers: dict[str, Any]) -> None:
        # from n = 5000 on pA rounds to 1, so the rise shows in 1 - pA = pB + pTie
        docs = [json.loads(answers[label]) for _, label in sorted(rising) if label in answers]
        rest = [d["pB"] + d["pTie"] for d in docs]
        expect(all(x > y for x, y in zip(rest, rest[1:])), f"pA at p = 0.6 does not rise: 1 - pA = {rest}")

    rng.shuffle(queries)
    return Workload(queries, [pa_rises])


# ------------------------------------------------------------ stream-sim

_BITS = str.maketrans("HT", "10")
SHORT_STRINGS = 24
SHORT_FLIPS = 256


def _stream_queries(flips: str, tag: str, positions: list[int]) -> list[Query]:
    n = len(flips)
    seq = core.parse_sequence(flips)
    fwd_bits = int(flips[::-1].translate(_BITS), 2)
    rev_bits = int(flips.translate(_BITS), 2)
    series = oracle.running_scores(flips)
    final = series[-1]

    def check_parse(x):
        expect(x.length == n and x.bits == fwd_bits, f"parse_sequence {tag}")

    def check_reverse(x):
        # flip i of the reversal is flip n+1-i, so its bits read flips left to right
        expect(x.length == n and x.bits == rev_bits, f"reverse {tag}")

    def check_decompose(d):
        expect(d.serialize() == seq, f"decompose(x).serialize() != x {tag}")

    def check_position(pos):
        s = series[pos - 1]

        def check(cls):
            P = excursions.PositionClass
            ok = (cls is P.B_WINNING and s > 0) or (cls is P.A_WINNING and s < 0) or (
                cls in (P.INITIAL_TAILRUN, P.NEUTRAL_ZERO) and s == 0
            )
            expect(ok, f"classify_position at {pos} is {cls.value}, score {s} {tag}")

        return check

    queries = [
        Query(f"parse_sequence {tag}", lambda: core.parse_sequence(flips), check_parse),
        Query(f"str {tag}", lambda: str(seq), lambda t: expect(t == flips, f"str round trip {tag}")),
        Query(f"reverse {tag}", lambda: core.reverse(seq), check_reverse),
        Query(f"score {tag}", lambda: core.score(seq), lambda s: expect(s == final, f"score {tag}")),
        Query(f"score_series {tag}", lambda: core.score_series(seq),
              lambda s: expect(s == series, f"score_series {tag}")),
        Query(f"score_via_runs {tag}", lambda: core.score_via_runs(seq),
              lambda s: expect(s == final, f"score_via_runs {tag}")),
        Query(f"decompose {tag}", lambda: excursions.decompose(seq), check_decompose),
    ]
    for pos in positions:
        queries.append(Query(f"classify_position {pos} {tag}",
                             lambda pos=pos: excursions.classify_position(seq, pos),
                             check_position(pos)))
    return queries


def _within(estimate: float, exact: Fraction, stderr: float, what: str) -> None:
    expect(abs(estimate - float(exact)) <= 5 * stderr,
           f"{what}: {estimate} is more than 5 standard errors from {float(exact)}")


def _sim_query(n: int, p: str, trials: int, seed: int) -> Query:
    pA, pB, pTie = oracle.law(n, Fraction(p))
    config = montecarlo.SimConfig(n=n, trials=trials, seed=seed, p=float(p))
    label = f"simulate_game n={n} p={p} trials={trials}"

    def check(r):
        for estimate, exact_value in ((r.pA, pA), (r.pB, pB), (r.pTie, pTie)):
            q = float(exact_value)
            _within(estimate, exact_value, math.sqrt(q * (1 - q) / trials), label)

    return Query(label, lambda: montecarlo.simulate_game(config), check)


def _coupled_query(n: int, trials: int, seed: int) -> Query:
    pA, pB, _ = oracle.law(n, Fraction(1, 2))
    rate = float(2 * (pB - pA))  # hit probability of the coupled event
    label = f"coupled_diff_mc n={n} trials={trials}"

    def check(r):
        _within(r.estimate, pB - pA, 0.5 * math.sqrt(rate * (1 - rate) / trials), label)

    return Query(label, lambda: excursions.coupled_diff_mc(n, trials, seed), check)


def stream_sim(seed: int, ref: dict) -> Workload:
    rng = random.Random(seed)
    queries = []
    for n in (1000, 3000, 10000, 30000, 100000):
        flips = "".join(rng.choice("HT") for _ in range(n))
        queries += _stream_queries(flips, f"[{n} flips]", [rng.randint(1, n) for _ in range(2)])
    # the light end: more than half of all queries are core calls on short
    # strings, whose cost does not depend on the flips drawn; decompose and
    # classify_position do, so they stay with the long strings
    for i in range(SHORT_STRINGS):
        flips = "".join(rng.choice("HT") for _ in range(SHORT_FLIPS))
        queries += [
            q for q in _stream_queries(flips, f"[{SHORT_FLIPS} flips #{i}]", [])
            if q.label.split()[0] in ("parse_sequence", "str", "reverse", "score", "score_series")
        ]
    for n, p, trials in ((20, "0.5", 100000), (50, "0.6", 100000), (100, "0.4", 50000), (200, "0.5", 50000)):
        queries.append(_sim_query(n, p, trials, rng.randrange(2**32)))
    for n, trials in ((50, 20000), (200, 5000)):
        queries.append(_coupled_query(n, trials, rng.randrange(2**32)))
    rng.shuffle(queries)
    return Workload(queries)


# ------------------------------------------------------- verify-registry


def _verify_check(name: str):
    def check(result):
        ok, detail = result
        expect(ok is True, f"verify {name}: {detail}")

    return check


def verify_registry(seed: int, ref: dict) -> Workload:
    # the registry takes no input; the seed only orders it
    queries = [Query(name, fn, _verify_check(name), span=f"verify.{name}") for name, fn in verify.CHECKS]
    random.Random(seed).shuffle(queries)
    return Workload(queries)


BUILDERS = {
    "exact-fair": exact_fair,
    "float-biased": float_biased,
    "stream-sim": stream_sim,
    "verify-registry": verify_registry,
}
