"""Reference values for the benchmark, computed apart from coinduel.

Nothing here imports coinduel.  The three computations are

* a brute-force scorer that walks every H/T string of length n, counts its
  overlapping HH and HT pairs, and weights it by p^h q^(n-h);
* a forward count over (last flip, score) states kept in dicts, which is
  checked against the brute-force scorer on every run of this file;
* the linear recurrence for count_rx that follows from its algebraic
  generating function, checked against brute-force counts.

Values the benchmark cannot afford to recompute on every run (the exact
laws at n in the thousands, at p = 1/2, 3/5 and 2/5) are stored in
reference.json.  Run ``python3 perfbench/oracle.py`` to make that file
again and ``python3 perfbench/oracle.py --check`` to compare the stored
file with a fresh computation.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# n at which the stored laws are kept; the workloads draw their sizes from
# these windows, so a change here needs a new reference.json
EXACT_FAIR_DP_N = range(1400, 1404)
EXACT_FAIR_DIFF_DP_N = range(1000, 1004)
EXACT_FAIR_RENEWAL_N = range(800, 804)
EXACT_FAIR_TABLE_N = tuple(range(100, 1501, 100))
FLOAT_CHECK_N = (250, 500, 750, 1000, 1250, 1500, 1750, 2000)
FLOAT_CHECK_P = (Fraction(1, 2), Fraction(3, 5), Fraction(2, 5))

# decimal digits kept for a law that is only compared against floats
_FLOAT_REF_DIGITS = 40


def pair_score(flips: str) -> int:
    """#HT - #HH over the overlapping pairs of an H/T string."""
    score = 0
    for a, b in zip(flips, flips[1:]):
        if a == "H":
            score += 1 if b == "T" else -1
    return score


def running_scores(flips: str) -> list[int]:
    """[S_1, ..., S_n] for an H/T string, one pair at a time."""
    out = [0]
    for a, b in zip(flips, flips[1:]):
        step = 0
        if a == "H":
            step = 1 if b == "T" else -1
        out.append(out[-1] + step)
    return out


def brute_law(n: int, p: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """(pA, pB, pTie) by walking all 2^n strings."""
    q = 1 - p
    # strings by (sign of the score, number of heads); each weighs p^h q^(n-h)
    tally: dict[tuple[int, int], int] = {}
    for letters in itertools.product("HT", repeat=n):
        flips = "".join(letters)
        s = pair_score(flips)
        key = ((s > 0) - (s < 0), flips.count("H"))
        tally[key] = tally.get(key, 0) + 1
    mass = {-1: Fraction(0), 0: Fraction(0), 1: Fraction(0)}
    for (sign, h), count in tally.items():
        mass[sign] += count * p**h * q ** (n - h)
    return mass[-1], mass[1], mass[0]


def brute_count_rx(m: int) -> int:
    """Strings of length m that end HT and score 0, by walking all 2^m."""
    return sum(
        1
        for letters in itertools.product("HT", repeat=m)
        if letters[-2:] == ("H", "T") and pair_score("".join(letters)) == 0
    )


def law_counts(n_max: int, p: Fraction, wanted) -> dict[int, tuple[int, int, int]]:
    """Integer weights (below, equal, above) of S_n for each n in wanted.

    Weights use p = a/d as a for H and d - a for T, so row n sums to d^n.
    The state after k flips maps (last flip, score) to a weight.
    """
    a = p.numerator
    c = p.denominator - a
    wanted = set(wanted)
    states = {("H", 0): a, ("T", 0): c}
    out = {}
    for k in range(1, n_max + 1):
        if k > 1:
            nxt: dict[tuple[str, int], int] = {}
            for (last, s), w in states.items():
                # the next flip closes the pair (last, next)
                hs = s - 1 if last == "H" else s
                ts = s + 1 if last == "H" else s
                nxt[("H", hs)] = nxt.get(("H", hs), 0) + w * a
                nxt[("T", ts)] = nxt.get(("T", ts), 0) + w * c
            states = nxt
        if k in wanted:
            below = sum(w for (_, s), w in states.items() if s < 0)
            equal = sum(w for (_, s), w in states.items() if s == 0)
            above = sum(w for (_, s), w in states.items() if s > 0)
            out[k] = (below, equal, above)
    return out


def law(n: int, p: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """(pA, pB, pTie) at one n from law_counts."""
    below, equal, above = law_counts(n, p, (n,))[n]
    den = p.denominator**n
    return Fraction(below, den), Fraction(above, den), Fraction(equal, den)


def count_rx_series(m_max: int) -> list[int]:
    """count_rx(0..m_max) from the recurrence for y_m = 2 count_rx(m), y_0 = 1:

    (m+1) y_{m+1} = 2m y_m - (m-1) y_{m-1} + (4m-2) y_{m-2} - (4m-8) y_{m-3}.
    Index 0 holds 0, since count_rx starts at m = 1.
    """
    y = [1, 0, 0, 2]
    for m in range(3, m_max):
        num = 2 * m * y[m] - (m - 1) * y[m - 1] + (4 * m - 2) * y[m - 2] - (4 * m - 8) * y[m - 3]
        y.append(num // (m + 1))
    return [0] + [v // 2 for v in y[1 : m_max + 1]]


def _decimal_text(value: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = _FLOAT_REF_DIGITS
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def self_check() -> None:
    """Tie the dict count and the recurrence to the brute-force scorer."""
    for p in FLOAT_CHECK_P:
        for n in range(1, 11):
            if law(n, p) != brute_law(n, p):
                raise SystemExit(f"law_counts disagrees with brute force at n={n}, p={p}")
    series = count_rx_series(16)
    for m in range(1, 17):
        if series[m] != brute_count_rx(m):
            raise SystemExit(f"count_rx recurrence disagrees with brute force at m={m}")


def build_reference() -> dict:
    half = Fraction(1, 2)
    exact_n = sorted({*EXACT_FAIR_DP_N, *EXACT_FAIR_DIFF_DP_N, *EXACT_FAIR_RENEWAL_N})
    table_n = sorted({n + j for n in EXACT_FAIR_TABLE_N for j in range(4)})
    counts = law_counts(max(exact_n + table_n), half, exact_n + table_n)
    exact_fair = {str(n): [str(v) for v in counts[n]] for n in exact_n}
    table = {}
    for n in table_n:
        below, equal, above = counts[n]
        den = 1 << n
        table[str(n)] = [
            float(Fraction(below, den)),
            float(Fraction(above, den)),
            float(Fraction(equal, den)),
            float(Fraction(above - below, den)),
        ]
    float_laws = {}
    for p in FLOAT_CHECK_P:
        rows = law_counts(max(FLOAT_CHECK_N), p, FLOAT_CHECK_N)
        for n, (below, equal, above) in rows.items():
            den = p.denominator**n
            float_laws[f"{p.numerator}/{p.denominator}:{n}"] = [
                _decimal_text(Fraction(v, den)) for v in (below, above, equal)
            ]
    return {
        "about": "made by perfbench/oracle.py; see its docstring",
        "exact_fair_counts": exact_fair,
        "exact_fair_table": table,
        "float_laws": float_laws,
    }


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true", help="compare reference.json with a fresh computation"
    )
    args = parser.parse_args()
    self_check()
    fresh = build_reference()
    if args.check:
        if load_reference() != fresh:
            print("reference.json differs from a fresh computation", file=sys.stderr)
            return 1
        print("reference.json matches a fresh computation")
        return 0
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(fresh, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
