"""Command-line entry point.

Subcommands: exact, dp, mc, renewal, diff, asym, decompose, table, walk,
verify.  Output is JSON by default; `table` and `renewal` sweeps also take
--format csv.  Exact rationals are serialized as "num/den" strings, floats
with 17 significant digits so they round-trip, and every probability field
is tagged with the method that produced it:

  enum        exhaustive enumeration (exact)
  dp-exact    rational forward DP (exact)
  dp-float    float forward DP (dp --mode float up to n = 4096, table above
              that); carries rounding_bound
  fft-float   saddle-tilted transform (dp --mode float above n = 4096);
              carries rounding_bound
  recurrence  the fair-coin recurrence, each row rounded once (table)
  renewal     the count_rx recurrence and the renewal convolution
  asym        leading-order sqrt(n) laws
  mc          seeded simulation

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .exact import (
    DP_EXACT_MAX_N,
    FloatDistribution,
    _dp_float_bands,
    _float_sign_sums,
    dp_distribution,
    enumerate_distribution,
    transform_distribution,
)
from .excursions import decompose
from .core import parse_sequence
from .montecarlo import DEFAULT_BATCH_SIZE, SimConfig, simulate_game
from .renewal import asymptotics, fair_scan, renewal_diff, renewal_table, tailwalk
from .verify import run_all


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _float_text(value: float) -> str:
    return format(value, ".17g")


def _json_text(value) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _float_text(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, Fraction):
        return json.dumps(_frac(value))
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_json_text(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_json_text(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _emit(record: dict) -> None:
    print(_json_text(record))


def _law_record(command: str, method: str, dist) -> dict:
    """The outcome law of one solver run; floats also carry their error bound."""
    record = {
        "command": command,
        "method": method,
        "n": dist.n,
        "p": dist.p,
        "pA": dist.pA,
        "pB": dist.pB,
        "pTie": dist.pTie,
        "diff": dist.diff,
    }
    if isinstance(dist, FloatDistribution):
        record["rounding_bound"] = dist.rounding_bound
    return record


def _cmd_exact(args) -> int:
    _emit(_law_record("exact", "enum", enumerate_distribution(args.n, Fraction(args.p))))
    return 0


def _cmd_dp(args) -> int:
    if args.mode == "float" and args.n > DP_EXACT_MAX_N:
        _emit(_law_record("dp", "fft-float", transform_distribution(args.n, Fraction(args.p))))
        return 0
    dist = dp_distribution(args.n, Fraction(args.p), mode=args.mode)
    _emit(_law_record("dp", f"dp-{args.mode}", dist))
    return 0


def _cmd_mc(args) -> int:
    config = SimConfig(
        n=args.n,
        trials=args.trials,
        seed=args.seed,
        p=float(Fraction(args.p)),
        batch_size=args.batch_size,
    )
    result = simulate_game(config)
    _emit(
        {
            "command": "mc",
            "method": "mc",
            "n": result.n,
            "p": result.p,
            "trials": result.trials,
            "seed": result.seed,
            "batch_size": config.batch_size,
            "wins_a": result.wins_a,
            "wins_b": result.wins_b,
            "ties": result.ties,
            "pA": result.pA,
            "pB": result.pB,
            "pTie": result.pTie,
            "stderr_a": result.stderr_a,
            "stderr_b": result.stderr_b,
            "stderr_tie": result.stderr_tie,
        }
    )
    return 0


def _cmd_renewal(args) -> int:
    table = renewal_table(args.m_from, args.m_to)
    if args.format == "csv":
        print("m,count_rx,pi_exact,pi_float")
        for m, count, pi_m in table.rows():
            print(f"{m},{count},{_frac(pi_m)},{_float_text(float(pi_m))}")
        return 0
    _emit(
        {
            "command": "renewal",
            "method": "renewal",
            "m_from": table.m_from,
            "m_to": table.m_to,
            "rows": [
                {
                    "m": m,
                    "count_rx": count,
                    "pi_exact": pi_m,
                    "pi_float": float(pi_m),
                }
                for m, count, pi_m in table.rows()
            ],
        }
    )
    return 0


def _cmd_diff(args) -> int:
    if args.method == "renewal":
        value, tag = renewal_diff(args.n), "renewal"
    elif args.method == "dp":
        value, tag = dp_distribution(args.n).diff, "dp-exact"
    else:
        value, tag = enumerate_distribution(args.n).diff, "enum"
    _emit(
        {
            "command": "diff",
            "method": tag,
            "n": args.n,
            "p": "1/2",
            "diff": value,
        }
    )
    return 0


def _cmd_asym(args) -> int:
    report = asymptotics(args.n)
    _emit({"command": "asym", "method": "asym", **report.to_dict()})
    return 0


def _cmd_decompose(args) -> int:
    seq = parse_sequence(args.sequence)
    _emit({"command": "decompose", "sequence": str(seq), **decompose(seq).to_dict()})
    return 0


def _table_laws(n_from: int, n_to: int, step: int):
    """(n, method, pA, pB, pTie, diff) at n = n_from, n_from + step, ... <= n_to.

    One forward pass covers the whole sweep: the fair-coin recurrence, each
    requested row rounded once from its exact counts, while in exact reach;
    above that the float DP, which runs once to n_to and sums the sign
    classes of the printed rows only.
    """
    if n_to <= DP_EXACT_MAX_N:
        for n, below, equal, above in fair_scan(n_to):
            if n >= n_from and (n - n_from) % step == 0:
                den = 1 << n
                yield n, "recurrence", below / den, above / den, equal / den, (above - below) / den
    else:
        for n, h, t in _dp_float_bands(n_to, 0.5, range(n_from, n_to + 1, step)):
            below, equal, above = _float_sign_sums(h, t, n)
            yield n, "dp-float", below, above, equal, above - below


def _table_rows(n_from: int, n_to: int, step: int):
    for n, method, pA, pB, pTie, diff in _table_laws(n_from, n_to, step):
        report = asymptotics(n)
        yield {
            "n": n,
            "method": method,
            "pA": pA,
            "pB": pB,
            "pTie": pTie,
            "diff": diff,
            "tie_asym": report.tie_approx,
            "diff_asym": report.diff_approx,
        }


def _cmd_table(args) -> int:
    if args.n_from < 1 or args.n_to < args.n_from or args.step < 1:
        raise ValueError("need 1 <= n-from <= n-to and step >= 1")
    rows = list(_table_rows(args.n_from, args.n_to, args.step))
    if args.format == "csv":
        print("n,pA,pB,pTie,diff,tie_asym,diff_asym")
        for row in rows:
            print(
                ",".join(
                    [str(row["n"])]
                    + [
                        _float_text(row[key])
                        for key in ("pA", "pB", "pTie", "diff", "tie_asym", "diff_asym")
                    ]
                )
            )
        return 0
    _emit(
        {
            "command": "table",
            "n_from": args.n_from,
            "n_to": args.n_to,
            "step": args.step,
            "asym_method": "asym",
            "rows": rows,
        }
    )
    return 0


def _cmd_walk(args) -> int:
    report = tailwalk(args.steps, args.seed)
    _emit(
        {
            "command": "walk",
            "method": "mc",
            "steps": report.steps,
            "seed": report.seed,
            "zero_hits": report.zero_hits,
            "sample_mean_jump": report.sample_mean_jump,
        }
    )
    return 0


def _cmd_verify(args) -> int:
    failures = 0
    total = 0

    def report(result):
        nonlocal failures, total
        total += 1
        status = "PASS" if result.ok else "FAIL"
        print(f"{status} {result.name}: {result.detail}", flush=True)
        if not result.ok:
            failures += 1

    run_all(report=report)
    print(f"{total - failures}/{total} invariants hold")
    return 0 if failures == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coinduel",
        description="Win/tie probabilities for the HH-vs-HT coin game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("exact", help="exhaustive enumeration (n <= 30)")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--p", default="1/2", help="head probability, e.g. 1/2 or 0.4")
    s.set_defaults(handler=_cmd_exact)

    s = sub.add_parser("dp", help="forward DP, exact rationals or floats")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--p", default="1/2")
    s.add_argument("--mode", choices=("exact", "float"), default="exact")
    s.set_defaults(handler=_cmd_dp)

    s = sub.add_parser("mc", help="simulate games with a seeded generator")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--p", default="1/2")
    s.add_argument("--batch-size", type=int, default=DEFAULT_BATCH_SIZE)
    s.set_defaults(handler=_cmd_mc)

    s = sub.add_parser("renewal", help="count_rx and pi over an m-range")
    s.add_argument("--m-from", type=int, default=1)
    s.add_argument("--m-to", type=int, required=True)
    s.add_argument("--format", choices=("json", "csv"), default="json")
    s.set_defaults(handler=_cmd_renewal)

    s = sub.add_parser("diff", help="pB - pA by any exact method")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--method", choices=("renewal", "dp", "enum"), default="renewal")
    s.set_defaults(handler=_cmd_diff)

    s = sub.add_parser("asym", help="leading-order sqrt(n) laws")
    s.add_argument("--n", type=int, required=True)
    s.set_defaults(handler=_cmd_asym)

    s = sub.add_parser("decompose", help="renewal parse of a sequence")
    s.add_argument("sequence", help="flips as a string of H/T")
    s.set_defaults(handler=_cmd_decompose)

    s = sub.add_parser("table", help="sweep n and emit solver vs asymptotics")
    s.add_argument("--n-from", type=int, required=True)
    s.add_argument("--n-to", type=int, required=True)
    s.add_argument("--step", type=int, default=1)
    s.add_argument("--format", choices=("json", "csv"), default="json")
    s.set_defaults(handler=_cmd_table)

    s = sub.add_parser("walk", help="simulate the tail-indexed walk")
    s.add_argument("--steps", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.set_defaults(handler=_cmd_walk)

    s = sub.add_parser("verify", help="run every documented invariant check")
    s.set_defaults(handler=_cmd_verify)

    return parser


def dispatch(argv) -> int:
    """Parse argv and run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, IndexError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
