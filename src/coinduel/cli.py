"""Command-line entry point.

Subcommands: exact, dp, mc, renewal, diff, asym, decompose, table, walk,
verify.  Output is JSON by default; `table` and `renewal` sweeps also take
--format csv.  Exact rationals are serialized as "num/den" strings, floats
with 17 significant digits so they round-trip, and every probability field
is tagged with the method that produced it:

  enum        exhaustive enumeration (exact)
  dp-exact    rational forward DP (exact)
  dp-float    float forward DP (every row of a table whose --n-to passes
              n = 4096)
  fft-float   saddle-tilted transform (dp --mode float, every n); carries
              rounding_bound
  recurrence  the fair-coin recurrence, each row rounded once (table)
  renewal     the count_rx recurrence and the renewal convolution
  asym        leading-order sqrt(n) laws
  mc          seeded simulation

Exit codes: 0 success, 1 domain error, 2 usage error.

Start-up.  At module level this imports only the standard library, `core`,
`renewal` and `rational`, so `dp --mode exact`, `diff --method dp|renewal`,
`renewal`, `asym` and `table` up to n = 4096 never load numpy.  A handler
that needs a numpy module imports it when it runs: `exact` for `exact`,
`dp --mode float`, `diff --method enum` and `table` above n = 4096;
`excursions` for `decompose`; `montecarlo` for `mc` and `walk`; `verify` for
`verify`.  The argparse parser is built on the first dispatch and kept.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from dataclasses import asdict
from fractions import Fraction

from .core import parse_sequence
from .rational import DP_EXACT_MAX_N, FloatDistribution, dp_distribution
from .renewal import asymptotics, fair_scan, renewal_diff, renewal_table


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _json_text(value) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
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


@contextlib.contextmanager
def _exact_output():
    """Lift Python's limit on the digits of an int written as text (4300 by
    default) while a command writes its answer, which is exact at any
    length, and restore it after; reading --p keeps the limit."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 if none, before 3.10.7
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@_exact_output()
def _emit(record: dict) -> None:
    print(_json_text(record))


@_exact_output()
def _print_csv(columns: tuple[str, ...], rows) -> None:
    """A header of columns, then one line per row dict; rationals as num/den."""
    print(",".join(columns))
    for row in rows:
        cells = (row[key] for key in columns)
        print(",".join(_frac(v) if isinstance(v, Fraction) else _json_text(v) for v in cells))


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
    from .exact import enumerate_distribution

    _emit(_law_record("exact", "enum", enumerate_distribution(args.n, Fraction(args.p))))
    return 0


def _cmd_dp(args) -> int:
    p = Fraction(args.p)
    if args.mode == "float":
        from .exact import transform_distribution

        _emit(_law_record("dp", "fft-float", transform_distribution(args.n, p)))
    else:
        _emit(_law_record("dp", "dp-exact", dp_distribution(args.n, p)))
    return 0


def _cmd_mc(args) -> int:
    from .montecarlo import SimConfig, simulate_game

    config = SimConfig(n=args.n, trials=args.trials, seed=args.seed, p=Fraction(args.p))
    _emit({"command": "mc", "method": "mc", **asdict(simulate_game(config))})
    return 0


def _cmd_renewal(args) -> int:
    table = renewal_table(args.m_from, args.m_to)
    rows = [
        {"m": m, "count_rx": count, "pi_exact": pi_m, "pi_float": float(pi_m)}
        for m, count, pi_m in table.rows()
    ]
    if args.format == "csv":
        _print_csv(("m", "count_rx", "pi_exact", "pi_float"), rows)
        return 0
    _emit(
        {
            "command": "renewal",
            "method": "renewal",
            "m_from": table.m_from,
            "m_to": table.m_to,
            "rows": rows,
        }
    )
    return 0


def _cmd_diff(args) -> int:
    if args.method == "renewal":
        value, tag = renewal_diff(args.n), "renewal"
    elif args.method == "dp":
        value, tag = dp_distribution(args.n).diff, "dp-exact"
    else:
        from .exact import enumerate_distribution

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
    _emit({"command": "asym", "method": "asym", **asdict(asymptotics(args.n))})
    return 0


def _cmd_decompose(args) -> int:
    from .excursions import decompose

    seq = parse_sequence(args.sequence)
    _emit({"command": "decompose", "sequence": str(seq), **decompose(seq).to_dict()})
    return 0


def _table_laws(n_from: int, n_to: int, step: int):
    """The sweep's row dicts at n = n_from, n_from + step, ... <= n_to.

    One forward pass covers the whole sweep, and n_to picks it for every
    row: up to DP_EXACT_MAX_N the fair-coin recurrence, each requested row
    rounded once from its exact counts; above that the float DP, up to its
    cap, which runs once to n_to and sums the sign classes of the printed
    rows only, so a sweep that crosses DP_EXACT_MAX_N is float DP from
    n_from on.
    """
    if n_to <= DP_EXACT_MAX_N:
        method = "recurrence"
        laws = (
            (n, counts, 1 << n)
            for n, *counts in fair_scan(n_to)
            if n >= n_from and (n - n_from) % step == 0
        )
    else:
        from .exact import _dp_float_bands, _float_sign_sums

        # the float sums are probabilities already, and x / 1 is x exactly
        method = "dp-float"
        laws = (
            (n, _float_sign_sums(h, t, n), 1)
            for n, h, t in _dp_float_bands(n_to, 0.5, range(n_from, n_to + 1, step))
        )
    for n, (below, equal, above), den in laws:
        report = asymptotics(n)
        yield {
            "n": n,
            "method": method,
            "pA": below / den,
            "pB": above / den,
            "pTie": equal / den,
            "diff": (above - below) / den,
            "tie_asym": report.tie_approx,
            "diff_asym": report.diff_approx,
        }


def _cmd_table(args) -> int:
    if args.n_from < 1 or args.n_to < args.n_from or args.step < 1:
        raise ValueError("need 1 <= n-from <= n-to and step >= 1")
    rows = list(_table_laws(args.n_from, args.n_to, args.step))
    if args.format == "csv":
        _print_csv(("n", "pA", "pB", "pTie", "diff", "tie_asym", "diff_asym"), rows)
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
    from .montecarlo import tailwalk

    report = tailwalk(args.steps, args.seed)
    _emit({"command": "walk", "method": "mc", **asdict(report)})
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_all

    def report(result):
        if args.json:
            print(json.dumps(asdict(result)), flush=True)
        else:
            status = "PASS" if result.ok else "FAIL"
            print(f"{status} {result.name}: {result.detail} [{result.seconds:.2f} s]", flush=True)

    results = run_all(report=report)
    passed = sum(result.ok for result in results)
    if args.json:
        seconds = sum(result.seconds for result in results)
        print(json.dumps({"passed": passed, "total": len(results), "seconds": seconds}))
    else:
        print(f"{passed}/{len(results)} invariants hold")
    return 0 if passed == len(results) else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call: most of a
    build is argparse's message-catalogue lookups, about 1 ms."""
    parser = argparse.ArgumentParser(
        prog="coinduel",
        description="Win/tie probabilities for the HH-vs-HT coin game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("exact", help="exhaustive enumeration (n <= 30)")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--p", default="1/2", help="head probability, e.g. 1/2 or 0.4")
    s.set_defaults(handler=_cmd_exact)

    s = sub.add_parser("dp", help="exact rational DP, or the float transform")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--p", default="1/2")
    s.add_argument("--mode", choices=("exact", "float"), default="exact")
    s.set_defaults(handler=_cmd_dp)

    s = sub.add_parser("mc", help="simulate games with a seeded generator")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--p", default="1/2")
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
    s.add_argument(
        "--json",
        action="store_true",
        help="one JSON object per check (name, ok, detail, seconds), then a summary",
    )
    s.set_defaults(handler=_cmd_verify)

    return parser


def dispatch(argv) -> int:
    """Parse argv and run one subcommand; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, IndexError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
