"""Benchmark for coinduel: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload exact-fair --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports coinduel from its
src/ directory.  With --trace 0 it reports the end-to-end metrics
(setup_s, queries_per_s, latency_p50_s, peak_rss_mb); with --trace 1 it
runs untraced rounds for half the time and traced rounds for the other
half, and reports the per-layer metrics and the tracing overhead.  The
last line of stdout is the result object; raw figures go to
perfbench/runs/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# one BLAS/OpenMP thread in this process and in every child it starts; the
# pin has to be in place before numpy is first imported
THREAD_PINS = {
    name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
os.environ.update(THREAD_PINS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 7  # fresh interpreters per run, after one that is thrown away

END_TO_END = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "latency_p50_s": "s",
    "peak_rss_mb": "MiB",
}

VERIFY_CHECKS = [
    "core.runs-formula-matches-score-series",
    "core.reversal-pattern-law",
    "core.reversal-preserves-score-between-heads",
    "core.score-additivity-at-shared-flip",
    "excursions.reversal-bijection-b-to-ahat",
    "excursions.position-classifier-matches-score-sign",
    "excursions.tie-probability-matches-zero-classes",
    "excursions.decomposition-round-trip",
    "excursions.window-interior-score-signs",
    "excursions.parser-paths-agree",
    "exact.dp-matches-enumeration",
    "exact.strict-ordering-from-n-3",
    "exact.equality-at-n-1-2",
    "exact.float-dp-within-rounding-bound",
    "exact.bias-pa-increasing-when-p-above-half",
    "renewal.bridge-identity-convolution-vs-dp",
    "renewal.count-closed-form-vs-brute-force",
    "renewal.pi-sqrt-m-approaches-c",
    "renewal.desk-scale-sqrt-n-laws",
    "renewal.asymptotic-report-identities",
    "montecarlo.determinism",
    "montecarlo.calibration-coverage",
]

# per-layer metric -> (tracer table, key, unit); every value is per traced round
PER_LAYER = {
    "cli.dispatch.self_s": ("self_s", "cli.dispatch", "s"),
    "cli.dispatch.calls": ("calls", "cli.dispatch", "count"),
    "exact.enumerate_distribution.busy_s": ("busy", "exact.enumerate_distribution", "s"),
    "exact.dp_distribution.exact.busy_s": ("busy", "exact.dp_distribution.exact", "s"),
    "exact.dp_series.busy_s": ("busy", "exact.dp_series", "s"),
    "exact.dp_distribution.float.busy_s": ("busy", "exact.dp_distribution.float", "s"),
    "exact.dp_float_series.busy_s": ("busy", "exact.dp_float_series", "s"),
    "exact.dp_cells": ("counts", "exact.dp_cells", "count"),
    "renewal.renewal_diff.busy_s": ("busy", "renewal.renewal_diff", "s"),
    "renewal.count_rx.calls": ("calls", "renewal.count_rx", "count"),
    "renewal.count_rx.busy_s": ("busy", "renewal.count_rx", "s"),
    "renewal.count_rx.memo_peak": ("peaks", "renewal.count_rx.memo", "count"),
    "renewal.renewal_table.busy_s": ("busy", "renewal.renewal_table", "s"),
    "renewal.pi.float.busy_s": ("busy", "renewal.pi.float", "s"),
    "renewal.asymptotics.busy_s": ("busy", "renewal.asymptotics", "s"),
    "core.parse_sequence.busy_s": ("busy", "core.parse_sequence", "s"),
    "core.str.busy_s": ("busy", "core.str", "s"),
    "core.reverse.busy_s": ("busy", "core.reverse", "s"),
    "core.score_series.busy_s": ("busy", "core.score_series", "s"),
    "core.score.busy_s": ("busy", "core.score", "s"),
    "core.flips": ("counts", "core.flips", "count"),
    "excursions.decompose.busy_s": ("busy", "excursions.decompose", "s"),
    "excursions.classify_position.busy_s": ("busy", "excursions.classify_position", "s"),
    "excursions.windows": ("counts", "excursions.windows", "count"),
    "excursions.coupled_diff_mc.busy_s": ("busy", "excursions.coupled_diff_mc", "s"),
    "montecarlo.simulate_game.busy_s": ("busy", "montecarlo.simulate_game", "s"),
    "montecarlo.games": ("counts", "montecarlo.games", "count"),
    **{f"verify.{name}.busy_s": ("busy", f"verify.{name}", "s") for name in VERIFY_CHECKS},
}


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters that import coinduel's command line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import coinduel.cli"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        dt = time.perf_counter() - t0
        if i:  # the first start warms the page cache and bytecode
            samples.append(dt)
    return samples


class Rounds:
    """Closed loop, one client: whole rounds of the query list until time is up."""

    def __init__(self, workload, reset) -> None:
        self.workload = workload
        self.reset = reset
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.latencies: dict[str, list[float]] = {}
        self.round_rates: list[float] = []

    def run(self, seconds: float, tracer=None, on_query=None) -> int:
        start = time.perf_counter()
        rounds = 0
        while True:
            answers = {}
            busy = 0.0
            for q in self.workload.queries:
                self.reset()
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    out = q.run() if tracer is None else tracer.span(q.span, q.run)
                except Exception:
                    self.failed += 1
                    print(f"query failed: {q.label}", file=sys.stderr)
                    traceback.print_exc()
                    continue
                dt = time.perf_counter() - t0
                if on_query is not None:
                    on_query()
                busy += dt
                self.latencies.setdefault(q.label, []).append(dt)
                answers[q.label] = out
                self._check(q.check, out)
            for check in self.workload.round_checks:
                self._check(check, answers)
            if answers:
                self.round_rates.append(len(answers) / busy)
            rounds += 1
            if time.perf_counter() - start >= seconds:
                return rounds

    def _check(self, check, value) -> None:
        # a malformed answer that breaks the check is a wrong answer too
        try:
            check(value)
        except Exception as exc:
            self.problems.append(f"{type(exc).__name__}: {exc}")

    def all_latencies(self) -> list[float]:
        return [t for times in self.latencies.values() for t in times]


def _percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="coinduel benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coinduel" / "__init__.py").is_file():
        print(f"no coinduel sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import coinduel
    from coinduel import renewal

    if Path(coinduel.__file__).resolve().parent != SRC / "coinduel":
        print(f"imported coinduel from {coinduel.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import oracle
    import tracing
    import workloads

    if args.workload not in workloads.BUILDERS:
        parser.error(f"--workload must be one of {sorted(workloads.BUILDERS)}")
    workload = workloads.BUILDERS[args.workload](args.seed, oracle.load_reference())
    # each query sees the memo state of a fresh process
    memo = renewal.count_rx
    rounds = Rounds(workload, memo.cache_clear)
    raw: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}

    if args.trace == 0:
        setup = measure_setup()
        rounds.run(args.seconds)
        latencies = rounds.all_latencies()
        values = {
            "setup_s": statistics.median(setup),
            "queries_per_s": statistics.median(rounds.round_rates),
            "latency_p50_s": statistics.median(latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        raw.update(
            setup_samples=setup,
            round_rates=rounds.round_rates,
            latency_p90_s=_percentile(latencies, 0.9),
            samples=len(latencies),
        )
    else:
        untraced_rounds = rounds.run(args.seconds / 2)
        untraced_rates = list(rounds.round_rates)
        tracer = tracing.Tracer()
        peaks = {"renewal.count_rx.memo": 0}

        def note_memo():
            peaks["renewal.count_rx.memo"] = max(peaks["renewal.count_rx.memo"], memo.cache_info().currsize)

        with tracer.attached():
            traced_rounds = rounds.run(args.seconds / 2, tracer, note_memo)
        traced_rates = rounds.round_rates[len(untraced_rates):]
        tables = {"busy": tracer.busy, "self_s": tracer.self_s, "calls": tracer.calls,
                  "counts": tracer.counts, "peaks": peaks}
        metrics = {}
        for name, (table, key, unit) in PER_LAYER.items():
            value = tables[table].get(key, 0)
            if table != "peaks":
                value = value / traced_rounds
            metrics[name] = {"value": value, "unit": unit}
        untraced = statistics.median(untraced_rates)
        traced = statistics.median(traced_rates)
        metrics["trace.queries_per_s"] = {"value": traced, "unit": "1/s"}
        metrics["trace.queries_per_s_delta"] = {"value": traced - untraced, "unit": "1/s"}
        raw.update(
            untraced_rounds=untraced_rounds,
            traced_rounds=traced_rounds,
            untraced_round_rates=untraced_rates,
            traced_round_rates=traced_rates,
            busy=dict(tracer.busy),
            self_s=dict(tracer.self_s),
            calls=dict(tracer.calls),
            counts=dict(tracer.counts),
        )

    raw.update(
        problems=rounds.problems,
        latencies={label: times for label, times in rounds.latencies.items()},
    )
    out_dir = HERE / "runs"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(raw, indent=1) + "\n", encoding="utf-8")
    for problem in rounds.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not rounds.problems,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
