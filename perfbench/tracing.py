"""Per-layer spans for the traced run, attached from outside coinduel.

Tracer.attached() replaces the public functions of each module with
wrappers, in every coinduel module that holds them (cli and verify import
names from the other modules, so calls made through dispatch or a verify
check are attributed too), and puts the originals back on exit.  Spans are
folded into per-layer totals as they close, rather than kept one by one:
the verify registry makes millions of calls.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict

from coinduel import cli, core, exact, excursions, montecarlo, renewal


def dp_cells(n: int) -> int:
    """Band cells the DP steps update: two states over the band of each step."""
    # step k touches scores -(k-1)..floor(k/2)
    return 2 * sum(k + k // 2 for k in range(2, n + 1))


def _mode(args, kwargs, position: int) -> str:
    if "mode" in kwargs:
        return kwargs["mode"]
    return args[position] if len(args) > position else "exact"


def _seq_flips(args, kwargs):
    return "core.flips", args[0].length


def _text_flips(args, kwargs):
    return "core.flips", len(args[0])


def _dp_count(args, kwargs):
    return "exact.dp_cells", dp_cells(args[0])


def _windows(result) -> tuple[str, int]:
    return "excursions.windows", len(result.slots) + (result.trailing is not None)


def _games(args, kwargs):
    return "montecarlo.games", args[0].trials


# (module, attribute, span name or namer, count from the arguments, count from the result)
_TARGETS = [
    (core, "parse_sequence", "core.parse_sequence", _text_flips, None),
    (core, "reverse", "core.reverse", _seq_flips, None),
    (core, "score", "core.score", _seq_flips, None),
    (core, "score_series", "core.score_series", _seq_flips, None),
    (exact, "enumerate_distribution", "exact.enumerate_distribution", None, None),
    (
        exact,
        "dp_distribution",
        lambda a, k: f"exact.dp_distribution.{_mode(a, k, 2)}",
        _dp_count,
        None,
    ),
    (exact, "dp_series", "exact.dp_series", _dp_count, None),
    (exact, "dp_float_series", "exact.dp_float_series", _dp_count, None),
    (renewal, "renewal_diff", "renewal.renewal_diff", None, None),
    (renewal, "count_rx", "renewal.count_rx", None, None),
    (renewal, "renewal_table", "renewal.renewal_table", None, None),
    (renewal, "pi", lambda a, k: f"renewal.pi.{_mode(a, k, 1)}", None, None),
    (renewal, "asymptotics", "renewal.asymptotics", None, None),
    (excursions, "decompose", "excursions.decompose", None, _windows),
    (excursions, "classify_position", "excursions.classify_position", None, None),
    (excursions, "coupled_diff_mc", "excursions.coupled_diff_mc", None, None),
    (montecarlo, "simulate_game", "montecarlo.simulate_game", _games, None),
    (cli, "dispatch", "cli.dispatch", None, None),
]


class Tracer:
    """Busy time, self time and calls per span name, plus work counts."""

    def __init__(self) -> None:
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        # child time of each open span, innermost last
        self._children: list[float] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name and return its result."""
        self.calls[name] += 1
        self._children.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = self._children.pop()
            self.busy[name] += dt
            self.self_s[name] += dt - child
            if self._children:
                self._children[-1] += dt

    def _wrapper(self, fn, namer, arg_count, result_count):
        def traced(*args, **kwargs):
            name = namer(args, kwargs) if callable(namer) else namer
            if arg_count is not None:
                key, n = arg_count(args, kwargs)
                self.counts[key] += n
            result = self.span(name, fn, *args, **kwargs)
            if result_count is not None:
                key, n = result_count(result)
                self.counts[key] += n
            return result

        return traced

    @contextlib.contextmanager
    def attached(self):
        """Wrap every target in every loaded coinduel module, then restore."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "coinduel" or name.startswith("coinduel."))
        ]
        replaced = []
        try:
            for module, attr, namer, arg_count, result_count in _TARGETS:
                original = getattr(module, attr)
                wrapper = self._wrapper(original, namer, arg_count, result_count)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)
                            replaced.append((m, key, original))
            original_str = core.FlipSequence.__str__
            core.FlipSequence.__str__ = self._wrapper(original_str, "core.str", _seq_flips, None)
            replaced.append((core.FlipSequence, "__str__", original_str))
            yield self
        finally:
            for owner, key, original in reversed(replaced):
                setattr(owner, key, original)
