"""Per-layer spans for the traced run, recorded from outside the package.

:class:`Tracer` replaces pasense's public functions with timing wrappers
under the names the calling modules look them up by (for example
``pasense.cli.sweep`` and ``pasense.explore.mu``), so calls made inside
the package are seen too.  Nothing in ``src/pasense`` changes.

Each call records a span: name, start, end, parent span and operation
id, plus the number of points it evaluated.  Spans are kept in memory
for the current operation only and folded into per-layer totals when
the operation ends.  A span's self time is its duration minus the
duration of its child spans.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

import pasense.cli
import pasense.explore
import pasense.params
import pasense.response

SMALL_CALL = 16  # points; calls this small measure per-call overhead
LARGE_CALL = 10_000  # points; calls this large measure per-point cost

RESPONSE_FNS = ("sensitivity", "output_spectrum", "optimal_phase", "mu", "kernels")


def _omega_points(args, kwargs) -> int:
    return int(np.size(args[1] if len(args) > 1 else kwargs["omega_tilde"]))


def _omega_phi_points(args, kwargs) -> int:
    w = args[1] if len(args) > 1 else kwargs["omega_tilde"]
    p = args[2] if len(args) > 2 else kwargs["phi"]
    return int(np.broadcast(w, p).size)


def _sweep_cells(args, kwargs) -> int:
    return int(args[2].num * args[3].num)


def _grid_cells(args, kwargs) -> int:
    return int(np.size(args[0].values))


def _one(args, kwargs) -> int:
    return 1


# (module, attribute as the module binds it, span name, size of the call)
BINDINGS = (
    (pasense.cli, "main", "cli.main", _one),
    (pasense.cli, "sensitivity", "response.sensitivity", _omega_phi_points),
    (pasense.cli, "output_spectrum", "response.output_spectrum", _omega_phi_points),
    (pasense.cli, "optimal_phase", "response.optimal_phase", _omega_points),
    (pasense.cli, "mu", "response.mu", _omega_points),
    (pasense.cli, "sweep", "explore.sweep", _sweep_cells),
    (pasense.cli, "extract_contour", "explore.extract_contour", _grid_cells),
    (pasense.cli, "oscillator_sensitivity", "oscillator.oscillator_sensitivity", _one),
    (pasense.cli, "sensitivity_ratio", "oscillator.sensitivity_ratio", _one),
    (pasense.cli, "reduce_params", "params.reduce", _one),
    (pasense.explore, "kernels", "response.kernels", _omega_points),
    (pasense.explore, "mu", "response.mu", _omega_points),
    (pasense.explore, "sensitivity", "response.sensitivity", _omega_phi_points),
    (pasense.explore, "output_spectrum", "response.output_spectrum", _omega_phi_points),
    (pasense.explore, "minimize_mu_over_frequency", "explore.minimize_mu_over_frequency", _one),
    (pasense.explore, "reduce_params", "params.reduce", _one),
    (pasense.response, "kernels", "response.kernels", _omega_points),
    (pasense.params, "reduce", "params.reduce", _one),
)

# Per-layer metrics of the traced run: name -> unit.  Counts and times
# named without "per_" are means per operation of the run.
PER_LAYER = {
    "cli.main.self_ms": "ms",
    "cli.main.us_per_row": "us",
    "cli.main.lib_calls_per_op": "count",
    "cli.main.bytes_out": "B",
    **{
        f"response.{fn}.{m}": u
        for fn in RESPONSE_FNS
        for m, u in (("calls", "count"), ("points", "count"), ("self_ms", "ms"),
                     ("us_per_call", "us"), ("ns_per_point", "ns"))
    },
    "explore.sweep.self_ms": "ms",
    "explore.sweep.ns_per_cell": "ns",
    "explore.sweep.params_built": "count",
    "explore.extract_contour.ms": "ms",
    "explore.extract_contour.ns_per_cell": "ns",
    "explore.extract_contour.vertices": "count",
    "explore.minimize_mu_over_frequency.us_per_solve": "us",
    "explore.minimize_mu_over_frequency.self_us": "us",
    "explore.minimize_mu_over_frequency.mu_calls_per_solve": "count",
    "oscillator.oscillator_sensitivity.calls": "count",
    "oscillator.oscillator_sensitivity.us_per_call": "us",
    "params.reduce.calls": "count",
    "params.reduce.us_per_call": "us",
    "trace.overhead_ratio": "ratio",
}

_NAME, _START, _END, _PARENT, _OP, _POINTS, _EXTRA = range(7)


class _Totals:
    __slots__ = ("calls", "points", "incl", "self", "small_calls", "small_ns",
                 "large_calls", "large_points", "large_ns", "extra")

    def __init__(self):
        for slot in self.__slots__:
            setattr(self, slot, 0)


def _ratio(num, den, scale=1.0) -> float:
    return num / den * scale if den else 0.0


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit.

    Spans are recorded only between :meth:`begin_op` and :meth:`end_op`,
    so input generation and verification stay out of the trace.
    """

    def __init__(self):
        self.enabled = False
        self._saved = []
        self._stack = []
        self._spans = []
        self._op = -1
        self.ops = 0
        self.by_name = defaultdict(_Totals)
        self.lib_calls = 0
        self.cli_rows = 0
        self.cli_bytes = 0
        self.solve_mu_calls = 0
        # op kind -> [operations, op ns, cli self ns, library ns, sweep + contour ns]
        self.splits = defaultdict(lambda: [0, 0, 0, 0, 0])

    def __enter__(self) -> "Tracer":
        for module, attr, name, size in BINDINGS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, size))
        rp_class = pasense.explore.ReducedParams
        self._saved.append((pasense.explore, "ReducedParams", rp_class))
        pasense.explore.ReducedParams = self._count_params(rp_class)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, size):
        spans = self._spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span = [name, 0, 0, parent, self._op, size(args, kwargs), 0]
            stack.append(len(spans))
            spans.append(span)
            span[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()
            if name == "explore.extract_contour":
                span[_EXTRA] = sum(len(p) for p in result.polylines)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_params(self, cls):
        def built(*args, **kwargs):
            if self.enabled and self._stack:
                span = self._spans[self._stack[-1]]
                if span[_NAME] == "explore.sweep":
                    span[_EXTRA] += 1
            return cls(*args, **kwargs)

        return built

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._spans.clear()
        self.enabled = True

    def end_op(self, kind: str, op_ns: int, rows: int = 0, nbytes: int = 0) -> None:
        """Fold the operation's spans into the totals."""
        self.enabled = False
        spans = self._spans
        child = [0] * len(spans)
        for s in spans:
            if s[_PARENT] >= 0:
                child[s[_PARENT]] += s[_END] - s[_START]
        split = self.splits[kind]
        split[0] += 1
        split[1] += op_ns
        for i, s in enumerate(spans):
            name, dur, points = s[_NAME], s[_END] - s[_START], s[_POINTS]
            t = self.by_name[name]
            t.calls += 1
            t.points += points
            t.incl += dur
            t.self += dur - child[i]
            t.extra += s[_EXTRA]
            if points <= SMALL_CALL:
                t.small_calls += 1
                t.small_ns += dur
            if points >= LARGE_CALL:
                t.large_calls += 1
                t.large_points += points
                t.large_ns += dur
            parent = spans[s[_PARENT]][_NAME] if s[_PARENT] >= 0 else None
            if name == "cli.main":
                split[2] += dur - child[i]
            elif parent == "cli.main":
                self.lib_calls += 1
                split[3] += dur
            elif parent is None:
                split[3] += dur
            if name in ("explore.sweep", "explore.extract_contour"):
                split[4] += dur
            if name == "response.mu" and parent == "explore.minimize_mu_over_frequency":
                self.solve_mu_calls += 1
        self.ops += 1
        self.cli_rows += rows
        self.cli_bytes += nbytes
        spans.clear()

    def metrics(self, overhead_ratio: float) -> dict:
        """Every per-layer metric as (value, samples it averages over).

        A layer the workload never reaches reports 0 over 0 samples.
        """
        n = self.ops
        t = self.by_name
        cli = t["cli.main"]
        sweep = t["explore.sweep"]
        contour = t["explore.extract_contour"]
        solve = t["explore.minimize_mu_over_frequency"]
        osc = t["oscillator.oscillator_sensitivity"]
        red = t["params.reduce"]
        m = {
            "cli.main.self_ms": (_ratio(cli.self, n, 1e-6), n),
            "cli.main.us_per_row": (_ratio(cli.incl, self.cli_rows, 1e-3), cli.calls),
            "cli.main.lib_calls_per_op": (_ratio(self.lib_calls, cli.calls), cli.calls),
            "cli.main.bytes_out": (_ratio(self.cli_bytes, cli.calls), cli.calls),
        }
        for fn in RESPONSE_FNS:
            r = t[f"response.{fn}"]
            m[f"response.{fn}.calls"] = (_ratio(r.calls, n), n)
            m[f"response.{fn}.points"] = (_ratio(r.points, n), n)
            m[f"response.{fn}.self_ms"] = (_ratio(r.self, n, 1e-6), n)
            m[f"response.{fn}.us_per_call"] = (_ratio(r.small_ns, r.small_calls, 1e-3), r.small_calls)
            m[f"response.{fn}.ns_per_point"] = (_ratio(r.large_ns, r.large_points), r.large_calls)
        solves = solve.calls
        m.update({
            "explore.sweep.self_ms": (_ratio(sweep.self, n, 1e-6), n),
            "explore.sweep.ns_per_cell": (_ratio(sweep.incl, sweep.points), sweep.calls),
            "explore.sweep.params_built": (_ratio(sweep.extra, sweep.calls), sweep.calls),
            "explore.extract_contour.ms": (_ratio(contour.incl, contour.calls, 1e-6), contour.calls),
            "explore.extract_contour.ns_per_cell": (_ratio(contour.incl, contour.points), contour.calls),
            "explore.extract_contour.vertices": (_ratio(contour.extra, contour.calls), contour.calls),
            "explore.minimize_mu_over_frequency.us_per_solve": (_ratio(solve.incl, solves, 1e-3), solves),
            "explore.minimize_mu_over_frequency.self_us": (_ratio(solve.self, solves, 1e-3), solves),
            "explore.minimize_mu_over_frequency.mu_calls_per_solve": (_ratio(self.solve_mu_calls, solves), solves),
            "oscillator.oscillator_sensitivity.calls": (_ratio(osc.calls, n), n),
            "oscillator.oscillator_sensitivity.us_per_call": (_ratio(osc.incl, osc.calls, 1e-3), osc.calls),
            "params.reduce.calls": (_ratio(red.calls, n), n),
            "params.reduce.us_per_call": (_ratio(red.incl, red.calls, 1e-3), red.calls),
            "trace.overhead_ratio": (overhead_ratio, n),
        })
        return m

    def split_lines(self) -> list[str]:
        """Where each operation kind spends its time, as shares of op time."""
        lines = []
        for kind, (ops, op_ns, cli_self, lib, grid) in sorted(self.splits.items()):
            if not op_ns:
                continue
            lines.append(
                f"split {kind:<16} ops={ops:<5} mean_ms={op_ns / ops / 1e6:9.3f}  "
                f"cli_self={cli_self / op_ns:6.1%}  library={lib / op_ns:6.1%}  "
                f"sweep+extract_contour={grid / op_ns:6.1%}"
            )
        return lines
