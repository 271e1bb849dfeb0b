"""Tests of the benchmark itself: seeded inputs, oracles, percentile rule.

Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import itertools
import json
import shlex
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pasense.cli  # noqa: E402
from pasense.explore import minimize_mu_over_frequency  # noqa: E402
from pasense.response import mu  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _inputs(workload: str, seed: int, n: int) -> list:
    return [
        (op.kind, op.argv, op.rp, op.physical, op.work, repr(op.spec))
        for op in itertools.islice(workloads.stream(workload, seed), n)
    ]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    assert _inputs(workload, 3, 12) == _inputs(workload, 3, 12)
    assert _inputs(workload, 3, 12) != _inputs(workload, 4, 12)


@pytest.mark.parametrize("workload, kinds", [
    ("dump", workloads.DUMP_KINDS),
    ("contour", tuple(f"contour-{q}" for q in workloads.CONTOUR_QUANTITIES)),
])
def test_every_block_holds_each_kind_once(workload, kinds):
    ops = list(itertools.islice(workloads.stream(workload, 5), 3 * len(kinds)))
    for start in range(0, len(ops), len(kinds)):
        assert sorted(op.kind for op in ops[start:start + len(kinds)]) == sorted(kinds)


def _first_of_kind(kind: str):
    workload = "contour" if kind.startswith("contour-") else "dump"
    return next(op for op in workloads.stream(workload, 1) if op.kind == kind)


def _corrupt_leading_digits(path: Path, columns) -> None:
    lines = path.read_text().splitlines(keepends=True)
    row = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 1
    fields = lines[row].rstrip("\n").split(",")
    for c in columns:
        f = fields[c]
        j = next(k for k, ch in enumerate(f) if ch.isdigit())
        fields[c] = f[:j] + ("6" if f[j] == "5" else "5") + f[j + 1:]
    lines[row] = ",".join(fields) + "\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize(
    "kind", [*workloads.DUMP_KINDS, *(f"contour-{q}" for q in workloads.CONTOUR_QUANTITIES)]
)
def test_corrupted_csv_digit_fails_the_operation(kind, tmp_path):
    op = _first_of_kind(kind)
    out = tmp_path / "out.csv"
    assert pasense.cli.main([*op.argv, "--out", str(out)]) == 0
    before = oracles.check_cli(op, out)
    assert before.ok, before.problems
    # A contour vertex sits on one grid line; changing both coordinates
    # takes it off every grid edge.
    _corrupt_leading_digits(out, (1, 2) if kind.startswith("contour-") else (-1,))
    after = oracles.check_cli(op, out)
    assert not after.ok
    assert not after.known


def test_wrong_mu_star_fails_the_operation():
    op = next(workloads.stream("search", 1))
    w, m = minimize_mu_over_frequency(op.rp, op.spec["band"])
    assert oracles.check_search(op, (w, m), dense=True).ok
    assert not oracles.check_search(op, (w, m * (1 + 1e-6)), dense=False).ok
    # Consistent with mu, but not the band minimum.
    w_off = w * 0.5 if w * 0.5 >= op.spec["band"][0] else w * 2.0
    off = oracles.check_search(op, (w_off, float(mu(op.rp, w_off))), dense=True)
    assert not off.ok and not off.known


def test_known_defect_probe_runs_the_reproducer(tmp_path):
    # Reproducer of the known budget-route drift: the optimal angle sits
    # within about 1e-12 of -pi/2 and R_rel comes out 0.68% above mu.
    lines = run._probe_known_defect(tmp_path)
    argv = workloads.DEFECT_REPRODUCER.argv
    assert lines[0].startswith("known defect: argv: pasense " + shlex.join(argv))
    assert lines[0].endswith((": still fails", ": now passes the 1e-9 check")), lines


def test_dump_stream_redraws_the_known_defect_class():
    probe = workloads.DEFECT_REPRODUCER
    assert workloads.in_defect_class(probe.rp, probe.spec["omega"])
    ops = [op for op in itertools.islice(workloads.stream("dump", 1), 200)
           if op.kind == "sensitivity-opt"]
    assert not any(workloads.in_defect_class(op.rp, op.spec["omega"]) for op in ops)
    assert any(op.redrawn for op in ops)


def test_percentile_needs_ten_samples_beyond():
    xs = list(range(1, 101))
    assert run.percentile(xs, 0.9) == 90
    assert sum(x > 90 for x in xs) == 10
    with pytest.raises(ValueError):
        run.percentile(xs[:99], 0.9)
    assert run.percentile(xs[:20], 0.5) == 10
    with pytest.raises(ValueError):
        run.percentile(xs[:19], 0.5)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_search_run_prints_every_declared_metric(trace, key, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert run.main(["--workload", "search", "--seed", "2", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    declared = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
