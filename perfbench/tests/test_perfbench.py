"""Tests of the benchmark itself, on tiny versions of each workload.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import make_expected  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TINY = {
    "random-min": {"call": "min_csw", "random": [(6, 6), (9, 2)]},
    "pn-chain": {"call": "min_csw", "pn": [3, 4, 5]},
    "oracle-curve": {"call": "power_bfs", "curve": [(7, 6)]},
}
WORKLOADS = sorted(TINY)
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def table():
    return make_expected.build_table(run.load_api(), TINY)


def bench(table, workload, trace, seed=0):
    return run.run(workload, seed=seed, seconds=0, trace=trace, table=table)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_with_its_unit(table, workload, trace):
    metrics = bench(table, workload, trace)["result"]["metrics"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in metrics.items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_code_has_no_failures(table, workload):
    out = bench(table, workload, trace=False)
    assert out["diagnostics"]["failed_ratio"]["value"] == 0
    assert out["result"]["correct"] and out["result"]["failed"] == 0
    assert out["result"]["metrics"]["ok_ratio"]["value"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_length_is_a_failure(table, workload):
    broken = json.loads(json.dumps(table))
    entry = next(e for e in broken[workload]["instances"] if e["status"] == "FOUND")
    entry["min_length"] += 1
    out = bench(broken, workload, trace=False)
    assert not out["result"]["correct"]
    assert out["result"]["failed"] == 1
    assert out["diagnostics"]["failed_ratio"]["value"] > 0
    assert out["diagnostics"]["failures"][0].startswith(entry["id"])


def test_exception_is_a_failure_not_an_abort(table, monkeypatch):
    api = run.load_api()
    monkeypatch.setattr(run, "load_api", lambda: api)

    def broken(pfa, **kwargs):
        raise api.BudgetExceeded("simulated budget")

    monkeypatch.setattr(api, "min_csw", broken)
    out = bench(table, "pn-chain", trace=False)
    assert out["result"]["failed"] == out["result"]["attempted"] == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(table, workload):
    first, second = (bench(table, workload, trace=True, seed=s) for s in (1, 2))
    for name in ("solver.conflicts", "solver.decisions", "solver.propagations",
                 "oracle.visited", "encoder.clauses"):
        assert first["result"]["metrics"][name] == second["result"]["metrics"][name]
    assert [p["conflicts"] for p in sorted(first["probes"], key=_probe_key)] == [
        p["conflicts"] for p in sorted(second["probes"], key=_probe_key)
    ]


def _probe_key(probe):
    return probe["instance"], probe["length"]


def test_layers_are_charged_where_the_work_is(table):
    solver = bench(table, "pn-chain", trace=True)["result"]["metrics"]
    assert solver["solver.calls"]["value"] == solver["search.probes"]["value"] > 0
    assert solver["encoder.clauses"]["value"] > 0
    assert solver["solver.cert_s"]["value"] > 0
    oracle = bench(table, "oracle-curve", trace=True)["result"]["metrics"]
    assert oracle["solver.calls"]["value"] == 0
    assert oracle["oracle.calls"]["value"] == len(table["oracle-curve"]["instances"])
    assert oracle["oracle.visited"]["value"] > 0


def test_probe_records_carry_the_search(table):
    out = bench(table, "pn-chain", trace=True)
    probes = out["probes"]
    assert {p["instance"] for p in probes} == {"pn-3", "pn-4", "pn-5"}
    assert set(probes[0]) == {"workload", "instance", "length", "status",
                              "conflicts", "decisions", "propagations", "seconds"}
    assert sum(p["conflicts"] for p in probes) == out["result"]["metrics"]["solver.conflicts"]["value"]


def test_vanished_name_is_skipped(table, monkeypatch):
    """With `scale` gone from the package, the trace still runs and charges
    encoder.build to the names that remain."""
    api = run.load_api()
    monkeypatch.setattr(run, "load_api", lambda: api)
    original = api.encoder.scale

    def stretch(template, ell):
        return original(template, ell)

    monkeypatch.delattr(api.encoder, "scale")
    monkeypatch.delattr(api, "scale")
    monkeypatch.setattr(api.search, "scale", stretch)
    names = {**tracing.WRAPPED, "no_such_function": "nowhere"}
    monkeypatch.setattr(tracing, "WRAPPED", names)
    out = bench(table, "random-min", trace=True)
    metrics = out["result"]["metrics"]
    assert out["result"]["correct"]
    assert metrics["encoder.build_s"]["value"] > 0
    assert api.search.scale is stretch


def test_tracer_restores_every_binding(table):
    api = run.load_api()
    before = {name: getattr(api.search, name) for name in ("encode", "scale", "decode_word")}
    with tracing.Tracer(api, "w"):
        assert all(getattr(api.search, n) is not f for n, f in before.items())
    assert all(getattr(api.search, n) is f for n, f in before.items())
