"""`min_csw`, `power_bfs` and `solve` run with the cyclic garbage collector
paused. That is safe only because they make no reference cycles, so each
run here is made with the collector off and must leave nothing for
`gc.collect()` to find; and each entry point must hand the collector back
as it found it, whichever way the call ends."""

import gc

import pytest

from cswsat import encoder, oracle, solver
from cswsat.encoder import DistanceTables, encode, pair_distances
from cswsat.generators import GenConfig, pn, random_pfa
from cswsat.oracle import power_bfs
from cswsat.search import FOUND, NOT_SYNCHRONIZING, min_csw
from cswsat.solver import (
    SAT,
    Backend,
    BudgetExceeded,
    ModelVerificationError,
    Session,
    SolverLimits,
    solve,
)

from test_oracle import FIRST_LAYER_STAGES


def _probes_at_overrun(call):
    """The probe record of the BudgetExceeded `call` raises; the exception
    itself, with its traceback, is dropped on return."""
    try:
        call()
    except BudgetExceeded as exc:
        return exc.probes
    raise AssertionError("no BudgetExceeded")


def _corrupt_pairs(pfa):
    dist = pair_distances(pfa)
    dist[0][1] = dist[1][0] = dist[0][1] + 1
    return dist


class TestNoCycles:
    @pytest.mark.parametrize("precheck", [True, False])
    @pytest.mark.parametrize("n", range(5, 10))
    def test_chain(self, collector_off, n, precheck):
        assert min_csw(pn(n), precheck=precheck).status == FOUND
        assert gc.collect() == 0

    @pytest.mark.parametrize("precheck", [True, False])
    def test_random(self, collector_off, precheck):
        statuses = set()
        for seed in range(10):
            statuses.add(min_csw(random_pfa(GenConfig(n=30, seed=seed)), precheck=precheck).status)
            assert gc.collect() == 0, seed
        # both answers are covered: seeds 3 and 4 do not synchronize
        assert statuses == {FOUND, NOT_SYNCHRONIZING}

    @pytest.mark.parametrize(
        "seed, n, conflicts, probes",
        [(9, 30, 0, ()), (1, 60, 30, ((12, SAT),))],
        ids=["no-conflict", "after-a-probe"],
    )
    def test_solver_overrun(self, collector_off, seed, n, conflicts, probes):
        backend = Backend(limits=SolverLimits(max_conflicts=conflicts))
        pfa = random_pfa(GenConfig(n=n, seed=seed))
        record = _probes_at_overrun(lambda: min_csw(pfa, backend=backend))
        assert tuple((p.length, p.status) for p in record) == probes
        assert gc.collect() == 0

    def test_forgetting(self, collector_off):
        # a ceiling of 20 learned clauses forces _reduce_db, as in
        # test_solver's TestForgetting
        session = Session(encode(pn(7), 38))
        session.max_learned = 20
        session.solve()
        assert session.max_learned > 20
        del session
        assert gc.collect() == 0

    @pytest.mark.parametrize("budget", [{}, {"max_visited": 1000}], ids=["default", "1000"])
    def test_subset_search(self, collector_off, budget):
        for seed in range(10):
            try:
                power_bfs(random_pfa(GenConfig(n=30, seed=seed)), **budget)
            except BudgetExceeded:
                pass
            assert gc.collect() == 0, seed


def _fault_in_the_table(monkeypatch):
    monkeypatch.setattr(encoder, "pair_distances", _corrupt_pairs)
    monkeypatch.setattr(oracle, "BOUND_STAGES", FIRST_LAYER_STAGES)


def _fault_in_the_evaluator(monkeypatch):
    # every model is rejected
    monkeypatch.setattr(solver, "satisfies", lambda instance, model: False)


# (entry point, how it ends, setup, the call, exception expected) for each
# way each decorated entry point can end
CASES = [
    ("min_csw", "return", None, lambda: min_csw(pn(6)), None),
    (
        "min_csw",
        "budget",
        None,
        lambda: min_csw(
            random_pfa(GenConfig(n=30, seed=9)),
            backend=Backend(limits=SolverLimits(max_conflicts=0)),
        ),
        BudgetExceeded,
    ),
    ("min_csw", "value", None, lambda: min_csw(pn(6), max_length=0), ValueError),
    ("min_csw", "fault", _fault_in_the_table, lambda: min_csw(pn(6)), ModelVerificationError),
    ("power_bfs", "return", None, lambda: power_bfs(pn(8)), None),
    ("power_bfs", "budget", None, lambda: power_bfs(pn(8), max_visited=5), BudgetExceeded),
    ("power_bfs", "value", None, lambda: power_bfs(pn(8), max_visited=0), ValueError),
    ("power_bfs", "fault", _fault_in_the_table, lambda: power_bfs(pn(8)), ModelVerificationError),
    ("solve", "return", None, lambda: solve(encode(pn(6), 26)), None),
    (
        "solve",
        "budget",
        None,
        lambda: solve(encode(pn(7), 38), limits=SolverLimits(max_conflicts=0)),
        BudgetExceeded,
    ),
    (
        "solve",
        "fault",
        _fault_in_the_evaluator,
        lambda: solve(encode(pn(6), 26)),
        ModelVerificationError,
    ),
]
IDS = [f"{name}-{end}" for name, end, *_ in CASES]
RETURNS = {name: call for name, end, _, call, _ in CASES if end == "return"}


def _run(monkeypatch, setup, call, raises):
    if setup is not None:
        setup(monkeypatch)
    if raises is None:
        call()
    else:
        with pytest.raises(raises):
            call()


class TestCollectorState:
    @pytest.mark.parametrize("name, end, setup, call, raises", CASES, ids=IDS)
    def test_on_again_after_the_call(
        self, collector_on, monkeypatch, name, end, setup, call, raises
    ):
        _run(monkeypatch, setup, call, raises)
        assert gc.isenabled()

    @pytest.mark.parametrize("name, end, setup, call, raises", CASES, ids=IDS)
    def test_stays_off_when_off_on_entry(
        self, collector_off, monkeypatch, name, end, setup, call, raises
    ):
        _run(monkeypatch, setup, call, raises)
        assert not gc.isenabled()

    @pytest.mark.parametrize("name", ["min_csw", "power_bfs", "solve"])
    def test_off_inside_the_call(self, collector_on, monkeypatch, name):
        seen = []

        def recording(target, attr):
            inner = getattr(target, attr)

            def record(*args, **kwargs):
                seen.append(gc.isenabled())
                return inner(*args, **kwargs)

            monkeypatch.setattr(target, attr, record)

        # min_csw encodes and solves; power_bfs builds letter tables
        recording(Session, "solve")
        recording(oracle, "_letter_actions")
        recording(DistanceTables, "far")
        RETURNS[name]()
        assert seen and not any(seen)
        assert gc.isenabled()
