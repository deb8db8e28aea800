import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from cswsat.automaton import Pfa, parse_pfa, serialize_pfa, word_from_letters
from cswsat.cli import (
    REFERENCE_CURVE,
    ComparisonRow,
    ExperimentRow,
    FitResult,
    _parse_ns,
    build_parser,
    comparison_csv,
    compare_backends,
    experiment_csv,
    fit_cubic,
    main,
    run_experiment,
    write_gnuplot,
)
from cswsat.encoder import (
    DistanceTables,
    clause_count,
    encode,
    parse_dimacs,
    set_clause_count,
)
from cswsat.generators import GenConfig, pn, random_pfa
from cswsat.search import min_csw

from test_solver import SHIM_LIAR, SHIM_SLEEPER, SHIM_STDIN, shim_command

A1_TEXT = "2 2\n1 2\n1 0\n"
C3_TEXT = "3 2\n2 2\n3 2\n1 3\n"
FROZEN_TEXT = "2 2\n1 1\n2 2\n"


def cubic(c0, c1, c2, c3):
    return lambda x: c0 + c1 * x + c2 * x * x + c3 * x**3


class TestFitCubic:
    def test_recovers_exact_cubic(self):
        poly = cubic(1.0, 2.0, -0.5, 0.01)
        points = [(n, poly(n)) for n in range(4, 16)]
        result = fit_cubic(points)
        for got, want in zip(result.coefficients, (1.0, 2.0, -0.5, 0.01)):
            assert abs(got - want) < 1e-9
        assert result.residual < 1e-12

    def test_constant_data(self):
        result = fit_cubic([(n, 5.0) for n in (3, 7, 11, 19, 25)])
        assert abs(result.coefficients[0] - 5.0) < 1e-9
        for c in result.coefficients[1:]:
            assert abs(c) < 1e-9

    def test_reference_curve_trend(self):
        c0, c1, c2, c3 = fit_cubic(REFERENCE_CURVE).coefficients
        assert abs(c0 - 3.92) / 3.92 < 0.15
        assert abs(c1 - 0.49) / 0.49 < 0.15
        assert abs(c2 - (-0.005)) / 0.005 < 0.30
        assert abs(c3 - 0.000024) / 0.000024 < 0.30

    def test_too_few_distinct_points(self):
        with pytest.raises(ValueError):
            fit_cubic([(1, 1.0), (2, 2.0), (3, 3.0)])
        with pytest.raises(ValueError):
            fit_cubic([(1, 1.0), (1, 2.0), (2, 2.0), (2, 3.0), (3, 1.0)])

    def test_normal_equations_are_optimal(self):
        result = fit_cubic(REFERENCE_CURVE)

        def rss(coeffs):
            return sum(
                (y - sum(c * x**k for k, c in enumerate(coeffs))) ** 2
                for x, y in REFERENCE_CURVE
            )

        base = rss(result.coefficients)
        for i in range(4):
            for factor in (0.99, 1.01):
                nudged = list(result.coefficients)
                nudged[i] *= factor
                assert rss(nudged) >= base - 1e-12

    def test_predict(self):
        result = FitResult(coefficients=(1.0, 2.0, 3.0, 4.0), residual=0.0)
        assert result.predict(2.0) == 1 + 4 + 12 + 32


class TestRunExperiment:
    def test_constant_map_family(self):
        # both letters send every state to 1: each instance needs one step
        family = lambda n, seed: Pfa(n=2, m=2, delta=((1, 1), (1, 1)))
        (row,) = run_experiment([2], samples=10, seed=0, family=family)
        assert row.mean_length == 1.0
        assert row.rsd == 0.0
        assert row.discards == 0

    def test_engines_agree(self):
        sat_rows = run_experiment([6], samples=30, seed=5, engine="sat")
        bfs_rows = run_experiment([6], samples=30, seed=5, engine="oracle")
        for a, b in zip(sat_rows, bfs_rows):
            assert (a.mean_length, a.rsd, a.discards) == (
                b.mean_length,
                b.rsd,
                b.discards,
            )

    def test_reproducible_except_timing(self):
        kwargs = dict(samples=8, seed=3, engine="oracle")
        a = run_experiment([4, 5], **kwargs)
        b = run_experiment([4, 5], **kwargs)
        strip = lambda rows: [
            (r.n, r.samples, r.discards, r.mean_length, r.rsd, r.budget_hits)
            for r in rows
        ]
        assert strip(a) == strip(b)
        trim = lambda text: [
            line.rsplit(",", 1)[0] for line in text.splitlines()
        ]
        assert trim(experiment_csv(a)) == trim(experiment_csv(b))

    def test_budget_overrun_is_recorded_not_fatal(self):
        # first attempt draws a chain too big for the subset budget, the
        # retry draws a small one; the row must carry the overrun count
        family = lambda n, s: pn(8) if s < (1 << 48) else pn(4)
        (row,) = run_experiment(
            [8], samples=1, seed=0, family=family, engine="oracle", max_visited=10
        )
        assert row.budget_hits == 1
        assert row.discards == 0
        assert row.mean_length >= 1

    def test_never_synchronizing_family_fails_loudly(self, monkeypatch):
        monkeypatch.setattr("cswsat.cli.MAX_ATTEMPTS", 5)
        family = lambda n, seed: Pfa(n=2, m=2, delta=((1, 2), (1, 2)))
        with pytest.raises(RuntimeError, match="no synchronizing instance for n=2 in 5 draws"):
            run_experiment([2], samples=1, seed=0, family=family)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            run_experiment([4], samples=0)
        with pytest.raises(ValueError):
            run_experiment([4], samples=1, engine="quantum")


class TestCompareBackends:
    def test_small_run_agrees(self):
        (row,) = compare_backends([6], samples=15, seed=0)
        assert row.mismatches == 0
        assert row.samples == 15
        assert row.sat_mean_s > 0
        assert row.oracle_mean_s > 0

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            compare_backends([6], samples=0)

    def test_csv_shape(self):
        row = ComparisonRow(
            n=6,
            samples=5,
            discards=1,
            sat_mean_s=0.25,
            oracle_mean_s=0.0125,
            mismatches=0,
        )
        text = comparison_csv([row])
        header, data = text.splitlines()
        assert header == (
            "n,samples,discards,oracle_budget_hits,sat_mean_s,oracle_mean_s,mismatches"
        )
        assert data == "6,5,1,0,0.250000,0.012500,0"


class TestTableOutput:
    ROW = ExperimentRow(
        n=10, samples=4, discards=2, mean_length=7.5, rsd=0.375, mean_time_s=0.001
    )

    def test_csv(self):
        header, data = experiment_csv([self.ROW]).splitlines()
        assert header == "n,samples,discards,budget_hits,mean_length,rsd,mean_time_s"
        assert data == "10,4,2,0,7.500000,0.375000,0.001000"

    def test_tsv(self):
        text = experiment_csv([self.ROW], fmt="tsv")
        assert "\t" in text and "," not in text

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            experiment_csv([self.ROW], fmt="xml")

    def test_gnuplot_pair(self, tmp_path):
        dat, gp = write_gnuplot(tmp_path / "curve", [self.ROW])
        assert dat.read_text().splitlines()[1].startswith("10 7.500000")
        assert dat.name in gp.read_text()


class TestCommandSurface:
    def _pfa_file(self, tmp_path, text, name="input.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_encode_stdout(self, tmp_path, capsys):
        assert main(["encode", self._pfa_file(tmp_path, A1_TEXT), "-l", "2"]) == 0
        out = capsys.readouterr().out
        instance = parse_dimacs(out)
        assert instance.var_count == 10
        assert instance.layout is not None

    def test_encode_to_file(self, tmp_path):
        target = tmp_path / "out.cnf"
        code = main(
            ["encode", self._pfa_file(tmp_path, A1_TEXT), "-l", "1", "-o", str(target)]
        )
        assert code == 0
        assert target.read_text().startswith("c layout n=2 m=2 l=1")

    def test_encode_missing_file(self, tmp_path, capsys):
        assert main(["encode", str(tmp_path / "absent.txt"), "-l", "1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_solve_table_needs_length(self, tmp_path, capsys):
        assert main(["solve", self._pfa_file(tmp_path, A1_TEXT)]) == 1
        assert "--length" in capsys.readouterr().err

    def test_solve_table_sat(self, tmp_path, capsys):
        assert main(["solve", self._pfa_file(tmp_path, A1_TEXT), "-l", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("s SATISFIABLE")
        assert "c word a" in out

    def test_solve_table_unsat(self, tmp_path, capsys):
        assert main(["solve", self._pfa_file(tmp_path, FROZEN_TEXT), "-l", "3"]) == 0
        assert capsys.readouterr().out == "s UNSATISFIABLE\n"

    def test_solve_dimacs_stdin(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("p cnf 2 2\n1 -2 0\n2 0\n"))
        assert main(["solve", "-"]) == 0
        out = capsys.readouterr().out
        assert "s SATISFIABLE" in out
        assert "v 1 2 0" in out

    @pytest.mark.parametrize(
        "letters, word",
        [("3 0\n-4 0\n", "c word a"), ("3 0\n4 0\n", None), ("-3 0\n-4 0\n", None)],
    )
    def test_solve_dimacs_words_only_exactly_one_models(
        self, tmp_path, capsys, letters, word
    ):
        # layout n=2 m=2 l=1: the letters at position 1 are variables 3 and 4
        cnf = tmp_path / "one.cnf"
        cnf.write_text(f"c layout n=2 m=2 l=1\np cnf 6 2\n{letters}")
        assert main(["solve", str(cnf)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "s SATISFIABLE"
        assert [line for line in out if line.startswith("c ")] == ([word] if word else [])

    def test_solve_lying_external_backend(self, tmp_path, capsys):
        cnf = tmp_path / "hard.cnf"
        cnf.write_text("p cnf 2 2\n-1 0\n-2 0\n")
        cmd = shim_command(tmp_path, SHIM_LIAR, "liar")
        code = main(["--backend", f"external:{cmd}", "solve", str(cnf)])
        assert code == 3
        assert "verification" in capsys.readouterr().err

    def test_min_found(self, tmp_path, capsys):
        probes = tmp_path / "probes.csv"
        code = main(
            [
                "min",
                self._pfa_file(tmp_path, C3_TEXT),
                "--emit-probes",
                str(probes),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "status: FOUND" in out
        assert "min_length: 4" in out
        assert probes.read_text().startswith("length,status,seconds")

    def test_min_probe_stats_columns(self, tmp_path, capsys):
        probes = tmp_path / "probes.csv"
        path = self._pfa_file(tmp_path, C3_TEXT)
        assert main(["min", path, "--emit-probes", str(probes)]) == 0
        rows = csv.DictReader(io.StringIO(probes.read_text()))
        columns = ("length", "status", "conflicts", "decisions", "propagations", "clauses")
        got = [tuple(r[c] for c in columns) for r in rows]
        pfa = parse_pfa(C3_TEXT)
        probes_made = min_csw(pfa).probes
        expected = [
            (
                p.length,
                p.status,
                p.stats.conflicts,
                p.stats.decisions,
                p.stats.propagations,
                p.clauses,
            )
            for p in probes_made
        ]
        assert got == [tuple(map(str, e)) for e in expected]
        # the SAT probe's size: the encoding plus the pair group, the
        # only one a 3-state probe takes, since a set group needs at most
        # n - 2 = 1 states; the UNSAT probe one below runs on the same
        # engine, which holds that CNF plus what the shorter CNF adds
        groups = [DistanceTables(pfa).far(2)]
        sat, unsat = probes_made
        assert sat.clauses == clause_count(pfa.n, pfa.m, sat.length) + sum(
            set_clause_count(group, sat.length) for group in groups
        )
        hi, lo = (set(encode(pfa, p.length, groups).clauses) for p in probes_made)
        assert unsat.clauses == sat.clauses + len(lo - hi)

    def test_min_bound_exhausted(self, tmp_path, capsys):
        assert main(["min", self._pfa_file(tmp_path, C3_TEXT), "--max-length", "3"]) == 2
        out = capsys.readouterr().out
        assert "status: UNKNOWN_UP_TO_BOUND" in out
        assert "bound: 3" in out

    @pytest.mark.parametrize(
        "flags, source", [([], "power_bfs"), (["--no-precheck"], "none")]
    )
    def test_min_reports_bound_source(self, tmp_path, capsys, flags, source):
        assert main(["min", self._pfa_file(tmp_path, C3_TEXT), *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("upper_bound_source:")] == [
            f"upper_bound_source: {source}"
        ]

    def test_min_not_synchronizing(self, tmp_path, capsys):
        assert main(["min", self._pfa_file(tmp_path, FROZEN_TEXT)]) == 0
        assert "status: NOT_SYNCHRONIZING" in capsys.readouterr().out

    def test_min_without_precheck_refutes_from_the_pair_table(self, tmp_path, capsys):
        # 20 of this draw's state pairs never merge; it once galloped to
        # the size budget at length 16,384
        path = self._pfa_file(tmp_path, serialize_pfa(random_pfa(GenConfig(n=30, seed=3))))
        assert main(["min", path, "--no-precheck"]) == 0
        assert "status: NOT_SYNCHRONIZING" in capsys.readouterr().out.splitlines()

    def test_min_probe_escalation_column(self, tmp_path, capsys):
        probes = tmp_path / "probes.csv"
        path = self._pfa_file(tmp_path, serialize_pfa(pn(12)))
        assert main(["min", path, "--emit-probes", str(probes)]) == 0
        rows = list(csv.DictReader(io.StringIO(probes.read_text())))
        assert [(r["length"], r["escalations"]) for r in rows] == [("141", "32:9;64:10"), ("140", "")]

    def test_min_budget_exit(self, tmp_path, capsys):
        code = main(
            ["--max-decisions", "0", "min", self._pfa_file(tmp_path, C3_TEXT)]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--max-conflicts", "--max-decisions"])
    def test_external_backend_refuses_search_limits(self, tmp_path, capsys, flag):
        path = self._pfa_file(tmp_path, serialize_pfa(pn(5)))
        assert main([flag, "0", "min", path]) == 2
        capsys.readouterr()
        cmd = shim_command(tmp_path, SHIM_STDIN, "stdin_shim")
        assert main(["--backend", f"external:{cmd}", flag, "0", "min", path]) == 1
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--max-conflicts", "-5"),
            ("--max-decisions", "-1"),
            ("--max-seconds", "-1"),
            ("--max-seconds", "nan"),
        ],
    )
    def test_negative_or_nan_limit_is_a_usage_error(self, tmp_path, capsys, flag, value):
        path = self._pfa_file(tmp_path, serialize_pfa(pn(5)))
        assert main([flag, value, "min", path]) == 1
        captured = capsys.readouterr()
        assert f"({flag}) must be at least 0, got" in captured.err
        assert captured.out == ""

    def test_external_backend_takes_max_seconds_as_timeout(self, tmp_path, capsys):
        path = self._pfa_file(tmp_path, serialize_pfa(pn(5)))
        cmd = shim_command(tmp_path, SHIM_SLEEPER, "sleeper")
        code = main(["--backend", f"external:{cmd}", "--max-seconds", "0.3", "min", path])
        assert code == 2
        assert "0.3s" in capsys.readouterr().err

    def test_oracle(self, tmp_path, capsys):
        assert main(["oracle", self._pfa_file(tmp_path, A1_TEXT)]) == 0
        out = capsys.readouterr().out
        assert "min_length: 1" in out
        assert "visited: 1" in out

    def test_oracle_budget_is_its_only_option(self):
        # the budget bounds every state count, so no state gate remains
        parse = build_parser().parse_args
        common = set(vars(parse(["fit"])))
        assert set(vars(parse(["oracle", "x"]))) - common == {"max_visited"}

    def test_encode_size_budget_exit(self, tmp_path, capsys):
        path = self._pfa_file(tmp_path, serialize_pfa(pn(4)))
        assert main(["encode", path, "--length", str(1 << 17)]) == 2
        assert "clauses" in capsys.readouterr().err

    def test_oracle_budget(self, tmp_path, capsys):
        path = self._pfa_file(tmp_path, serialize_pfa(pn(8)))
        assert main(["oracle", path, "--max-visited", "5"]) == 2

    def test_oracle_budget_below_one_is_refused(self, tmp_path, capsys):
        path = self._pfa_file(tmp_path, serialize_pfa(pn(6)))
        assert main(["oracle", path, "--max-visited", "0"]) == 1
        assert "max_visited must be >= 1, got 0" in capsys.readouterr().err

    def test_bench_budget_below_one_is_refused(self, capsys):
        # not a false "no synchronizing instance" after 1000 overrun draws
        argv = ["bench", "curve", "--engine", "oracle", "--n-list", "6", "--samples", "1"]
        assert main([*argv, "--max-visited", "0"]) == 1
        assert "max_visited must be >= 1, got 0" in capsys.readouterr().err

    def test_oracle_budget_names_the_beam_bound(self, tmp_path, capsys, monkeypatch):
        # a trigger of 0 runs both bounding beams before the first layer
        monkeypatch.setattr("cswsat.oracle.BOUND_STAGES", ((0, 64), (0, 1024)))
        path = self._pfa_file(tmp_path, serialize_pfa(pn(8)))
        assert main(["oracle", path, "--max-visited", "50"]) == 2
        assert "a beam word of length 55 bounds it" in capsys.readouterr().err

    def test_oracle_budget_on_a_long_chain(self, tmp_path, capsys, monkeypatch):
        # the overrun stops at the budget: no beam and no pair table, whose
        # rings on pn(400) would hold tens of millions of entries
        def refuse(*args):
            raise AssertionError("overrun went past the budget")

        monkeypatch.setattr("cswsat.oracle._beam", refuse)
        monkeypatch.setattr("cswsat.encoder.pair_distances", refuse)
        path = self._pfa_file(tmp_path, serialize_pfa(pn(400)))
        assert main(["oracle", path, "--max-visited", "50"]) == 2
        assert "subset budget 50 words exceeded" in capsys.readouterr().err

    def test_gen_stdout_roundtrip(self, capsys):
        assert main(["--seed", "9", "gen", "--n", "6", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# family=random n=6 k=2 seed=9")
        pfa = parse_pfa(out)
        assert (pfa.n, pfa.undefined_count()) == (6, 2)

    def test_gen_directory(self, tmp_path):
        out_dir = tmp_path / "batch"
        code = main(
            ["gen", "--n", "5", "--count", "3", "--output", str(out_dir)]
        )
        assert code == 0
        files = sorted(out_dir.iterdir())
        assert len(files) == 3
        assert all(parse_pfa(f.read_text()).n == 5 for f in files)

    def test_gen_single_automaton_to_a_file(self, tmp_path):
        path = tmp_path / "one.txt"
        assert main(["--seed", "4", "gen", "--n", "5", "-o", str(path)]) == 0
        text = path.read_text()
        assert text.startswith("# family=random n=5 k=1 seed=4")
        assert parse_pfa(text) == random_pfa(GenConfig(n=5, seed=4))

    def test_gen_several_automata_need_a_directory(self, capsys):
        assert main(["gen", "--n", "5", "--count", "2"]) == 1
        assert "needs --output DIR" in capsys.readouterr().err

    def test_gen_pn(self, tmp_path, capsys):
        assert main(["gen", "--family", "pn", "--n", "4"]) == 0
        assert parse_pfa(capsys.readouterr().out).delta == pn(4).delta
        assert main(["gen", "--family", "pn", "--n", "4", "--count", "2"]) == 1

    @pytest.mark.parametrize("family", ["random", "pn"])
    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_gen_rejects_no_automata(self, capsys, family, count):
        assert main(["gen", "--family", family, "--n", "5", "--count", count]) == 1
        assert "--count must be at least 1" in capsys.readouterr().err

    def test_bench_curve(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        prefix = tmp_path / "plot"
        code = main(
            [
                "bench",
                "curve",
                "--n-list",
                "4,5",
                "--samples",
                "3",
                "--engine",
                "oracle",
                "--output",
                str(out),
                "--gnuplot",
                str(prefix),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,samples,discards,budget_hits,mean_length,rsd,mean_time_s"
        assert len(lines) == 3
        assert (tmp_path / "plot.dat").exists()
        assert (tmp_path / "plot.gp").exists()

    def test_bench_compare(self, tmp_path, capsys):
        out = tmp_path / "compare.tsv"
        code = main(
            [
                "--format",
                "tsv",
                "bench",
                "compare",
                "--n-list",
                "5",
                "--samples",
                "3",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text().startswith("n\tsamples\tdiscards")

    def test_bench_samples_default_per_mode(self):
        # curve and compare share their other flags but not this default
        parse = build_parser().parse_args
        assert parse(["bench", "curve", "--n-list", "6"]).samples == 1000
        assert parse(["bench", "compare", "--n-list", "6"]).samples == 50
        assert parse(["bench", "curve", "--n-list", "6", "--samples", "7"]).samples == 7

    def test_bench_tables_show_budget_overruns(self, tmp_path, capsys):
        # both commands draw the same automata and answer them by subset
        # search under the same budget; two draws at n=10 overrun it
        shared = ["--n-list", "6,10", "--samples", "20", "--max-visited", "40"]
        curve = tmp_path / "curve.csv"
        compare = tmp_path / "compare.csv"
        assert main(["bench", "curve", "--engine", "oracle", *shared, "-o", str(curve)]) == 0
        assert main(["bench", "compare", *shared, "-o", str(compare)]) == 0
        read = lambda path: list(csv.DictReader(io.StringIO(path.read_text())))
        assert [r["budget_hits"] for r in read(curve)] == ["0", "2"]
        assert [r["oracle_budget_hits"] for r in read(compare)] == ["0", "2"]

    def test_bench_compare_flags_disagreement(self, monkeypatch, capsys):
        bogus = ComparisonRow(
            n=6,
            samples=1,
            discards=0,
            sat_mean_s=0.1,
            oracle_mean_s=0.1,
            mismatches=1,
        )
        monkeypatch.setattr(
            "cswsat.cli.compare_backends", lambda *a, **k: [bogus]
        )
        code = main(["bench", "compare", "--n-list", "6", "--samples", "1"])
        assert code == 3
        assert "disagree" in capsys.readouterr().err

    def test_fit_from_file(self, tmp_path, capsys):
        poly = cubic(2.0, 0.5, 0.0, 0.0)
        rows = ["n,mean_length"] + [f"{n},{poly(n)}" for n in range(4, 10)]
        path = tmp_path / "data.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["fit", str(path)]) == 0
        out = dict(
            line.split(": ") for line in capsys.readouterr().out.splitlines()
        )
        assert math.isclose(float(out["c0"]), 2.0, abs_tol=1e-9)
        assert math.isclose(float(out["c1"]), 0.5, abs_tol=1e-9)

    def test_fit_reads_what_bench_curve_writes(self, tmp_path, capsys):
        # the TSV table picks its columns by name; the gnuplot data file
        # starts with a '#' header and holds n and mean_length first
        table, prefix = tmp_path / "curve.tsv", tmp_path / "curve"
        args = ["--format", "tsv", "bench", "curve", "--n-list", "4-7", "--samples", "3"]
        code = main([*args, "--engine", "oracle", "-o", str(table), "--gnuplot", str(prefix)])
        assert code == 0
        capsys.readouterr()
        rows = run_experiment([4, 5, 6, 7], samples=3, engine="oracle")
        expected = fit_cubic((r.n, r.mean_length) for r in rows).coefficients
        assert "\t" in table.read_text() and "," not in table.read_text()
        assert prefix.with_suffix(".dat").read_text().startswith("# n mean_length")
        for path in (table, prefix.with_suffix(".dat")):
            assert main(["fit", str(path)]) == 0
            out = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
            got = [float(out[name]) for name in ("c0", "c1", "c2", "c3")]
            # the tables round each mean to six decimals
            assert all(math.isclose(g, e, abs_tol=1e-3) for g, e in zip(got, expected))

    def test_fit_reference(self, capsys):
        assert main(["fit", "--reference"]) == 0
        assert "c3:" in capsys.readouterr().out

    def test_fit_needs_input(self, capsys):
        assert main(["fit"]) == 1

    @pytest.mark.parametrize(
        "text, line",
        [
            ("1\n2\n3\n4\n", 1),
            ("results\n1 2\n3\n", 3),
            ("a,b,n,mean_length\n1,2,3,4\n5,6,7\n", 3),
        ],
    )
    def test_fit_short_row(self, monkeypatch, capsys, text, line):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["fit", "-"]) == 1
        assert f"error: line {line} has" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 1\n2 4\n3 9\n4 inf\n", "line 4 holds a value that is not finite"),
            ("1 1\n2 4\n3 9\nnan 16\n", "line 4 holds a value that is not finite"),
            ("1 1\n2 4\n3 1e308\n4 1e308\n5 1e308\n", "overflow a float"),
        ],
        ids=["inf", "nan", "1e308"],
    )
    def test_fit_refuses_what_a_float_cannot_hold(self, monkeypatch, capsys, text, message):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["fit", "-"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err and "Traceback" not in err

    def test_fit_skips_a_title_row(self, monkeypatch, capsys):
        poly = cubic(2.0, 0.5, 0.0, 0.0)
        rows = ["results"] + [f"{n} {poly(n)}" for n in range(4, 10)]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(rows) + "\n"))
        assert main(["fit", "-"]) == 0
        assert "c0: 2" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text, message",
        [("2 x\n1 2\n1 0\n", "malformed header"), ("0 2\n", "must be positive")],
    )
    def test_bad_pfa_header_exits_1(self, tmp_path, capsys, text, message):
        assert main(["min", self._pfa_file(tmp_path, text)]) == 1
        assert message in capsys.readouterr().err

    def test_bad_dimacs_header_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("p cnf x 1\n1 0\n"))
        assert main(["solve", "-"]) == 1
        assert "bad header counts at line 1" in capsys.readouterr().err

    def test_state_count_ranges(self):
        assert _parse_ns("6-8,10") == [6, 7, 8, 10]
        assert _parse_ns(" 12 , 4-4") == [12, 4]

    def test_dimacs_header_over_the_budget_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("p cnf 300000000 1\n1 0\n"))
        assert main(["solve", "-"]) == 2
        err = capsys.readouterr().err
        assert "header declares 300000000 variables" in err
        assert "Traceback" not in err

    def test_empty_state_count_list_exits_1(self, capsys):
        with pytest.raises(ValueError, match="empty state-count list"):
            _parse_ns(" , ,")
        assert main(["bench", "curve", "--n-list", " , ,"]) == 1
        assert "--n-list" in capsys.readouterr().err

    def test_usage_errors(self, capsys):
        assert main(["frobnicate"]) == 1
        assert main([]) == 1
        assert main(["--help"]) == 0
        assert main(["min"]) == 1


class TestMemoryBounds:
    """Inputs that once exhausted memory must end in exit 2, not in the
    kernel's kill (137) or a traceback, inside a 2 GiB address space."""

    def _run(self, tmp_path, text, *argv):
        path = tmp_path / "input.txt"
        path.write_text(text)
        limit = 2 << 30
        proc = subprocess.run(
            [sys.executable, "-m", "cswsat", *argv, str(path)],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert "Traceback" not in proc.stderr
        return proc

    def test_galloping_past_the_probe_budget(self, tmp_path):
        # not synchronizing, though every state pair merges, so no pair
        # refutes it: without the pre-check only the size budget stops it
        pfa = Pfa(n=3, m=2, delta=((2, 3, 1), (None, 1, 1)))
        proc = self._run(tmp_path, serialize_pfa(pfa), "min", "--no-precheck")
        assert proc.returncode == 2
        assert "length 131072" in proc.stderr

    def test_long_chain_pair_table(self, tmp_path):
        # the chain family's pair distances reach n^2 / 2; the bound on
        # subset search keeps them in one O(n^2) list
        proc = self._run(tmp_path, serialize_pfa(pn(800)), "oracle")
        assert proc.returncode == 2
        assert "subset budget" in proc.stderr

    @pytest.mark.parametrize("command", ["min", "oracle"])
    def test_twenty_thousand_states(self, tmp_path, command):
        pfa = random_pfa(GenConfig(n=20000, seed=0))
        proc = self._run(tmp_path, serialize_pfa(pfa), command)
        assert proc.returncode == 2
        assert "budget" in proc.stderr

    def test_dimacs_header_with_more_variables_than_the_budget(self, tmp_path):
        # the solver allocates per declared variable, before any clause
        proc = self._run(tmp_path, "p cnf 300000000 1\n1 0\n", "solve")
        assert proc.returncode == 2
        assert "300000000 variables" in proc.stderr


class TestScripts:
    def run_script(self, *argv):
        root = Path(__file__).parents[1]
        proc = subprocess.run(
            [sys.executable, *argv],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=root,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_pn_regression(self):
        out = self.run_script("scripts/pn_regression.py", "--n-list", "4-6", "--check-sat-to", "6")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["n"], r["min_length"], r["agree"]) for r in rows] == [
            ("4", "7", "true"),
            ("5", "15", "true"),
            ("6", "26", "true"),
        ]

    def test_search_identity(self):
        # lines follow perfbench/expected.json's order, not --only's
        out = self.run_script("scripts/search_identity.py", "--only", "pn-5,random-n30-s7")
        lines = [json.loads(line) for line in out.splitlines()]
        assert [(d["id"], d["status"], d["min_length"]) for d in lines] == [
            ("random-n30-s7", "FOUND", 6),
            ("pn-5", "FOUND", 15),
        ]
        assert lines[1]["witness"] == list(word_from_letters("aabababaabbabaa"))
        probes = lines[1]["probes"]
        assert [p[:7] for p in probes] == [
            [15, "SAT", 251, 4, 15, 119, 0],
            [14, "UNSAT", 266, 0, 0, 0, 0],
        ]
        # the UNSAT probe's digest covers the SAT probe's CNF and the added clauses
        assert [p[7] for p in probes] == [
            "ba1ba66968f57702c22398f483990b2572b48cbc79939f2fab2a06ee05f49054",
            "8f1ff5b26e55ef94dda8fb2df766971a35263637b4d03c97a396a575760b25d4",
        ]
