"""Experiment harness and command surface for the synchronization pipeline.

The library modules answer single questions: encode one instance, solve one
formula, minimize one word. This module strings them into the batch jobs a
study actually runs: length curves over random automata, cubic trend fits,
and timing comparisons between the solver pipeline and the exact subset
search. Everything is seeded and deterministic apart from wall-clock columns.

`main` exposes the same operations as subcommands. Exit codes: 0 success,
1 usage or input problem, 2 exhausted resource budget, 3 internal
correctness failure (a model failing verification, or the two exact paths
disagreeing).
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import time
from collections import Counter
from dataclasses import astuple, dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .automaton import (
    Pfa,
    PfaFormatError,
    parse_pfa,
    serialize_pfa,
    word_to_letters,
)
from .encoder import (
    DecodeError,
    DimacsError,
    decode_word,
    encode,
    layout_comment,
    parse_dimacs,
    to_dimacs,
)
from .generators import GenConfig, pn, random_pfa, trial_seed
from .oracle import DEFAULT_MAX_VISITED, power_bfs
from .search import DEFAULT_MAX_LENGTH, FOUND, UNKNOWN_UP_TO_BOUND, SearchOutcome, min_csw
from .solver import (
    SAT,
    Backend,
    BudgetExceeded,
    ExternalSolverError,
    ModelVerificationError,
    SolverLimits,
    SolverOutputError,
    backend_from_spec,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_FAULT = 3

# Draws per trial before a length curve or comparison gives up on it
MAX_ATTEMPTS = 1000

# Mean minimal word lengths for the one-hole random family (1000 samples per
# state count), from the measurement series this harness reproduces. The
# cubic trend over these points sits near 3.92 + 0.49n - 0.005n^2 +
# 0.000024n^3; `fit --reference` and the regression suite consume them.
REFERENCE_CURVE = (
    (10, 7.480),
    (15, 9.790),
    (17, 10.680),
    (20, 11.610),
    (23, 12.580),
    (25, 13.150),
    (28, 14.010),
    (30, 14.410),
    (35, 15.660),
    (40, 16.770),
    (45, 17.790),
    (50, 18.870),
    (55, 19.750),
    (60, 20.600),
    (65, 21.280),
    (70, 22.220),
    (80, 23.820),
    (90, 25.040),
    (100, 26.550),
)


@dataclass(frozen=True)
class ExperimentRow:
    """Aggregate statistics for one state count in a length-curve run."""

    n: int
    samples: int
    discards: int
    # kw_only lets a defaulted field sit before the timing column
    budget_hits: int = field(default=0, kw_only=True)
    mean_length: float
    rsd: float
    mean_time_s: float


@dataclass(frozen=True)
class ComparisonRow:
    """Timing of the solver pipeline against subset search, same instances."""

    n: int
    samples: int
    discards: int
    oracle_budget_hits: int = field(default=0, kw_only=True)
    sat_mean_s: float
    oracle_mean_s: float
    mismatches: int


@dataclass(frozen=True)
class FitResult:
    """Least-squares cubic c0 + c1*x + c2*x^2 + c3*x^3 over input points."""

    coefficients: tuple
    residual: float

    def predict(self, x: float) -> float:
        c0, c1, c2, c3 = self.coefficients
        return c0 + c1 * x + c2 * x * x + c3 * x**3


def _random_family(undefined_count: int) -> Callable[[int, int], Pfa]:
    """The random scheme with `undefined_count` holes, as (n, seed) -> Pfa."""

    def family(n: int, draw_seed: int) -> Pfa:
        return random_pfa(GenConfig(n=n, undefined_count=undefined_count, seed=draw_seed))

    return family


def _found_draws(
    n: int,
    samples: int,
    seed: int,
    family: Callable[[int, int], Pfa],
    answer: Callable[[Pfa], SearchOutcome],
    tally: Counter,
) -> Iterator[tuple]:
    """Per trial, the first draw whose answer is FOUND, as (pfa, outcome,
    seconds spent in `answer`).

    Draws answered otherwise add to tally["discards"] and budget overruns
    to tally["budget_hits"]; both are redrawn with the next attempt seed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    for trial in range(samples):
        for attempt in range(MAX_ATTEMPTS):
            pfa = family(n, trial_seed(seed, trial, attempt))
            start = time.perf_counter()
            try:
                outcome = answer(pfa)
            except BudgetExceeded:
                tally["budget_hits"] += 1
                continue
            elapsed = time.perf_counter() - start
            if outcome.status == FOUND:
                yield pfa, outcome, elapsed
                break
            tally["discards"] += 1
        else:
            raise RuntimeError(
                f"no synchronizing instance for n={n} in {MAX_ATTEMPTS} draws"
            )


def run_experiment(
    ns: Sequence[int],
    samples: int = 1000,
    seed: int = 0,
    *,
    undefined_count: int = 1,
    family: Optional[Callable[[int, int], Pfa]] = None,
    engine: str = "sat",
    backend: Optional[Backend] = None,
    max_length: int = DEFAULT_MAX_LENGTH,
    max_visited: int = DEFAULT_MAX_VISITED,
) -> list:
    """Measure mean minimal word length per state count over random draws.

    Each trial draws an automaton from `family` (default: the random scheme
    with `undefined_count` holes) and minimizes it. Draws whose answer is
    not FOUND are discarded and redrawn with a fresh attempt seed, and the
    discard count lands in the row; so do budget overruns, which are never
    fatal here. Identical arguments give identical rows apart from the
    timing column.

    The default engine drives the full solver pipeline. engine="oracle"
    computes the same lengths by exact subset reachability, which is the
    practical choice for large batches; both paths must agree instance for
    instance (compare_backends checks exactly that), so the statistics are
    interchangeable.
    """
    if engine not in ("sat", "oracle"):
        raise ValueError(f"unknown engine {engine!r}, expected 'sat' or 'oracle'")
    family = family or _random_family(undefined_count)
    if engine == "sat":
        answer = lambda pfa: min_csw(pfa, max_length=max_length, backend=backend)
    else:
        answer = lambda pfa: power_bfs(pfa, max_visited=max_visited)

    rows = []
    for n in ns:
        tally = Counter()
        draws = list(_found_draws(n, samples, seed, family, answer, tally))
        lengths = [outcome.min_length for _, outcome, _ in draws]
        mean = statistics.fmean(lengths)
        sd = statistics.stdev(lengths) if len(lengths) > 1 else 0.0
        rows.append(
            ExperimentRow(
                n=n,
                samples=samples,
                discards=tally["discards"],
                budget_hits=tally["budget_hits"],
                mean_length=mean,
                rsd=sd / mean if mean else 0.0,
                mean_time_s=statistics.fmean(seconds for _, _, seconds in draws),
            )
        )
    return rows


def compare_backends(
    ns: Sequence[int],
    samples: int = 50,
    seed: int = 0,
    *,
    undefined_count: int = 1,
    backend: Optional[Backend] = None,
    max_length: int = DEFAULT_MAX_LENGTH,
    max_visited: int = DEFAULT_MAX_VISITED,
) -> list:
    """Time both exact paths on identical instances and check they agree.

    Subset search runs first. Instances it refutes or runs out of budget on
    are redrawn, since only synchronizing inputs yield a length to compare.
    The solver pipeline then runs with its reachability pre-check off so
    its timing is a pure solver measurement.
    Any length disagreement is counted in the row's mismatch column; callers
    treat a nonzero count as a correctness failure.
    """
    family = _random_family(undefined_count)
    answer = lambda pfa: power_bfs(pfa, max_visited=max_visited)

    rows = []
    for n in ns:
        tally = Counter()
        sat_times = []
        oracle_times = []
        mismatches = 0
        for pfa, exact, oracle_elapsed in _found_draws(n, samples, seed, family, answer, tally):
            start = time.perf_counter()
            outcome = min_csw(pfa, max_length=max_length, backend=backend, precheck=False)
            sat_times.append(time.perf_counter() - start)
            oracle_times.append(oracle_elapsed)
            if outcome.status != FOUND or outcome.min_length != exact.min_length:
                mismatches += 1
        rows.append(
            ComparisonRow(
                n=n,
                samples=samples,
                discards=tally["discards"],
                oracle_budget_hits=tally["budget_hits"],
                sat_mean_s=statistics.fmean(sat_times),
                oracle_mean_s=statistics.fmean(oracle_times),
                mismatches=mismatches,
            )
        )
    return rows


def fit_cubic(points: Iterable) -> FitResult:
    """Exact least-squares cubic through the normal equations.

    Sums and the 4x4 solve run over rationals, so the only rounding is the
    final conversion of each coefficient to float. Needs at least four
    distinct abscissas; fewer leave the system rank deficient.
    """
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    if len({x for x, _ in pts}) < 4:
        raise ValueError("cubic fit needs at least 4 distinct x values")
    matrix = [[sum(x ** (i + j) for x, _ in pts) for j in range(4)] for i in range(4)]
    rhs = [sum(y * x**i for x, y in pts) for i in range(4)]
    coeffs = _solve_linear(matrix, rhs)
    residual = sum(
        (y - sum(c * x**k for k, c in enumerate(coeffs))) ** 2 for x, y in pts
    )
    try:
        return FitResult(coefficients=tuple(map(float, coeffs)), residual=float(residual))
    except OverflowError:
        raise ValueError("the cubic fit's coefficients or residual overflow a float") from None


def _solve_linear(matrix: list, rhs: list) -> list:
    """Gaussian elimination over Fractions; mutates its arguments."""
    size = len(rhs)
    for col in range(size):
        pivot = next((r for r in range(col, size) if matrix[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular normal equations")
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = Fraction(1) / matrix[col][col]
        matrix[col] = [v * inv for v in matrix[col]]
        rhs[col] *= inv
        for r in range(size):
            if r == col or matrix[r][col] == 0:
                continue
            factor = matrix[r][col]
            matrix[r] = [v - factor * p for v, p in zip(matrix[r], matrix[col])]
            rhs[r] -= factor * rhs[col]
    return rhs


def _sep(fmt: str) -> str:
    try:
        return {"csv": ",", "tsv": "\t"}[fmt]
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}, expected 'csv' or 'tsv'") from None


def _table(row_type: type, rows: Sequence, fmt: str) -> str:
    """One header line of field names, then one line per row: ints as
    they are, floats to six decimals."""
    sep = _sep(fmt)
    lines = [sep.join(f.name for f in fields(row_type))]
    for r in rows:
        cells = (f"{v:.6f}" if isinstance(v, float) else str(v) for v in astuple(r))
        lines.append(sep.join(cells))
    return "\n".join(lines) + "\n"


def experiment_csv(rows: Sequence, fmt: str = "csv") -> str:
    return _table(ExperimentRow, rows, fmt)


def comparison_csv(rows: Sequence, fmt: str = "csv") -> str:
    return _table(ComparisonRow, rows, fmt)


def write_gnuplot(prefix, rows: Sequence) -> tuple:
    """Write a plot-ready data file and a matching gnuplot script."""
    prefix = Path(prefix)
    dat = prefix.with_suffix(".dat")
    gp = prefix.with_suffix(".gp")
    lines = ["# n mean_length rsd mean_time_s"]
    for r in rows:
        lines.append(f"{r.n} {r.mean_length:.6f} {r.rsd:.6f} {r.mean_time_s:.6f}")
    dat.write_text("\n".join(lines) + "\n")
    gp.write_text(
        "\n".join(
            (
                "set terminal pngcairo size 900,600",
                f'set output "{prefix.name}.png"',
                'set xlabel "states"',
                'set ylabel "mean minimal word length"',
                "set key left top",
                f'plot "{dat.name}" using 1:2 with linespoints title "mean length", \\',
                f'     "{dat.name}" using 1:($2*$3) with linespoints title "std dev"',
            )
        )
        + "\n"
    )
    return dat, gp


# ---------------------------------------------------------------------------
# command surface


class _ArgumentParser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _read_pfa(path: str) -> Pfa:
    return parse_pfa(_read_text(path))


def _backend(args) -> Backend:
    limits = SolverLimits(
        max_conflicts=args.max_conflicts,
        max_decisions=args.max_decisions,
        max_seconds=args.max_seconds,
    )
    return backend_from_spec(args.backend, seed=args.seed, limits=limits)


def _parse_ns(text: str) -> list:
    """State counts as '6,8,10' with optional inclusive ranges '6-14'."""
    ns = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        head, dash, tail = token.partition("-")
        if dash and head:
            ns.extend(range(int(head), int(tail) + 1))
        else:
            ns.append(int(token))
    if not ns:
        raise ValueError("empty state-count list")
    return ns


def _parse_points(text: str) -> list:
    """Rows of (x, y) from CSV, TSV, or whitespace columns.

    A leading header row picks the columns by name when it carries 'n' and
    'mean_length'; otherwise the first two columns are used.
    """
    col_x, col_y = 0, 1
    points = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "," in line:
            parts = [p.strip() for p in line.split(",")]
        elif "\t" in line:
            parts = [p.strip() for p in line.split("\t")]
        else:
            parts = line.split()
        try:
            # a row too short for column x is tested on its last field
            float(parts[min(col_x, len(parts) - 1)])
        except ValueError:
            lowered = [p.lower() for p in parts]
            if "n" in lowered:
                col_x = lowered.index("n")
            if "mean_length" in lowered:
                col_y = lowered.index("mean_length")
            continue
        if len(parts) <= max(col_x, col_y):
            raise ValueError(
                f"line {number} has {len(parts)} column(s); "
                f"x and y need {max(col_x, col_y) + 1}"
            )
        point = (float(parts[col_x]), float(parts[col_y]))
        if not all(map(math.isfinite, point)):
            raise ValueError(f"line {number} holds a value that is not finite")
        points.append(point)
    return points


def _model_lines(model: dict, var_count: int) -> list:
    lits = [v if model.get(v, False) else -v for v in range(1, var_count + 1)]
    lits.append(0)
    return [
        "v " + " ".join(str(x) for x in lits[i : i + 18])
        for i in range(0, len(lits), 18)
    ]


def _cmd_encode(args) -> int:
    pfa = _read_pfa(args.input)
    instance = encode(pfa, args.length)
    _write_text(args.output, to_dimacs(instance, comment=layout_comment(instance.layout)))
    return EXIT_OK


def _cmd_solve(args) -> int:
    text = _read_text(args.input)
    if any(line.strip().startswith("p cnf") for line in text.splitlines()):
        instance = parse_dimacs(text)
    else:
        if args.length is None:
            raise ValueError("a transition-table input needs --length")
        instance = encode(parse_pfa(text), args.length)
    result = _backend(args).run(instance)
    if result.status == SAT:
        print("s SATISFIABLE")
        for line in _model_lines(result.model, instance.var_count):
            print(line)
        if instance.layout is not None:
            try:
                word = decode_word(result.model, instance.layout)
            except DecodeError:
                pass
            else:
                print(f"c word {word_to_letters(word)}")
    else:
        print("s UNSATISFIABLE")
    return EXIT_OK


def _cmd_min(args) -> int:
    pfa = _read_pfa(args.input)
    outcome = min_csw(
        pfa,
        max_length=args.max_length,
        backend=_backend(args),
        precheck=not args.no_precheck,
    )
    if args.emit_probes is not None:
        lines = ["length,status,seconds,conflicts,decisions,propagations,clauses,escalations"]
        lines.extend(
            f"{p.length},{p.status},{p.seconds:.6f},"
            f"{p.stats.conflicts},{p.stats.decisions},{p.stats.propagations},{p.clauses},"
            + ";".join(f"{conflicts}:{size}" for conflicts, size in p.escalations)
            for p in outcome.probes
        )
        _write_text(args.emit_probes, "\n".join(lines) + "\n")
    print(f"status: {outcome.status}")
    if outcome.probes:
        print(f"upper_bound_source: {outcome.upper_bound_source or 'none'}")
    if outcome.status == FOUND:
        print(f"min_length: {outcome.min_length}")
        print(f"word: {word_to_letters(outcome.witness)}")
        print(f"probes: {len(outcome.probes)}")
    elif outcome.status == UNKNOWN_UP_TO_BOUND:
        print(f"bound: {outcome.bound}")
        return EXIT_BUDGET
    elif outcome.visited is not None:
        print(f"visited: {outcome.visited}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    pfa = _read_pfa(args.input)
    outcome = power_bfs(pfa, max_visited=args.max_visited)
    print(f"status: {outcome.status}")
    if outcome.status == FOUND:
        print(f"min_length: {outcome.min_length}")
        print(f"word: {word_to_letters(outcome.witness)}")
    print(f"visited: {outcome.visited}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    if args.family == "pn":
        if args.count != 1:
            raise ValueError("the chain family is deterministic; --count must be 1")
        items = [(f"family=pn n={args.n}", f"pn_n{args.n}.txt", pn(args.n))]
    else:
        items = []
        for t in range(args.count):
            seed = trial_seed(args.seed, t)
            cfg = GenConfig(n=args.n, undefined_count=args.k, seed=seed)
            items.append(
                (
                    f"family=random n={args.n} k={args.k} seed={seed}",
                    f"random_n{args.n}_k{args.k}_{t:04d}.txt",
                    random_pfa(cfg),
                )
            )
    texts = [serialize_pfa(pfa, comment=comment) for comment, _, pfa in items]
    if args.output is None:
        if len(texts) > 1:
            raise ValueError("writing multiple automata needs --output DIR")
        sys.stdout.write(texts[0])
        return EXIT_OK
    out = Path(args.output)
    if len(texts) == 1 and not out.is_dir():
        out.write_text(texts[0])
        return EXIT_OK
    out.mkdir(parents=True, exist_ok=True)
    for (_, name, _), text in zip(items, texts):
        (out / name).write_text(text)
    return EXIT_OK


def _cmd_bench(args) -> int:
    kwargs = dict(
        samples=args.samples,
        seed=args.seed,
        undefined_count=args.k,
        backend=_backend(args),
        max_length=args.max_length,
        max_visited=args.max_visited,
    )
    if args.mode == "curve":
        rows = run_experiment(args.ns, engine=args.engine, **kwargs)
        _write_text(args.output, experiment_csv(rows, args.format))
        if args.gnuplot:
            write_gnuplot(args.gnuplot, rows)
        return EXIT_OK
    rows = compare_backends(args.ns, **kwargs)
    _write_text(args.output, comparison_csv(rows, args.format))
    bad = [r for r in rows if r.mismatches]
    for r in bad:
        print(
            f"error: n={r.n}: {r.mismatches} instances where the two "
            "exact paths disagree",
            file=sys.stderr,
        )
    return EXIT_FAULT if bad else EXIT_OK


def _cmd_fit(args) -> int:
    if args.reference:
        points = list(REFERENCE_CURVE)
    elif args.input is not None:
        points = _parse_points(_read_text(args.input))
    else:
        raise ValueError("fit needs a data file or --reference")
    result = fit_cubic(points)
    for name, value in zip(("c0", "c1", "c2", "c3"), result.coefficients):
        print(f"{name}: {value!r}")
    print(f"residual: {result.residual!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="cswsat",
        description="Minimal careful-synchronization words via a SAT pipeline.",
    )
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    parser.add_argument(
        "--backend",
        default="builtin",
        help="'builtin' or 'external:<command>' (supports {cnf}/{out} placeholders)",
    )
    parser.add_argument(
        "--format", choices=("csv", "tsv"), default="csv", help="table output format"
    )
    parser.add_argument("--max-conflicts", type=int, default=None)
    parser.add_argument("--max-decisions", type=int, default=None)
    parser.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="per-solve time budget; doubles as the external solver timeout",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="transition table + length to DIMACS CNF")
    p.add_argument("input", help="transition-table file, or - for stdin")
    p.add_argument("--length", "-l", type=int, required=True)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("solve", help="solve a DIMACS file or a table at one length")
    p.add_argument("input", help="DIMACS or transition-table file, - for stdin")
    p.add_argument("--length", "-l", type=int, default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("min", help="minimal synchronizing word via length probes")
    p.add_argument("input")
    p.add_argument("--max-length", type=int, default=DEFAULT_MAX_LENGTH)
    p.add_argument(
        "--emit-probes", default=None, help="write the probe record as CSV, - for stdout"
    )
    p.add_argument(
        "--no-precheck",
        action="store_true",
        help="skip the reachability pre-check and its upper bound; probes gallop from length 1",
    )
    p.set_defaults(func=_cmd_min)

    p = sub.add_parser("oracle", help="exact subset-reachability search")
    p.add_argument("input")
    p.add_argument("--max-visited", type=int, default=DEFAULT_MAX_VISITED)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="write benchmark automata")
    p.add_argument("--family", choices=("random", "pn"), default="random")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1, help="undefined transitions (random)")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--output", "-o", default=None, help="file, or directory for --count > 1")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="length curves and backend comparisons")
    bench_sub = p.add_subparsers(dest="mode", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--n-list", dest="ns", type=_parse_ns, required=True)
    shared.add_argument("--k", type=int, default=1)
    shared.add_argument("--max-length", type=int, default=DEFAULT_MAX_LENGTH)
    shared.add_argument("--max-visited", type=int, default=DEFAULT_MAX_VISITED)
    shared.add_argument("--output", "-o", default=None)

    c = bench_sub.add_parser(
        "curve", parents=[shared], help="mean minimal length per state count"
    )
    c.add_argument("--samples", type=int, default=1000)
    c.add_argument("--engine", choices=("sat", "oracle"), default="sat")
    c.add_argument("--gnuplot", default=None, help="also write PREFIX.dat and PREFIX.gp")
    c.set_defaults(func=_cmd_bench)

    c = bench_sub.add_parser(
        "compare", parents=[shared], help="solver pipeline vs subset search"
    )
    c.add_argument("--samples", type=int, default=50)
    c.set_defaults(func=_cmd_bench)

    p = sub.add_parser("fit", help="least-squares cubic over (n, length) rows")
    p.add_argument("input", nargs="?", default=None, help="CSV/TSV file, - for stdin")
    p.add_argument(
        "--reference",
        action="store_true",
        help="fit the built-in reference curve instead of a file",
    )
    p.set_defaults(func=_cmd_fit)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ModelVerificationError, SolverOutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAULT
    except (
        PfaFormatError,
        DimacsError,
        ExternalSolverError,
        ValueError,
        OSError,
        RuntimeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
