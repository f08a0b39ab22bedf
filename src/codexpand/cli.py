"""Command-line front end.

Subcommands
-----------
analyze
    Efficiency curve of one codebook over a load range, as CSV.
simulate
    Monte Carlo batch per load point, from a JSON scenario or flags.
inspect-chain
    Dump the observation chain (states, cardinalities, initial vector,
    integer transition counts) as CSV.
thresholds
    Load-adaptive codebook schedule over a grid, as CSV.
reproduce
    Canned parameter sets that regenerate the library's standard figures,
    one CSV per curve plus an SVG overlay.

Exit codes: 0 success, 2 usage or invalid values, 3 a configured capacity
cap was exceeded, 4 an input file could not be parsed.  Every run writes a
manifest JSON recording the resolved parameters; re-running a command with
the parameters from its manifest reproduces the CSV output byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Mapping, Sequence

from . import __version__
from .codebook import CodebookSpec, Mode, codebook_size
from .contention import expected_singles_curve, expected_used_curve
from .errors import (
    CodexpandError,
    DomainError,
    EnumerationTooLarge,
    InputParseError,
    SizeExceedsCap,
    StateSpaceTooLarge,
)
from .markov import build_transition_model, perceived_curve
from .planner import default_candidates, efficiency_curve, threshold_schedule
from .reporting import chain_dump, format_float, svg_line_plot, write_csv, write_manifest
from .simulate import AggregateStats, Estimate, ScenarioConfig, run_batch

#: Master seed used when a command that needs randomness is not given one.
DEFAULT_SEED = 24601
#: Trials per load point unless overridden.
DEFAULT_TRIALS = 10**5
#: Load grids default to 1..LOAD_SPAN_FACTOR * codebook size, step 1.
LOAD_SPAN_FACTOR = 10
#: Largest chain the inspect-chain dump will print.
DUMP_STATE_CAP = 10**4

_SIMULATE_HEADER = ["N", "mean_singles", "mean_perceived", "mean_phantoms",
                    "efficiency", "se_efficiency"]


def parse_inline_spec(text: str) -> CodebookSpec:
    """Parse the compact spec grammar, e.g. ``L=2,m=2,2,mode=expanded``.

    Keys: ``L`` (sub-frames), ``m`` (one budget per sub-frame, or a single
    budget reused L times), ``mode`` (reference or expanded), optional ``M``
    (provisioned preambles).  Bare values after ``m=`` extend the budget list.
    The tokens form the mapping a JSON spec holds, validated by
    `spec_from_json_value`.
    """
    data: dict[str, str | list[str]] = {}
    collecting: list[str] | None = None
    for token in text.split(","):
        token = token.strip()
        key, sep, value = token.partition("=")
        if sep:
            key = key.strip()
            if key in data:
                raise DomainError(f"duplicate key {key!r} in spec {text!r}")
            data[key] = [value.strip()] if key == "m" else value.strip()
            collecting = data[key] if key == "m" else None
        elif collecting is not None and token:
            collecting.append(token)
        else:
            raise DomainError(f"cannot parse spec token {token!r} in {text!r}")
    return spec_from_json_value(data, text)


def spec_from_json_value(value, source: str) -> CodebookSpec:
    """Build a spec from an inline string, or from an object with the keys of
    the inline grammar (``m`` a list of budgets or a single one).

    Numbers must be integral: JSON integers, integral floats such as 2.0, or
    strings that `int` parses.
    """
    if isinstance(value, str):
        return parse_inline_spec(value)
    if not isinstance(value, Mapping):
        raise DomainError(f"spec in {source} must be a string or an object")
    leftovers = sorted(set(value) - {"L", "m", "mode", "M"})
    if leftovers:
        raise DomainError(f"unknown spec keys {leftovers} in {source!r}")
    mode, budgets = value.get("mode"), value.get("m")
    if mode not in ("reference", "expanded"):
        raise DomainError(f"spec {source!r} needs mode=reference or mode=expanded")
    if budgets is None:
        raise DomainError(f"spec {source!r} needs per-sub-frame budgets m=...")
    budgets = [_spec_int(b, "m", source) for b in
               (budgets if isinstance(budgets, list) else [budgets])]
    length = len(budgets) if value.get("L") is None else _spec_int(value["L"], "L", source)
    if len(budgets) == 1 and length > 1:
        budgets = budgets * length
    if len(budgets) != length:
        raise DomainError(f"spec {source!r} lists {len(budgets)} budgets for L={length}")
    m_global = None if value.get("M") is None else _spec_int(value["M"], "M", source)
    if mode == "reference":
        if len(set(budgets)) != 1:
            raise DomainError("reference mode uses one uniform preamble budget")
        return CodebookSpec.reference(budgets[0], length, m_global)
    return CodebookSpec.expanded(budgets, m_global)


def _spec_int(value, name: str, source: str) -> int:
    """A spec number: a string parsed by `int`, or a JSON number as `_scenario_int`
    takes it."""
    if not isinstance(value, str):
        return _scenario_int(value, name, source)
    try:
        return int(value)
    except ValueError:
        raise DomainError(f"non-integer {name} {value!r} in spec {source!r}") from None


def load_spec(text: str) -> CodebookSpec:
    """Resolve a --spec value: a JSON file path, or the inline grammar."""
    path = Path(text)
    if path.is_file():
        return spec_from_json_value(_load_json(path), str(path))
    return parse_inline_spec(text)


def _load_json(path: Path):
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputParseError(f"{path} is not valid JSON: {exc}") from exc


def parse_n_range(text: str) -> list[int]:
    """Parse ``A``, ``A:B``, or ``A:B:STEP`` into an inclusive load grid."""
    fields = text.split(":")
    if len(fields) > 3:
        raise DomainError(f"load range {text!r} is not A, A:B, or A:B:STEP")
    try:
        numbers = [int(f) for f in fields]
    except ValueError as exc:
        raise DomainError(f"non-integer load range {text!r}") from exc
    start = numbers[0]
    stop = numbers[1] if len(numbers) > 1 else start
    step = numbers[2] if len(numbers) > 2 else 1
    if start < 1 or stop < start or step < 1:
        raise DomainError(f"load range {text!r} must satisfy 1 <= A <= B, STEP >= 1")
    return list(range(start, stop + 1, step))


def _default_grid(size: int) -> list[int]:
    return list(range(1, LOAD_SPAN_FACTOR * size + 1))


def _simulate(spec: CodebookSpec, grid: Sequence[int], trials: int,
              seed: int, workers: int) -> list[AggregateStats]:
    return [run_batch(ScenarioConfig(spec, n, trials, seed), workers=workers) for n in grid]


def _z_score(estimate: Estimate, analytic: float) -> float | None:
    return (estimate.mean - analytic) / estimate.se if estimate.se else None


def _diagnostics(spec: CodebookSpec, grid: Sequence[int],
                 batches: Sequence[AggregateStats]) -> list[dict]:
    """Analytic singles and perceived means per load, with each sample mean's z-score.

    Reference observations are unambiguous, so there perceived is the
    expected number of used codewords, ``A (1 - (1 - 1/A)^N)``.
    """
    size = codebook_size(spec)
    singles = expected_singles_curve(grid, size).tolist()
    perceived = (perceived_curve(spec, grid) if spec.mode is Mode.EXPANDED
                 else expected_used_curve(grid, size)).tolist()
    return [
        {
            "N": n,
            "analytic_singles": s,
            "z_singles": _z_score(stats.singles, s),
            "analytic_perceived": p,
            "z_perceived": _z_score(stats.perceived, p),
        }
        for n, stats, s, p in zip(grid, batches, singles, perceived)
    ]


def _scenario_int(value, name: str, source: str) -> int:
    """A scenario or spec number that must be integral: a JSON integer, or a
    float such as 7.0."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{source} has a non-integer {name}: {value!r}")
    return value


def _stats_row(n: int, stats: AggregateStats) -> list[str]:
    se = stats.efficiency.se
    return [
        str(n),
        format_float(stats.singles.mean),
        format_float(stats.perceived.mean),
        format_float(stats.phantoms.mean),
        format_float(stats.efficiency.mean),
        format_float(se) if se is not None else "",
    ]


def _grid_parameter(grid: Sequence[int]) -> str | list[int]:
    """Compact ``A:B:STEP`` form when the grid rises by one positive step, else
    the list; either form re-runs the same grid."""
    if len(grid) == 1:
        return f"{grid[0]}:{grid[0]}:1"
    steps = {b - a for a, b in zip(grid, grid[1:])}
    if len(steps) == 1 and (step := steps.pop()) > 0:
        return f"{grid[0]}:{grid[-1]}:{step}"
    return list(grid)


def _write_outputs(out_dir: Path, command: str, parameters: dict,
                   master_seed: int | None, started: float,
                   outputs: dict[str, Callable[[Path], None]],
                   manifest_name: str | None = None, extra: Mapping | None = None) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, write in outputs.items():
        write(out_dir / name)
    manifest = {
        "command": command,
        "parameters": parameters,
        "master_seed": master_seed,
        "version": __version__,
        "outputs": sorted(outputs),
        "duration_seconds": round(time.perf_counter() - started, 6),
        **(extra or {}),
    }
    if manifest_name is None:
        manifest_name = f"{command.replace('-', '_')}_manifest.json"
    write_manifest(out_dir / manifest_name, manifest)


def cmd_analyze(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    spec = load_spec(args.spec)
    grid = parse_n_range(args.n_range) if args.n_range else _default_grid(codebook_size(spec))
    curve = efficiency_curve(spec, grid)
    rows = [[str(n), format_float(e)] for n, e in curve]
    _write_outputs(
        Path(args.out), "analyze",
        {"spec": spec.describe(), "n_range": _grid_parameter(grid)},
        None, started,
        {"analyze.csv": lambda p: write_csv(p, ["N", "efficiency"], rows)},
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.scenario:
        if args.spec:
            raise DomainError("give either --scenario or --spec, not both")
        doc = _load_json(Path(args.scenario))
        if not isinstance(doc, Mapping):
            raise InputParseError(f"{args.scenario} must hold a JSON object")
        if "spec" not in doc:
            raise DomainError(f"scenario {args.scenario} is missing 'spec'")
        spec = spec_from_json_value(doc["spec"], args.scenario)
        loads = doc.get("N")
        if loads is None:
            raise DomainError(f"scenario {args.scenario} is missing 'N'")
        loads = loads if isinstance(loads, list) else [loads]
        grid = [_scenario_int(n, "N", args.scenario) for n in loads]
        if not grid:
            raise DomainError(f"scenario {args.scenario} has an empty 'N' list")
        trials = _scenario_int(doc.get("trials", args.trials), "trials", args.scenario)
        seed = _scenario_int(doc.get("master_seed", args.seed), "master_seed", args.scenario)
    else:
        if not args.spec:
            raise DomainError("simulate needs --scenario FILE or --spec SPEC")
        spec = load_spec(args.spec)
        grid = parse_n_range(args.n_range) if args.n_range else _default_grid(codebook_size(spec))
        trials, seed = args.trials, args.seed
    batches = _simulate(spec, grid, trials, seed, args.workers)
    rows = [_stats_row(n, stats) for n, stats in zip(grid, batches)]
    _write_outputs(
        Path(args.out), "simulate",
        {"spec": spec.describe(), "n_range": _grid_parameter(grid), "trials": trials},
        seed, started,
        {"simulate.csv": lambda p: write_csv(p, _SIMULATE_HEADER, rows)},
        extra={"diagnostics": _diagnostics(spec, grid, batches)},
    )
    return 0


def cmd_inspect_chain(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    spec = load_spec(args.spec)
    model = build_transition_model(spec, cap=DUMP_STATE_CAP)
    header, rows = chain_dump(model)
    _write_outputs(
        Path(args.out), "inspect-chain",
        {"spec": spec.describe()},
        None, started,
        {"chain.csv": lambda p: write_csv(p, header, rows)},
    )
    return 0


def cmd_thresholds(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    # the spec checks the geometry before the default grid is sized from it
    full = CodebookSpec.expanded((args.preambles,) * args.length)
    grid = parse_n_range(args.n_range) if args.n_range else _default_grid(codebook_size(full))
    candidates = default_candidates(
        args.length, args.preambles, grid, args.reference_preambles
    )
    schedule = threshold_schedule(candidates)
    rows = []
    for seg in schedule.segments:
        rows.append([
            str(seg.n_low),
            str(seg.n_high),
            seg.spec.mode.value,
            "|".join(str(b) for b in seg.spec.budgets),
            str(codebook_size(seg.spec)),
            format_float(seg.efficiency_low),
            format_float(seg.efficiency_high),
        ])
    header = ["N_low", "N_high", "mode", "budgets", "cardinality",
              "efficiency_low", "efficiency_high"]
    _write_outputs(
        Path(args.out), "thresholds",
        {
            "length": args.length,
            "preambles": args.preambles,
            "reference_preambles": args.reference_preambles,
            "n_range": _grid_parameter(grid),
        },
        None, started,
        {"thresholds.csv": lambda p: write_csv(p, header, rows)},
    )
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    figure = args.figure
    trials = args.trials
    seed = args.seed
    csv_files: dict[str, Callable[[Path], None]] = {}
    plot_curves: list[tuple[str, Sequence[float], Sequence[float]]] = []

    def add_curve(name: str, label: str, spec: CodebookSpec, grid: list[int]) -> None:
        curve = efficiency_curve(spec, grid)
        rows = [[str(n), format_float(e)] for n, e in curve]
        csv_files[f"{figure}_{name}.csv"] = (
            lambda p, r=rows: write_csv(p, ["N", "efficiency"], r)
        )
        plot_curves.append((label, [n for n, _ in curve], [e for _, e in curve]))

    if figure == "comparison":
        grid = parse_n_range(args.n_range) if args.n_range else _default_grid(8)
        add_curve("reference", "reference, M=2", CodebookSpec.reference(2, 2), grid)
        add_curve("expanded", "code-expanded, M=2", CodebookSpec.expanded((2, 2)), grid)
        batches = _simulate(CodebookSpec.expanded((2, 2)), grid, trials, seed, args.workers)
        mc_rows = [_stats_row(n, stats) for n, stats in zip(grid, batches)]
        csv_files[f"{figure}_montecarlo.csv"] = (
            lambda p: write_csv(p, _SIMULATE_HEADER, mc_rows)
        )
        plot_curves.append((
            "code-expanded, Monte Carlo",
            [float(r[0]) for r in mc_rows],
            [float(r[4]) for r in mc_rows],
        ))
        parameters = {"figure": figure, "n_range": _grid_parameter(grid), "trials": trials}
    elif figure in ("adaptive-l2m4", "adaptive-l4m4"):
        length = 2 if figure == "adaptive-l2m4" else 4
        m = 4
        full = codebook_size(CodebookSpec.expanded((m,) * length))
        grid = parse_n_range(args.n_range) if args.n_range else _default_grid(full)
        seed = None
        add_curve("reference", f"reference, M={m}",
                  CodebookSpec.reference(m, length), grid)
        candidates = default_candidates(length, m, grid)
        for spec in candidates.candidates[1:]:
            size = codebook_size(spec)
            add_curve(f"card{size}", f"code-expanded, {size} codewords", spec, grid)
        parameters = {"figure": figure, "n_range": _grid_parameter(grid)}
    elif figure == "application-l4":
        grid = parse_n_range(args.n_range) if args.n_range else _default_grid(624)
        seed = None
        add_curve("reference", "reference, M=32", CodebookSpec.reference(32, 4), grid)
        add_curve("m3", "code-expanded, M=3", CodebookSpec.expanded((3,) * 4), grid)
        add_curve("m4", "code-expanded, M=4", CodebookSpec.expanded((4,) * 4), grid)
        parameters = {"figure": figure, "n_range": _grid_parameter(grid)}
    else:  # pragma: no cover - argparse choices reject unknown ids first
        raise DomainError(f"unknown figure id {figure!r}")

    csv_files[f"{figure}.svg"] = lambda p: svg_line_plot(
        p, plot_curves, figure, "contending users N", "efficiency"
    )
    _write_outputs(Path(args.out), "reproduce", parameters, seed, started, csv_files,
                   manifest_name=f"{figure.replace('-', '_')}_manifest.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codexpand",
        description="Contention analysis and planning for code-expanded random access.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, spec: bool = True) -> None:
        if spec:
            p.add_argument("--spec", help='codebook: "L=2,m=2,2,mode=expanded" or a JSON file')
        p.add_argument("--n-range", help="load grid A, A:B, or A:B:STEP (inclusive)")
        p.add_argument("--out", default=".", help="output directory (default: current)")

    p = sub.add_parser("analyze", help="analytic efficiency curve as CSV")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="Monte Carlo batch per load point")
    p.add_argument("--scenario", help="JSON file {spec, N or N-list, trials, master_seed}")
    add_common(p)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed")
    p.add_argument("--workers", type=int, default=1, help="parallel processes")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("inspect-chain", help="dump the observation chain as CSV")
    p.add_argument("--spec", required=True,
                   help='codebook: "L=2,m=2,2,mode=expanded" or a JSON file')
    p.add_argument("--out", default=".", help="output directory (default: current)")
    p.set_defaults(func=cmd_inspect_chain)

    p = sub.add_parser("thresholds", help="load-adaptive codebook schedule as CSV")
    p.add_argument("--length", type=int, required=True, help="sub-frames per virtual frame")
    p.add_argument("--preambles", type=int, required=True, help="preambles per sub-frame")
    p.add_argument("--reference-preambles", type=int, default=None,
                   help="baseline scheme preamble count, when different")
    p.add_argument("--n-range", help="load grid A, A:B, or A:B:STEP (inclusive)")
    p.add_argument("--out", default=".", help="output directory (default: current)")
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("reproduce", help="regenerate a standard figure (CSV + SVG)")
    p.add_argument("--figure", required=True,
                   choices=["comparison", "adaptive-l2m4", "adaptive-l4m4", "application-l4"])
    p.add_argument("--n-range", help="override the figure's default load grid")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed")
    p.add_argument("--workers", type=int, default=1, help="parallel processes")
    p.add_argument("--out", default=".", help="output directory (default: current)")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StateSpaceTooLarge, SizeExceedsCap, EnumerationTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InputParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, CodexpandError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
