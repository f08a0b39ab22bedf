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

Exit codes: 0 success, 2 usage, bad values or unwritable outputs, 3 a cap
was exceeded, 4 an input file could not be parsed.  Every run writes a
manifest JSON recording the resolved parameters; re-running a command with
the parameters from its manifest reproduces the CSV output byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import __version__
from .codebook import CodebookSpec, _whole_loads, codebook_size, whole_number
from .contention import expanded_efficiency_curve, expected_singles_curve, perceived_curve
from .errors import (
    CodexpandError,
    DomainError,
    EnumerationTooLarge,
    InputParseError,
    SizeExceedsCap,
    StateSpaceTooLarge,
)
from .markov import build_transition_model
from .planner import default_candidates, threshold_schedule
from .reporting import chain_dump, svg_line_plot, write_csv, write_manifest
from .simulate import AggregateStats, Estimate, ScenarioConfig, block_count, run_batch

#: Master seed used when a command that needs randomness is not given one.
DEFAULT_SEED = 24601
#: Trials per load point unless overridden.
DEFAULT_TRIALS = 10**5
#: Load grids default to 1..LOAD_SPAN_FACTOR * codebook size, step 1.
LOAD_SPAN_FACTOR = 10
#: Largest chain the inspect-chain dump will print.
DUMP_STATE_CAP = 10**4

_BATCH_HEADER = ["N", "mean_singles", "mean_perceived", "mean_phantoms",
                 "efficiency", "se_efficiency"]
_CURVE_HEADER = ["N", "efficiency"]
#: One efficiency-curve row: a load and its efficiency.
_CURVE_ROW = "{},{:.6f}"


class Figure(NamedTuple):
    """A standard figure: its default grid spans ``LOAD_SPAN_FACTOR * size``
    loads; ``curves(grid)`` names its analytic curves as ``(name, label,
    spec)``; ``montecarlo`` is the codebook simulated beside them, if any."""

    size: int
    curves: Callable[[np.ndarray], list[tuple[str, str, CodebookSpec]]]
    montecarlo: CodebookSpec | None = None


def _adaptive(length: int) -> Callable[[np.ndarray], list]:
    """The reference scheme and every candidate codebook of the adaptive
    schedule over 4 preambles per sub-frame, searched only when the figure is
    drawn."""
    m = 4

    def curves(grid: np.ndarray) -> list[tuple[str, str, CodebookSpec]]:
        reference, *expanded = default_candidates(length, m, grid).candidates
        sizes = map(codebook_size, expanded)
        return [("reference", f"reference, M={m}", reference),
                *((f"card{a}", f"code-expanded, {a} codewords", spec)
                  for a, spec in zip(sizes, expanded))]
    return curves


#: The figures `reproduce` draws; sizes are the full expanded codebooks'.
FIGURES = {
    "comparison": Figure(8, lambda grid: [
        ("reference", "reference, M=2", CodebookSpec.reference(2, 2)),
        ("expanded", "code-expanded, M=2", CodebookSpec.expanded((2, 2))),
    ], montecarlo=CodebookSpec.expanded((2, 2))),
    "adaptive-l2m4": Figure(24, _adaptive(2)),
    "adaptive-l4m4": Figure(624, _adaptive(4)),
    "application-l4": Figure(624, lambda grid: [
        ("reference", "reference, M=32", CodebookSpec.reference(32, 4)),
        ("m3", "code-expanded, M=3", CodebookSpec.expanded((3,) * 4)),
        ("m4", "code-expanded, M=4", CodebookSpec.expanded((4,) * 4)),
    ]),
}


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
    """A spec number: a string parsed by `int`, or a number by `whole_number`'s rule."""
    if not isinstance(value, str):
        return whole_number(value, f"{name} in spec {source!r}")
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


def parse_n_range(text: str) -> np.ndarray:
    """Parse ``A``, ``A:B``, or ``A:B:STEP`` into an inclusive load grid, a
    read-only int64 array (`codebook._whole_loads`)."""
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
    grid = np.arange(start, stop + 1, step)
    grid.flags.writeable = False  # so that no layer copies it
    return _whole_loads(grid)


def _grid(args: argparse.Namespace, size: int) -> tuple[np.ndarray, str]:
    """The ``--n-range`` grid, else loads 1 to ``LOAD_SPAN_FACTOR * size``,
    with its manifest form ``A:B:STEP``, read off the range's first two loads
    rather than a pass over the grid."""
    grid = parse_n_range(args.n_range or f"1:{LOAD_SPAN_FACTOR * size}")
    step = grid[1] - grid[0] if len(grid) > 1 else 1
    return grid, f"{grid[0]}:{grid[-1]}:{step}"


def _simulate(spec: CodebookSpec, grid: np.ndarray, trials: int,
              seed: int, workers: int) -> list[AggregateStats]:
    configs = [ScenarioConfig(spec, n, trials, seed) for n in grid]
    if workers < 2:
        return [run_batch(config, workers) for config in configs]
    from concurrent.futures import ProcessPoolExecutor  # costs ~15 ms to import

    with ProcessPoolExecutor(max_workers=workers) as pool:  # one pool for every load
        return [run_batch(config, workers, pool) for config in configs]


def _z_score(estimate: Estimate, analytic: float) -> float | None:
    return (estimate.mean - analytic) / estimate.se if estimate.se else None


def _diagnostics(spec: CodebookSpec, grid: np.ndarray,
                 batches: Sequence[AggregateStats]) -> list[dict]:
    """Analytic singles and perceived means per load, with each sample mean's
    z-score; a reference codebook perceives exactly its used codewords."""
    singles = expected_singles_curve(grid, codebook_size(spec)).tolist()
    perceived = perceived_curve(spec, grid).tolist()
    return [
        {
            "N": n,
            "analytic_singles": s,
            "z_singles": _z_score(stats.singles, s),
            "analytic_perceived": p,
            "z_perceived": _z_score(stats.perceived, p),
        }
        for n, stats, s, p in zip(grid.tolist(), batches, singles, perceived)
    ]


def _max_abs_z(diagnostics: Sequence[Mapping]) -> dict | None:
    """The largest |z| over ``diagnostics``, with its load and field (the
    first in load order on a tie); ``None`` when every z-score is ``None``."""
    scores = [(abs(d[field]), d["N"], field) for d in diagnostics
              for field in ("z_singles", "z_perceived") if d[field] is not None]
    if not scores:
        return None
    abs_z, n, field = max(scores, key=lambda score: score[0])
    return {"abs_z": abs_z, "N": n, "field": field}


def _simulate_sizes(spec: CodebookSpec, batches: Sequence[AggregateStats],
                    seconds: float) -> dict:
    """What drives a Monte Carlo run's cost, over all its loads, and the
    trials it ran per second."""
    trials = sum(b.trials for b in batches)
    return {
        "codebook_size": codebook_size(spec),
        "loads": len(batches),
        "trials": trials,
        "blocks": sum(block_count(b.scenario) for b in batches),
        "trials_per_second": round(trials / seconds, 1) if seconds > 0 else None,
    }


def _write_batches(path: Path, grid: np.ndarray, batches: Sequence[AggregateStats],
                   trials: int) -> None:
    """One row per load: mean singles, perceived and phantoms, and the
    efficiency with its standard error, an empty cell below two trials (where
    `Estimate.se` is ``None`` and the pattern leaves it unused)."""
    row = "{},{:.6f},{:.6f},{:.6f},{:.6f}," + ("{:.6f}" if trials > 1 else "")
    write_csv(path, _BATCH_HEADER, row, (
        (n, b.singles.mean, b.perceived.mean, b.phantoms.mean, *b.efficiency)
        for n, b in zip(grid.tolist(), batches)
    ))


def _scenario_range(loads: list[int]) -> str | list[int]:
    """A scenario's loads as ``A:B:STEP`` when they rise by one positive step,
    else as the list; either form re-runs the same loads."""
    step = loads[1] - loads[0] if len(loads) > 1 else 1
    if step > 0 and loads == list(range(loads[0], loads[-1] + 1, step)):
        return f"{loads[0]}:{loads[-1]}:{step}"
    return loads


class Made(NamedTuple):
    """What a command made: ``{stem}_manifest.json`` names its manifest, which
    records ``parameters``, ``master_seed`` and ``extra``; ``outputs`` maps
    each file name to the writer that writes it."""

    stem: str
    parameters: dict
    outputs: dict[str, Callable[[Path], None]]
    master_seed: int | None = None
    extra: Mapping = {}


def cmd_analyze(args: argparse.Namespace) -> Made:
    if not args.spec:
        raise DomainError("analyze needs --spec SPEC")
    spec = load_spec(args.spec)
    grid, n_range = _grid(args, codebook_size(spec))
    curve = expanded_efficiency_curve(spec, grid)
    return Made("analyze", {"spec": spec.describe(), "n_range": n_range},
                {"analyze.csv": lambda p: write_csv(
                    p, _CURVE_HEADER, _CURVE_ROW, zip(grid.tolist(), curve.tolist()))})


def cmd_simulate(args: argparse.Namespace) -> Made:
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
        if not loads:
            raise DomainError(f"scenario {args.scenario} has an empty 'N' list")
        loads = [whole_number(n, f"N in {args.scenario}") for n in loads]
        grid, n_range = _whole_loads(loads), _scenario_range(loads)
        trials = whole_number(doc.get("trials", args.trials), f"trials in {args.scenario}")
        seed = whole_number(doc.get("master_seed", args.seed), f"master_seed in {args.scenario}")
    else:
        if not args.spec:
            raise DomainError("simulate needs --scenario FILE or --spec SPEC")
        spec = load_spec(args.spec)
        grid, n_range = _grid(args, codebook_size(spec))
        trials, seed = args.trials, args.seed
    simulating = time.perf_counter()
    batches = _simulate(spec, grid, trials, seed, args.workers)
    sizes = _simulate_sizes(spec, batches, time.perf_counter() - simulating)
    diagnostics = _diagnostics(spec, grid, batches)
    return Made(
        "simulate", {"spec": spec.describe(), "n_range": n_range, "trials": trials},
        {"simulate.csv": lambda p: _write_batches(p, grid, batches, trials)}, seed,
        {"diagnostics": diagnostics, "max_abs_z": _max_abs_z(diagnostics), "sizes": sizes},
    )


def cmd_inspect_chain(args: argparse.Namespace) -> Made:
    spec = load_spec(args.spec)
    table = chain_dump(build_transition_model(spec, cap=DUMP_STATE_CAP))
    return Made("inspect-chain", {"spec": spec.describe()},
                {"chain.csv": lambda p: write_csv(p, *table)})


def cmd_thresholds(args: argparse.Namespace) -> Made:
    # the spec checks the geometry before the default grid is sized from it
    full = CodebookSpec.expanded((args.preambles,) * args.length)
    grid, n_range = _grid(args, codebook_size(full))
    candidates = default_candidates(
        args.length, args.preambles, grid, args.reference_preambles
    )
    schedule = threshold_schedule(candidates)
    header = ["N_low", "N_high", "mode", "budgets", "cardinality",
              "efficiency_low", "efficiency_high"]
    rows = (
        (seg.n_low, seg.n_high, seg.spec.mode.value, "|".join(map(str, seg.spec.budgets)),
         codebook_size(seg.spec), seg.efficiency_low, seg.efficiency_high)
        for seg in schedule.segments
    )
    return Made(
        "thresholds",
        {
            "length": args.length,
            "preambles": args.preambles,
            "reference_preambles": args.reference_preambles,
            "n_range": n_range,
        },
        {"thresholds.csv": lambda p: write_csv(p, header, "{},{},{},{},{},{:.6f},{:.6f}", rows)},
        extra={"tail_start": schedule.tail_start, "sizes": {
            "candidates": len(candidates.candidates),
            "loads": len(grid),
            "head_loads": int(np.searchsorted(grid, schedule.tail_start or np.inf)),
            "closed_form_loads": schedule.closed_form_loads,
            "tail_checks": schedule.tail_checks,
        }},
    )


def cmd_reproduce(args: argparse.Namespace) -> Made:
    figure = args.figure
    entry = FIGURES[figure]
    grid, n_range = _grid(args, entry.size)
    outputs: dict[str, Callable[[Path], None]] = {}
    plot_curves: list[tuple[str, Sequence[float], Sequence[float]]] = []
    for name, label, spec in entry.curves(grid):
        curve = expanded_efficiency_curve(spec, grid)
        outputs[f"{figure}_{name}.csv"] = lambda p, c=curve: write_csv(
            p, _CURVE_HEADER, _CURVE_ROW, zip(grid.tolist(), c.tolist()))
        plot_curves.append((label, grid, curve))
    parameters = {"figure": figure, "n_range": n_range}
    seed = None
    if entry.montecarlo is not None:
        seed, parameters["trials"] = args.seed, args.trials
        batches = _simulate(entry.montecarlo, grid, args.trials, seed, args.workers)
        outputs[f"{figure}_montecarlo.csv"] = (
            lambda p: _write_batches(p, grid, batches, args.trials)
        )
        # the plot shows the printed, six-decimal means
        plot_curves.append(("code-expanded, Monte Carlo", grid.tolist(),
                            [round(b.efficiency.mean, 6) for b in batches]))
    outputs[f"{figure}.svg"] = lambda p: svg_line_plot(
        p, plot_curves, figure, "contending users N", "efficiency"
    )
    return Made(figure, parameters, outputs, seed)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codexpand",
        description="Contention analysis and planning for code-expanded random access.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    spec_help = 'codebook: "L=2,m=2,2,mode=expanded" or a JSON file'
    # options shared between subcommands, each defined once in a parent parser
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=".", help="output directory (default: current)")
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--spec", help=spec_help)
    n_range = argparse.ArgumentParser(add_help=False)
    n_range.add_argument("--n-range", help="load grid A, A:B, or A:B:STEP (inclusive; "
                         "default 1 to ten times the codebook or figure size)")
    runs = argparse.ArgumentParser(add_help=False)
    runs.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    runs.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed")
    runs.add_argument("--workers", type=int, default=1, help="parallel processes")

    p = sub.add_parser("analyze", parents=[spec, n_range, out],
                       help="analytic efficiency curve as CSV")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", parents=[spec, n_range, out, runs],
                       help="Monte Carlo batch per load point")
    p.add_argument("--scenario", help="JSON file {spec, N or N-list, trials, master_seed}")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("inspect-chain", parents=[out], help="dump the observation chain as CSV")
    p.add_argument("--spec", required=True, help=spec_help)
    p.set_defaults(func=cmd_inspect_chain)

    p = sub.add_parser("thresholds", parents=[n_range, out],
                       help="load-adaptive codebook schedule as CSV")
    p.add_argument("--length", type=int, required=True, help="sub-frames per virtual frame")
    p.add_argument("--preambles", type=int, required=True, help="preambles per sub-frame")
    p.add_argument("--reference-preambles", type=int, default=None,
                   help="baseline scheme preamble count, when different")
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("reproduce", parents=[n_range, runs, out],
                       help="regenerate a standard figure (CSV + SVG)")
    p.add_argument("--figure", required=True, choices=list(FIGURES))
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command, then write its outputs and its manifest, timed from
    the parsed arguments on; the output directory is made only once the
    command has succeeded."""
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        made = args.func(args)
    except (ValueError, CodexpandError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (StateSpaceTooLarge, SizeExceedsCap, EnumerationTooLarge)):
            return 3
        return 4 if isinstance(exc, InputParseError) else 2
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, write in made.outputs.items():
            write(out_dir / name)
        write_manifest(out_dir / f"{made.stem.replace('-', '_')}_manifest.json", {
            "command": args.command,
            "parameters": made.parameters,
            "master_seed": made.master_seed,
            "version": __version__,
            "outputs": sorted(made.outputs),
            "duration_seconds": round(time.perf_counter() - started, 6),
            **made.extra,
        })
    except OSError as exc:
        print(f"error: cannot write outputs to {out_dir}: {exc}", file=sys.stderr)
        return 2
    return 0


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
