"""Output formatting: CSV, run manifests, chain dumps, and SVG line plots.

Every file is written atomically (temp file in the target directory, then
rename) and with fixed formatting -- six decimal places for real numbers,
``p/q`` for exact rationals, LF line endings -- so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Sequence

from .markov import TransitionModel

#: Fill-in colors for plot curves, recycled when there are more curves.
PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2",
)


def format_float(value: float) -> str:
    """Fixed six-decimal rendering used in all CSV output."""
    return f"{value:.6f}"


def write_text_atomic(path: Path, text: str) -> None:
    """Write a file so readers never observe a partially written one."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    """Write pre-formatted cells as comma-separated lines."""
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_manifest(path: Path, manifest: Mapping) -> None:
    """Persist a run manifest as stable, sorted JSON."""
    write_text_atomic(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def chain_dump(model: TransitionModel) -> tuple[list[str], list[list[str]]]:
    """Chain dump table: one row per state, 1-based ids.

    The ``transitions`` cell holds space-separated ``to:count`` pairs, where
    count over the codebook size is the transition probability; ``initial``
    is the exact probability of starting in the state after one contender.
    """
    length = model.spec.length
    header = ["state_id", *(f"C_{j + 1}" for j in range(length)), "cardinality",
              "initial", "transitions"]
    counts = model.counts
    rows = []
    for i, config in enumerate(model.states):
        pairs = " ".join(
            f"{counts.indices[k] + 1}:{counts.data[k]}"
            for k in range(counts.indptr[i], counts.indptr[i + 1])
        )
        initial = Fraction(int(model.initial_counts[i]), model.denominator)
        rows.append(
            [str(i + 1), *(str(c) for c in config), str(int(model.cardinalities[i])),
             str(initial), pairs]
        )
    return header, rows


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * magnitude
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def svg_line_plot(
    path: Path,
    curves: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str,
    x_label: str,
    y_label: str,
) -> None:
    """Self-contained SVG overlay plot of the given (label, xs, ys) curves."""
    width, height = 720, 480
    left, right, top, bottom = 70, 24, 48, 58
    plot_w, plot_h = width - left - right, height - top - bottom

    xs_all = [x for _, xs, _ in curves for x in xs]
    ys_all = [y for _, _, ys in curves for y in ys]
    x_lo, x_hi = (min(xs_all), max(xs_all)) if xs_all else (0.0, 1.0)
    y_lo, y_hi = (min(ys_all), max(ys_all)) if ys_all else (0.0, 1.0)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    y_pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = max(0.0, y_lo - y_pad), y_hi + y_pad

    def px(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif" font-size="13">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="16">'
        f"{_escape(title)}</text>",
    ]
    for t in _nice_ticks(x_lo, x_hi):
        x = px(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{top}" x2="{x:.1f}" y2="{top + plot_h}" '
            f'stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{top + plot_h + 18}" text-anchor="middle">{t:g}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        y = py(t)
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" y2="{y:.1f}" '
            f'stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end">{t:g}</text>'
        )
    parts.append(
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333"/>'
    )
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 16}" text-anchor="middle">'
        f"{_escape(x_label)}</text>"
    )
    parts.append(
        f'<text x="20" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 20 {top + plot_h / 2:.1f})">{_escape(y_label)}</text>'
    )
    for k, (label, xs, ys) in enumerate(curves):
        color = PALETTE[k % len(PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = top + 16 + 18 * k
        lx = left + plot_w - 190
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 26}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2.5"/>'
        )
        parts.append(f'<text x="{lx + 32}" y="{ly}">{_escape(label)}</text>')
    parts.append("</svg>")
    write_text_atomic(Path(path), "\n".join(parts) + "\n")
