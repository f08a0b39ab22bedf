"""Per-layer tracing of codexpand from outside the package.

A `Tracer` wraps the public functions of each layer (the package's modules)
and records one span per call: name, start, end and the span that was open
when the call began.  Spans are kept in flat in-memory arrays and written out
when the run ends.  Counts (states, nonzeros, steps, trials, ...) are read at
the same boundary from the call's arguments and return value.

Modules that did ``from .markov import build_transition_model`` hold their own
reference to the function, so wrapping rebinds the name in every ``codexpand``
module that holds it, not only in its home module.  Methods are wrapped on
their class.  Nothing under ``src/`` is changed; `Tracer.installed` restores
every original on exit.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np


def _model_counts(args, model):
    return {"states": len(model), "nnz": int(model.counts.nnz)}


def _sweep_counts(args, result):
    # One sparse vector-matrix product per load after the first, up to the
    # largest load in the grid.  Bytes are computed, not measured: per product
    # the CSR matrix (float64 values, its index arrays) is read once, the
    # state vector is read and the result written.
    model = args["self"]
    steps = max(int(n) for n in args["n_values"]) - 1
    counts = model.counts
    nnz, states = int(counts.nnz), len(model)
    per_step = ((8 + counts.indices.itemsize) * nnz
                + counts.indptr.itemsize * (states + 1) + 16 * states)
    return {"steps": steps, "flops": 2 * nnz * steps, "bytes": per_step * steps}


#: (layer function, home module, attribute path, count extractor or None).
#: Extractors see the bound arguments and the return value.
LAYERS = (
    ("cli.main", "cli", "main", None),
    ("codebook.enumerate_codewords", "codebook", "enumerate_codewords", None),
    ("codebook.sample_codewords", "codebook", "sample_codewords", None),
    ("codebook.restrictions_for_cardinality", "codebook", "restrictions_for_cardinality", None),
    ("contention.expected_singles", "contention", "expected_singles", None),
    ("contention.reference_efficiency", "contention", "reference_efficiency", None),
    ("markov.build_state_space", "markov", "build_state_space",
     lambda a, space: {"states": len(space)}),
    ("markov.build_transition_model", "markov", "build_transition_model", _model_counts),
    ("markov.build_lumped_model", "markov", "build_lumped_model", _model_counts),
    ("markov.perceived_sweep", "markov", "TransitionModel.perceived_sweep", _sweep_counts),
    ("markov.perceived_count_exact", "markov", "TransitionModel.perceived_count_exact", None),
    ("planner.default_candidates", "planner", "default_candidates",
     lambda a, cands: {"candidates": len(cands.candidates)}),
    ("planner.efficiency_curve", "planner", "efficiency_curve",
     lambda a, curve: {"points": len(curve)}),
    ("planner.threshold_schedule", "planner", "threshold_schedule",
     lambda a, schedule: {"segments": len(schedule.segments)}),
    ("reporting.write_csv", "reporting", "write_csv",
     lambda a, _: {"bytes": os.path.getsize(a["path"])}),
    ("reporting.svg_line_plot", "reporting", "svg_line_plot", None),
    ("reporting.write_manifest", "reporting", "write_manifest", None),
    ("simulate.run_batch", "simulate", "run_batch",
     lambda a, _: {"trials": a["config"].trials}),
    ("simulate.trial_rng", "simulate", "trial_rng", None),
    ("simulate.observe", "simulate", "observe", None),
    ("simulate.brute_force_expected", "simulate", "brute_force_expected",
     lambda a, _: {"assignments": a["spec"].size ** a["n_users"]}),
)


class Tracer:
    """Span recorder for the layer functions in `LAYERS`."""

    def __init__(self) -> None:
        self.names = [name for name, *_ in LAYERS]
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.span_name)

    def _wrap(self, name_id: int, fn, extract):
        names, starts, ends, parents, stack = (
            self.span_name, self.start, self.end, self.parent, self._stack)
        clock = time.perf_counter
        prefix = self.names[name_id] + "."
        counts = self.counts
        signature = inspect.signature(fn) if extract else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if extract is not None:
                bound = signature.bind(*args, **kwargs).arguments
                for quantity, value in extract(bound, result).items():
                    counts[prefix + quantity] += value
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer function for the duration of the block."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "codexpand" or key.startswith("codexpand.")]
        patches = []
        try:
            for name_id, (name, home, path, extract) in enumerate(LAYERS):
                *owner_path, attr = path.split(".")
                owner = sys.modules.get(f"codexpand.{home}")
                for part in owner_path:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, attr, None)
                if fn is None:  # the layer function no longer exists
                    self.absent.append(name)
                    continue
                traced = self._wrap(name_id, fn, extract)
                if owner_path:
                    targets = [(owner, attr)]
                else:
                    targets = [(m, key) for m in modules
                               for key, value in list(vars(m).items()) if value is fn]
                for target, key in targets:
                    patches.append((target, key, fn))
                    setattr(target, key, traced)
            yield self
        finally:
            for target, key, fn in reversed(patches):
                setattr(target, key, fn)

    def summarize(self, lo: int, hi: int) -> dict[str, float]:
        """Per-function calls, inclusive time and self time of spans lo..hi-1.

        Inclusive time counts only the outermost span of a function, so a
        function that calls itself is not counted twice.  Self time is a
        span's duration minus that of its direct children.
        """
        ids = np.frombuffer(self.span_name, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi] - lo
        dur = (np.frombuffer(self.end, dtype=np.float64)[lo:hi]
               - np.frombuffer(self.start, dtype=np.float64)[lo:hi])
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        nested = np.zeros(len(dur), dtype=bool)
        anc = parent.copy()
        while (anc >= 0).any():
            up = anc >= 0
            nested[up] |= ids[anc[up]] == ids[up]
            anc[up] = parent[anc[up]]
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        inclusive = np.bincount(ids[~nested], weights=dur[~nested], minlength=n)
        own = np.bincount(ids, weights=dur - child_time, minlength=n)
        out: dict[str, float] = {"trace.spans": hi - lo,
                                 "trace.top_level_s": float(dur[~has_parent].sum())}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[k])
            out[f"{name}.time_s"] = float(inclusive[k])
            out[f"{name}.self_s"] = float(own[k])
        return out

    def save(self, path, op_bounds) -> None:
        """Write every recorded span, with the span range of each operation."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op_bounds=np.asarray(op_bounds, dtype=np.int64).reshape(-1, 2),
        )
