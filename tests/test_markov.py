"""Observation-configuration chain over expanded codebooks."""

import ast
import importlib
import itertools
import math
import pkgutil
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codexpand import (
    CodebookSpec,
    DomainError,
    StateSpaceTooLarge,
    build_transition_model,
    default_candidates,
    efficiency_curve,
    expanded_efficiency,
    expected_singles_curve,
    expected_used_curve,
    perceived_count,
    perceived_count_rational,
    perceived_curve,
    perceived_terms,
    reference_efficiency,
    reference_efficiency_curve,
)
import codexpand
from codexpand import contention, markov, planner, simulate
from codexpand.contention import _alphabet_terms
from codexpand.markov import _step

L2M2 = CodebookSpec.expanded((2, 2))

small_budgets = st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3).filter(
    lambda b: any(b)
)


def loop_successors(config, budgets):
    """{successor: codeword count} for one more contender, one move at a time.

    In each sub-frame the codeword sends one of the ``C_j`` symbols already
    observed, or (below the budget) one of the ``m_j + 1 - C_j`` unobserved
    preambles; the self-loop loses the all-idle word.
    """
    moves = [
        ((c, c),) if c > m else ((c, c), (c + 1, m + 1 - c))
        for c, m in zip(config, budgets)
    ]
    out = {}
    for move in itertools.product(*moves):
        succ, factors = zip(*move)
        count = math.prod(factors) - (succ == tuple(config))
        if count:
            out[succ] = count
    return out


class TestStateSpace:
    def test_two_by_two_states(self):
        space = build_transition_model(L2M2)
        assert space.states == (
            (1, 2), (1, 3),
            (2, 1), (2, 2), (2, 3),
            (3, 1), (3, 2), (3, 3),
        )
        assert space.cardinalities.tolist() == [1, 2, 1, 3, 5, 2, 5, 8]

    def test_all_idle_configuration_excluded(self):
        for budgets in [(1,), (2, 2), (1, 2, 1)]:
            space = build_transition_model(CodebookSpec.expanded(budgets))
            assert (1,) * len(budgets) not in space.states

    def test_cardinality_formula(self):
        # prod(C_j) - 1 at the states (3, 3), (1, 2) and (5, 5)
        assert build_transition_model(L2M2).cardinalities[[7, 0]].tolist() == [8, 1]
        assert build_transition_model(CodebookSpec.expanded((4, 4))).cardinalities[-1] == 24

    def test_nonuniform_budgets(self):
        space = build_transition_model(CodebookSpec.expanded((1, 2)))
        assert space.states == ((1, 2), (1, 3), (2, 1), (2, 2), (2, 3))
        assert space.cardinalities.tolist() == [1, 2, 1, 3, 5]

    def test_cap_guards_state_blowup(self):
        with pytest.raises(StateSpaceTooLarge):
            build_transition_model(CodebookSpec.expanded((9,) * 9))

    def test_reference_mode_has_no_chain(self):
        with pytest.raises(DomainError, match="expanded codebooks"):
            build_transition_model(CodebookSpec.reference(2, 2))

    def test_cap_counts_states(self):
        # (2,) has 2 states; the all-ones configuration is not one of them
        assert len(build_transition_model(CodebookSpec.expanded((2,)), cap=2)) == 2
        with pytest.raises(StateSpaceTooLarge, match="2 states exceed the cap of 1"):
            build_transition_model(CodebookSpec.expanded((2,)), cap=1)


class TestTransitionModel:
    @given(small_budgets)
    @settings(max_examples=40, deadline=None)
    def test_rows_sum_to_codebook_size(self, count_matrix, budgets):
        model = build_transition_model(CodebookSpec.expanded(tuple(budgets)))
        sums = np.asarray(count_matrix(model).sum(axis=1)).ravel()
        assert (sums == model.denominator).all()

    def test_matrix_is_row_stochastic(self):
        model = build_transition_model(CodebookSpec.expanded((2, 3)))
        rows = model.matrix.sum(axis=1)
        assert np.abs(np.asarray(rows).ravel() - 1.0).max() <= 1e-12

    def test_initial_distribution_mass(self):
        model = build_transition_model(L2M2)
        assert model.initial_counts.sum() == model.denominator
        assert [
            Fraction(int(c), model.denominator) for c in model.initial_counts
        ] == [
            Fraction(1, 4), 0, Fraction(1, 4), Fraction(1, 2), 0, 0, 0, 0,
        ]

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4)
           .filter(any))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_chain_matches_loop_reference(self, count_matrix, budgets):
        spec = CodebookSpec.expanded(tuple(budgets))
        model = build_transition_model(spec)
        all_ones = (1,) * len(budgets)
        states = tuple(c for c in itertools.product(*(range(1, m + 2) for m in budgets))
                       if c != all_ones)
        assert model.states == states
        index = {c: i for i, c in enumerate(states)}
        expected = np.zeros((len(states), len(states)), dtype=np.int64)
        for i, config in enumerate(states):
            for succ, count in loop_successors(config, budgets).items():
                expected[i, index[succ]] = count
        assert np.array_equal(count_matrix(model).toarray(), expected)
        initial = np.zeros(len(states), dtype=np.int64)
        for succ, count in loop_successors(all_ones, budgets).items():
            initial[index[succ]] = count
        assert np.array_equal(model.initial_counts, initial)

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4)
           .filter(any))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_counts_are_the_dense_kronecker_product(self, budgets):
        # the dense product of the bidiagonal factors, minus the identity, with
        # the empty observation's row and column removed
        model = build_transition_model(CodebookSpec.expanded(tuple(budgets)))
        product = np.ones((1, 1), dtype=np.int64)
        for m in budgets:
            k = np.arange(m + 1)
            product = np.kron(product, np.diag(k + 1) + np.diag(m - k[:-1], 1))
        expected = (product - np.eye(len(product), dtype=np.int64))[1:, 1:]
        indptr, indices, data = model.counts
        rows = np.repeat(np.arange(len(model)), np.diff(indptr))
        dense = np.zeros_like(expected)
        dense[rows, indices] = data
        assert np.array_equal(dense, expected)
        assert (np.diff(indices)[np.diff(rows) == 0] > 0).all()
        assert model.counts.nnz == len(data) == np.count_nonzero(expected)

    def test_large_single_budget_builds_in_linear_space(self, count_matrix):
        # 10**5 states and 2 * 10**5 - 1 non-zeros; a dense per-sub-frame
        # factor would need 80 GB here
        m = 10**5
        model = build_transition_model(CodebookSpec.expanded((m,)))
        table = count_matrix(model)
        assert len(model) == m and table.nnz == 2 * m - 1
        assert table[0, 0] == 1 and table[0, 1] == m - 1
        assert table[m - 1, m - 1] == m
        assert model.initial_counts[0] == m and model.initial_counts[1:].sum() == 0

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4)
           .filter(any), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_step_is_one_product_with_the_count_table(self, count_matrix, budgets, seed):
        # over configurations 0..A: row 0, the empty observation, moves as the
        # loop reference says, and no configuration moves back to it
        model = build_transition_model(CodebookSpec.expanded(tuple(budgets)))
        index = {c: i for i, c in enumerate(model.states)}
        origin = np.zeros(len(model), dtype=np.int64)
        for succ, count in loop_successors((1,) * len(budgets), budgets).items():
            origin[index[succ]] = count
        dist = np.random.default_rng(seed).integers(0, 10**6, size=len(model) + 1)
        expected = [0, *(count_matrix(model).T @ dist[1:] + dist[0] * origin).tolist()]
        shape = tuple(m + 1 for m in budgets)
        assert _step(dist.reshape(shape), budgets).ravel().tolist() == expected
        exact = _step(dist.astype(object).reshape(shape), budgets).ravel().tolist()
        assert exact == expected and all(type(v) is int for v in exact)

    def test_absorbing_full_state(self, count_matrix):
        model = build_transition_model(L2M2)
        last = count_matrix(model).getrow(len(model.states) - 1)
        assert last.indices.tolist() == [len(model.states) - 1]
        assert last.data.tolist() == [model.denominator]


class TestPerceivedCount:
    def test_single_user_anchor(self):
        assert perceived_count(L2M2, 1) == 2.0
        model = build_transition_model(L2M2)
        assert model.perceived_count_exact(1) == 2

    def test_two_user_rational_anchor(self):
        model = build_transition_model(CodebookSpec.expanded((1, 1)))
        assert model.perceived_count_exact(2) == Fraction(23, 9)
        assert perceived_count(CodebookSpec.expanded((1, 1)), 2) == pytest.approx(
            23 / 9, abs=1e-14
        )

    def test_empty_frame_is_zero(self):
        model = build_transition_model(L2M2)
        assert model.perceived_count(0) == 0.0

    def test_monotone_and_bounded(self):
        model = build_transition_model(CodebookSpec.expanded((2, 3)))
        grid = list(range(1, 60))
        values = model.perceived_sweep(grid)
        assert (np.diff(values) >= -1e-12).all()
        assert values.max() <= model.denominator + 1e-9

    def test_sweep_equals_pointwise(self):
        model = build_transition_model(L2M2)
        grid = [1, 2, 5, 9, 17]
        swept = model.perceived_sweep(grid)
        single = [model.perceived_count(n) for n in grid]
        assert swept == pytest.approx(single, abs=1e-12)

    def test_grid_must_increase(self):
        model = build_transition_model(L2M2)
        with pytest.raises(DomainError):
            model.perceived_sweep([3, 2])


class TestClosedForm:
    def test_term_counts(self):
        assert perceived_terms((2, 2)) == {9: 1, 6: -2, 4: 1}
        for budgets in [(1,) * 5, (3,) * 4, (4,) * 10]:
            assert len(perceived_terms(budgets)) == len(budgets) + 1
        assert len(perceived_terms((5, 5, 5, 5, 5, 4))) == 12

    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4).filter(any),
        st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_chain_exactly(self, budgets, n):
        spec = CodebookSpec.expanded(tuple(budgets))
        chain = build_transition_model(spec).perceived_count_exact(n)
        assert perceived_count_rational(spec, n) == chain

    @pytest.mark.parametrize("budgets", [(4,) * 10, (1,) * 20, (12, 12, 12), (100, 100), (5000,)])
    def test_float_path_stays_near_exact(self, budgets):
        # few contenders over many sub-frames cancel large terms; the
        # rounding guard must route those loads through the exact sum.  Wide
        # sub-frames also run from A/2 to 5A, where terms leave expm1 for exp.
        spec = CodebookSpec.expanded(budgets)
        loads = list(range(1, 41))
        if max(budgets) >= 100:
            loads += [spec.size // 2, spec.size, 2 * spec.size, 5 * spec.size]
        values = perceived_curve(spec, loads)
        for n, value in zip(loads, values):
            exact = perceived_count_rational(spec, n)
            assert abs(Fraction(float(value)) - exact) <= Fraction(1, 10**12) * exact

    @pytest.mark.parametrize("m,top", [(5000, 3000), (20000, 4000)])
    def test_wide_subframe_stays_on_the_float_path(self, monkeypatch, m, top):
        # one wide sub-frame is the used-codeword count of m codewords; the
        # float form suffices at every load but N = 1, taken exactly
        exact_loads = []
        exact = contention._closed_form_exact

        def counted(terms, size, n):
            exact_loads.append(n)
            return exact(terms, size, n)

        monkeypatch.setattr(contention, "_closed_form_exact", counted)
        grid = range(1, top + 1)
        values = perceived_curve(CodebookSpec.expanded((m,)), grid)
        assert exact_loads == [1]
        assert values.tolist() == expected_used_curve(grid, m).tolist()

    @pytest.mark.parametrize("length, m", [(4, 4), (6, 5)])
    def test_one_contender_is_the_exact_value_rounded(self, length, m):
        # N = 1 is one integer quotient, for each candidate alone and in one batch
        specs = default_candidates(length, m, [1]).candidates
        exact = [float(perceived_count_rational(spec, 1)) for spec in specs]
        assert [perceived_curve(spec, [1])[0] for spec in specs] == exact
        table = contention._term_table(specs)
        assert contention._closed_form(table, np.array([1]))[:, 0].tolist() == exact

    @given(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=8).filter(any))
    @settings(max_examples=60, deadline=None)
    def test_one_contender_is_the_exact_value_rounded_for_any_budgets(self, budgets):
        spec = CodebookSpec.expanded(budgets)
        assert perceived_curve(spec, [1, 2])[0] == float(perceived_count_rational(spec, 1))

    def test_matches_chain_sweep_on_a_long_grid(self):
        spec = CodebookSpec.expanded((1, 2, 3))
        grid = list(range(1, 301))
        chain = build_transition_model(spec).perceived_sweep(grid)
        assert np.abs(perceived_curve(spec, grid) - chain).max() <= 1e-12 * spec.size

    def test_negative_load_rejected(self):
        with pytest.raises(DomainError):
            perceived_curve(L2M2, [-1])

    def test_reference_perceived_is_used_codewords(self):
        # a reference codebook is observed like one sub-frame of A preambles
        for m, length in [(1, 1), (3, 1), (2, 2), (8, 4)]:
            spec, a = CodebookSpec.reference(m, length), m * length
            for n in range(12):
                assert perceived_count_rational(spec, n) == a * (1 - (1 - Fraction(1, a)) ** n)
            grid = range(10 * a + 1)
            assert perceived_curve(spec, grid).tolist() == expected_used_curve(grid, a).tolist()


# codebooks of both alphabets, and one whose few-contender loads cancel
# beyond float precision, so that they fall back to exact arithmetic
CODEBOOKS = st.one_of(
    st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=5).filter(any).map(
        CodebookSpec.expanded),
    st.builds(CodebookSpec.reference, st.integers(min_value=1, max_value=60),
              st.integers(min_value=1, max_value=4)),
)
CANCELLING = CodebookSpec.expanded((4,) * 10)  # exact at N = 1..4


class TestBatchedClosedForm:
    @given(st.lists(CODEBOOKS, min_size=1, max_size=8),
           st.lists(st.integers(min_value=0, max_value=3000), max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_batch_is_each_codebook_alone(self, specs, extra):
        # bit for bit as a batch of one, each codebook cut at its own
        # saturation load; the loads include 0, 1 and an exact fallback
        specs = [CANCELLING, *specs]
        loads = np.array(sorted({0, 1, 3, *extra}))
        with mock.patch.object(contention, "_closed_form_exact",
                               wraps=contention._closed_form_exact) as exact:
            batch = contention._closed_form(contention._term_table(specs), loads)
        assert (_alphabet_terms(CANCELLING), CANCELLING.size, 3) in [
            c.args for c in exact.call_args_list]
        for spec, values in zip(specs, batch):
            assert values.tobytes() == perceived_curve(spec, loads).tobytes()

    @given(st.lists(CODEBOOKS, min_size=1, max_size=8),
           st.lists(st.integers(min_value=0, max_value=10**8), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_saturation_cut_changes_no_float(self, specs, extra):
        # from its saturation load on, each codebook's sum rounds to float(A)
        # itself, so evaluating it there too gives the same bytes
        table = contention._term_table([CANCELLING, *specs])
        edges = (table.saturation[:, None] + [-1, 0, 1]).astype(np.int64).ravel()
        loads = np.array(sorted({0, 1, 2, *extra, *edges.tolist()}))
        uncut = table._replace(saturation=np.full(len(specs) + 1, np.inf))
        assert (contention._closed_form(table, loads).tobytes()
                == contention._closed_form(uncut, loads).tobytes())

    @pytest.mark.parametrize("budgets, dtype, top", [((2**21,) * 3, object, 1000),
                                                     ((20000,), np.int64, 40000)])
    def test_large_codebooks_keep_their_floats_in_any_batch(self, budgets, dtype, top):
        # (2**21,)*3 sums its constant in Python ints, and so makes the whole
        # batch do; one wide sub-frame has A = 20,000 (`analyze --spec
        # L=1,m=20000`); every codebook keeps its batch-of-one floats
        large = CodebookSpec.expanded(budgets)
        specs = [CodebookSpec.reference(4, 4), large, CodebookSpec.expanded((3, 3))]
        table = contention._term_table(specs)
        assert table.exact.dtype == dtype
        loads = np.array([0, 1, 2, 3, 10, top])
        batch = contention._closed_form(table, loads)
        for spec, values in zip(specs, batch):
            assert values.tobytes() == perceived_curve(spec, loads).tobytes()
        exact = [float(perceived_count_rational(large, n)) for n in loads]
        assert np.allclose(batch[1], exact, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("terms", [1, 7, 2**40])
    def test_floats_do_not_depend_on_the_terms_per_pass(self, monkeypatch, terms):
        # 11 terms: one per pass, seven, and all of them at once
        spec = CodebookSpec.expanded((1, 2, 3, 4))
        loads = np.arange(50)
        expected = perceived_curve(spec, loads)
        monkeypatch.setattr(contention, "CLOSED_FORM_CHUNK", terms * loads.size)
        assert perceived_curve(spec, loads).tobytes() == expected.tobytes()

    @given(st.lists(st.one_of(st.integers(min_value=1, max_value=5000),
                              st.integers(min_value=1, max_value=2**64)), min_size=1, max_size=8),
           st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_batched_singles_are_each_curve(self, sizes, loads):
        x, delta = (np.array(b)[:, None] for b in zip(*map(contention._rounded_base, sizes)))
        batch = contention._singles(np.array(loads, dtype=np.float64), x, delta)
        for size, values in zip(sizes, batch):
            assert values.tobytes() == expected_singles_curve(loads, size).tobytes()

    @given(st.lists(CODEBOOKS, min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_batched_saturation_loads_are_each_codebooks(self, specs):
        specs = [CANCELLING, CodebookSpec.reference(1, 1), *specs]
        expected = [contention._saturation_loads(contention._term_table([s]))[0] for s in specs]
        assert contention._saturation_loads(contention._term_table(specs)).tolist() == expected


class TestEfficiency:
    def test_single_user_value(self):
        assert expanded_efficiency(L2M2, 1) == pytest.approx(0.5, abs=1e-15)

    def test_single_subframe_has_no_phantoms(self):
        # one sub-frame cannot create ambiguity, so both schemes coincide
        spec = CodebookSpec.expanded((5,))
        for n in (1, 2, 7, 19):
            assert expanded_efficiency(spec, n) == pytest.approx(
                reference_efficiency(n, 5, 1), abs=1e-12
            )

    def test_efficiency_stays_in_unit_interval(self):
        spec = CodebookSpec.expanded((2, 3))
        for n in (1, 2, 5, 12, 40):
            assert 0.0 < expanded_efficiency(spec, n) <= 1.0


class TestWholeLoads:
    def test_fractional_loads_are_rejected(self):
        model = build_transition_model(L2M2)
        for evaluate in (
            lambda n: perceived_curve(L2M2, [1, n]),
            lambda n: perceived_count_rational(L2M2, n),
            lambda n: efficiency_curve(L2M2, [n]),
            lambda n: efficiency_curve(CodebookSpec.reference(2, 2), [n]),
            lambda n: expected_singles_curve([n], 8),
            lambda n: reference_efficiency_curve([n], 2, 2),
            lambda n: model.perceived_sweep([1, n]),
            model.perceived_count,
            model.perceived_count_exact,
        ):
            with pytest.raises(DomainError, match="whole numbers"):
                evaluate(2.5)

    def test_whole_loads_of_any_integer_type_work(self):
        expected = perceived_curve(L2M2, [2, 3]).tolist()
        for grid in ([2.0, 3.0], np.array([2, 3], dtype=np.int32),
                     [np.int64(2), np.uint8(3)], range(2, 4)):
            assert perceived_curve(L2M2, grid).tolist() == expected
        assert perceived_count_rational(L2M2, np.int16(2)) == perceived_count_rational(L2M2, 2)
        assert efficiency_curve(L2M2, []) == []


def imported(module):
    """Every name a package module imports, dotted and without the package,
    with the name it binds there: ``from .contention import _step`` gives
    ``("contention._step", "_step")``."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from ((f"{node.module or ''}.{alias.name}".removeprefix("codexpand.")
                         .lstrip("."), alias.asname or alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name.removeprefix("codexpand."),
                         alias.asname or alias.name.partition(".")[0]) for alias in node.names)


def scipy_imports(tree):
    """The import statements under ``tree`` that load scipy or one of its modules."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Import) and any(alias.name.partition(".")[0] == "scipy"
                                                    for alias in node.names)
            or isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0]
            == "scipy"]


class TestLayering:
    """The chain and the Monte Carlo runner stay independent routes to the
    closed form: neither imports from `contention`, and the planner never
    uses the chain.  The planner evaluates efficiency only through
    `contention._efficiency` and the tail's singles.  scipy is no runtime
    dependency: only the float matrix that the benchmark's reference script
    reads imports it."""

    def test_only_the_float_matrix_imports_scipy(self):
        trees = {info.name: ast.parse(Path(importlib.import_module(f"codexpand.{info.name}")
                                           .__file__).read_text(encoding="utf-8"))
                 for info in pkgutil.iter_modules(codexpand.__path__)}
        found = {name: scipy_imports(tree) for name, tree in trees.items()}
        assert {name: len(nodes) for name, nodes in found.items() if nodes} == {"markov": 1}
        [model] = [node for node in trees["markov"].body
                   if isinstance(node, ast.ClassDef) and node.name == "TransitionModel"]
        [matrix] = [node for node in model.body
                    if isinstance(node, ast.FunctionDef) and node.name == "matrix"]
        assert found["markov"] == scipy_imports(matrix)

    def test_planner_imports_only_the_batched_evaluators(self):
        assert sorted(name for name, _ in imported(planner)
                      if name.startswith("contention._")) == [
            "contention._TermTable", "contention._efficiency", "contention._singles",
            "contention._term_table"]

    def test_chain_and_trials_import_nothing_from_the_closed_form(self):
        for module in (markov, simulate):
            assert not [name for name, _ in imported(module) if "contention" in name.split(".")]

    def test_planner_does_not_import_the_chain(self):
        assert not [name for name, _ in imported(planner) if "markov" in name.split(".")]

    def test_every_imported_name_is_used(self):
        # `__init__` imports to re-export, and a `__future__` import binds no name
        unused = []
        for info in pkgutil.iter_modules(codexpand.__path__):
            module = importlib.import_module(f"codexpand.{info.name}")
            tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused += [f"{info.name}: {name}" for name, bound in imported(module)
                       if bound not in used and not name.startswith("__future__.")]
        assert not unused
