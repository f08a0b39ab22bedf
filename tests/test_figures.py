"""Output gate: Monte Carlo tables against committed goldens.

Tables are compared as data, not bytes: the load column must be equal and
every other value within 1e-6, one unit in the sixth printed decimal, so an
ulp of difference in a float library cannot fail the gate.
"""

import csv

import pytest

from codexpand.cli import main

FIGURE_DIR = "figures"
TOLERANCE = 1e-6

SIMULATE = ["simulate", "--trials", "2000", "--seed", "5"]
CASES = {
    # the benchmark's mc-l4m3 command
    "l4m3": (SIMULATE + ["--spec", "L=4,m=3,mode=expanded", "--n-range", "20:200:20"],
             "simulate.csv", "simulate_l4m3.csv"),
    "l4m3-two-workers": (SIMULATE + ["--spec", "L=4,m=3,mode=expanded", "--n-range", "20:200:20",
                                     "--workers", "2"],
                         "simulate.csv", "simulate_l4m3.csv"),
    "reference": (SIMULATE + ["--spec", "L=4,m=8,mode=reference", "--n-range", "5:60:5"],
                  "simulate.csv", "simulate_reference_l4m8.csv"),
    # sub-frames of 40, 20 and 10 preambles
    "two-words": (SIMULATE + ["--spec", "L=3,m=40,20,10,mode=expanded", "--n-range", "10:100:10"],
                  "simulate.csv", "simulate_l3m40_20_10.csv"),
    # 13 sub-frames, 1,062,882 ids
    "above-table": (SIMULATE + ["--spec", "L=13,m=2,2,2,2,2,2,2,2,2,2,2,2,1,mode=expanded",
                                "--n-range", "2:8:2"],
                    "simulate.csv", "simulate_l13m2x12_1.csv"),
    "comparison": (["reproduce", "--figure", "comparison", "--trials", "2000", "--seed", "5"],
                   "comparison_montecarlo.csv", "comparison_montecarlo.csv"),
}


def read_table(path):
    with open(path, newline="") as handle:
        header, *rows = list(csv.reader(handle))
    return header, rows


def assert_same_table(produced, golden):
    header, rows = read_table(produced)
    golden_header, golden_rows = read_table(golden)
    assert header == golden_header
    assert [r[0] for r in rows] == [r[0] for r in golden_rows], "loads differ"
    for row, expected in zip(rows, golden_rows):
        for name, got, want in zip(header[1:], row[1:], expected[1:]):
            assert abs(float(got) - float(want)) <= TOLERANCE, (
                f"N={row[0]} {name}: {got} against golden {want}"
            )


@pytest.mark.parametrize("case", sorted(CASES))
def test_monte_carlo_table_matches_golden(case, tmp_path, golden_dir):
    argv, produced, golden = CASES[case]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert_same_table(tmp_path / produced, golden_dir / FIGURE_DIR / golden)
