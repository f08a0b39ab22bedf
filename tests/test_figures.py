"""Output gate: Monte Carlo and analytic figure tables against committed goldens.

Tables are compared as data, not bytes: loads, modes, budgets and codebook
sizes must be equal and every other value within 1e-6, one unit in the sixth
printed decimal, so an ulp of difference in a float library cannot fail the
gate.  The goldens of the long analytic curves keep every 25th row; their
SVG overlays are checked only for structure.

A second gate pins bytes: every CSV and SVG of a few commands, on short
grids and long, must hash to the recorded sha256, so a change in formatting,
rounding or plot geometry cannot pass unseen.
"""

import csv
import hashlib
import xml.etree.ElementTree as ET

import pytest

from codexpand.cli import main

FIGURE_DIR = "figures"
TOLERANCE = 1e-6
#: Columns compared as text: loads, modes, budgets and codebook sizes.
EXACT_COLUMNS = {"N", "N_low", "N_high", "mode", "budgets", "cardinality"}
#: The curve goldens keep rows 0, 25, 50, ... of each produced table.
CURVE_STRIDE = 25

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

THRESHOLDS = {
    "l4m4": ["--length", "4", "--preambles", "4"],
    "l2m4": ["--length", "2", "--preambles", "4"],
    "l4m3_ref32": ["--length", "4", "--preambles", "3", "--reference-preambles", "32"],
}


FIGURE_ARGS = ["--n-range", "1:40", "--trials", "200"]
#: sha256 over the sorted ``name sha256`` lines of every CSV and SVG a command writes.
BYTE_PINS = {
    "comparison": (["reproduce", "--figure", "comparison", *FIGURE_ARGS],
                   4, "f169b46b889f5e2b8438c4382ab285de90fdddb91902d1a5a743363459c096dc"),
    "adaptive-l2m4": (["reproduce", "--figure", "adaptive-l2m4", *FIGURE_ARGS],
                      8, "308bbb9f8894609d067f626f2d757f90fbfc2170ff89ea30b695d315af59ad8f"),
    "adaptive-l4m4": (["reproduce", "--figure", "adaptive-l4m4", *FIGURE_ARGS],
                      45, "66a75d46ac521c0978eac277a47f30d267c327fa700a90737ef42b7b5fbcaa6c"),
    "application-l4": (["reproduce", "--figure", "application-l4", *FIGURE_ARGS],
                       4, "93525ea69cc98c3aa43f3045057bc30042518fc1e3bd7cffff4904ef45fea58b"),
    # one trial per load leaves every se_efficiency cell empty
    "simulate-one-trial": (["simulate", "--spec", "L=2,m=2,2,mode=expanded",
                            "--n-range", "1:6", "--trials", "1"],
                           1, "366ffc6c70bae791894fd125402b1de589b8aca2848fb5d12a48d046c4eeb05d"),
    "thresholds-l2m4": (["thresholds", "--length", "2", "--preambles", "4"],
                        1, "549e26f4b92f29a00eecb82643a8e0feda9ca2646c0cbcf519559a5f9ba3a38d"),
    "analyze-reference": (["analyze", "--spec", "L=4,m=8,mode=reference"],
                          1, "899b047bd1fb5d2b8ccdfed0af1425029b00936a741799d1f108a3f457709d05"),
    # long grids, out to loads where every closed-form term but the leading
    # one has decayed far below its weight
    "thresholds-l4m4": (["thresholds", "--length", "4", "--preambles", "4"],
                        1, "d372a9858b110cb09db9904e8d471dc3404d4c652f40a632d27261ce65a2e624"),
    "analyze-l1m2000": (["analyze", "--spec", "L=1,m=2000,mode=expanded"],
                        1, "aa41ac7e04c26c102b1f2fccc48d95157f9fd7b8048658c007ff112fcfec3d72"),
    "analyze-reference-l4m32": (["analyze", "--spec", "L=4,m=32,mode=reference"],
                                1, "2c3b20d0605e6724358996bca23dbbddf293dc6b606ce951011661be104c3aec"),
    "analyze-l6": (["analyze", "--spec", "L=6,m=5,5,5,5,5,4,mode=expanded",
                    "--n-range", "1:5000"],
                   1, "17c4b187268fb4239fcbcaf3217929c9487e6bf8415f6673492f9011ac419461"),
    # the thinnest best-vs-second efficiency gaps of any grid: m = 54
    "thresholds-l2m54": (["thresholds", "--length", "2", "--preambles", "54"],
                         1, "b5b2dc42dc690c00fedf8f8b20a023094cc27e59cafc444904ff7a68eab3f93a"),
    "thresholds-l3m54": (["thresholds", "--length", "3", "--preambles", "54",
                          "--n-range", "1:20000"],
                         1, "8105b4ea95b6915a5bef3a52664577182734408d152f1a5d096816c445847132"),
}


def read_table(path):
    with open(path, newline="") as handle:
        header, *rows = list(csv.reader(handle))
    return header, rows


def assert_same_table(produced, golden, stride=1):
    header, rows = read_table(produced)
    golden_header, golden_rows = read_table(golden)
    assert header == golden_header
    rows = rows[::stride]
    exact = [i for i, name in enumerate(header) if name in EXACT_COLUMNS]
    assert [[r[i] for i in exact] for r in rows] == [[r[i] for i in exact] for r in golden_rows], (
        "loads, modes, budgets or sizes differ"
    )
    for row, expected in zip(rows, golden_rows):
        for name, got, want in zip(header, row, expected):
            if name not in EXACT_COLUMNS:
                assert abs(float(got) - float(want)) <= TOLERANCE, (
                    f"row {row[0]} {name}: {got} against golden {want}"
                )


@pytest.mark.parametrize("case", sorted(CASES))
def test_monte_carlo_table_matches_golden(case, tmp_path, golden_dir):
    argv, produced, golden = CASES[case]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert_same_table(tmp_path / produced, golden_dir / FIGURE_DIR / golden)


@pytest.mark.parametrize("case", sorted(THRESHOLDS))
def test_threshold_table_matches_golden(case, tmp_path, golden_dir):
    assert main(["thresholds", *THRESHOLDS[case], "--out", str(tmp_path)]) == 0
    assert_same_table(tmp_path / "thresholds.csv",
                      golden_dir / FIGURE_DIR / f"thresholds_{case}.csv")


@pytest.mark.parametrize("figure", ["application-l4", "adaptive-l4m4"])
def test_figure_curves_match_golden(figure, tmp_path, golden_dir):
    assert main(["reproduce", "--figure", figure, "--out", str(tmp_path)]) == 0
    goldens = sorted((golden_dir / FIGURE_DIR / figure).glob("*.csv"))
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == [p.name for p in goldens]
    for golden in goldens:
        assert_same_table(tmp_path / golden.name, golden, stride=CURVE_STRIDE)
    plot = ET.parse(tmp_path / f"{figure}.svg").getroot()
    assert len(plot.findall("{http://www.w3.org/2000/svg}polyline")) == len(goldens)


@pytest.mark.parametrize("case", sorted(BYTE_PINS))
def test_output_bytes_match_pin(case, tmp_path):
    argv, files, pin = BYTE_PINS[case]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    listing = "".join(
        f"{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}\n"
        for p in sorted(tmp_path.iterdir()) if p.suffix in (".csv", ".svg")
    )
    assert listing.count("\n") == files
    assert hashlib.sha256(listing.encode()).hexdigest() == pin, listing
