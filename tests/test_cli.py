"""Command line interface: grammar, file outputs, exit codes."""

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import codexpand
from codexpand import CodebookSpec, DomainError, Mode
from codexpand.cli import main, parse_inline_spec, parse_n_range


def run(*argv):
    return main([str(a) for a in argv])


class TestInlineGrammar:
    def test_expanded_spec(self):
        spec = parse_inline_spec("L=2,m=2,2,mode=expanded")
        assert spec == CodebookSpec.expanded((2, 2))

    def test_reference_spec(self):
        spec = parse_inline_spec("L=4,m=32,mode=reference")
        assert spec == CodebookSpec.reference(32, 4)

    def test_global_pool_key(self):
        spec = parse_inline_spec("L=2,m=1,4,mode=expanded,M=5")
        assert spec.m_global == 5

    def test_budget_broadcast(self):
        assert parse_inline_spec("L=3,m=2,mode=expanded").budgets == (2, 2, 2)

    @pytest.mark.parametrize(
        "text",
        [
            "L=2,m=2,2",  # mode missing
            "L=2,mode=expanded",  # budgets missing
            "L=2,m=2,2,mode=banana",
            "L=2,m=2,2,mode=expanded,L=3",  # duplicate key
            "L=2,m=2,2,mode=expanded,x=1",
            "l=2,m=2,2,mode=expanded",  # keys are case sensitive
            "L=two,m=2,2,mode=expanded",
        ],
    )
    def test_malformed_specs_rejected(self, text):
        with pytest.raises(DomainError):
            parse_inline_spec(text)


class TestNRange:
    def test_forms(self):
        assert parse_n_range("5") == [5]
        assert parse_n_range("1:4") == [1, 2, 3, 4]
        assert parse_n_range("2:10:3") == [2, 5, 8]

    def test_range_is_inclusive(self):
        assert parse_n_range("3:9:3") == [3, 6, 9]

    @pytest.mark.parametrize("text", ["0", "5:2", "1:5:0", "a:b", "1:2:3:4"])
    def test_invalid_ranges(self, text):
        with pytest.raises(DomainError):
            parse_n_range(text)


class TestAnalyze:
    def test_reference_curve_values(self, tmp_path):
        assert run("analyze", "--spec", "L=2,m=2,mode=reference",
                   "--n-range", "1:2", "--out", tmp_path) == 0
        lines = (tmp_path / "analyze.csv").read_text().splitlines()
        assert lines[0] == "N,efficiency"
        assert lines[1] == "1,1.000000"
        assert lines[2] == "2,0.857143"

    def test_expanded_single_row(self, tmp_path):
        assert run("analyze", "--spec", "L=2,m=2,2,mode=expanded",
                   "--n-range", "1", "--out", tmp_path) == 0
        lines = (tmp_path / "analyze.csv").read_text().splitlines()
        assert lines == ["N,efficiency", "1,0.500000"]

    def test_spec_from_json_file(self, tmp_path):
        doc = tmp_path / "spec.json"
        doc.write_text(json.dumps({"L": 2, "m": [2, 2], "mode": "expanded"}))
        assert run("analyze", "--spec", doc, "--n-range", "1", "--out", tmp_path) == 0
        assert (tmp_path / "analyze.csv").read_text().endswith("1,0.500000\n")

    @pytest.mark.parametrize(
        "doc",
        [
            {"L": 2.9, "m": [2, 2], "mode": "expanded"},
            {"L": 2, "m": [2.7, 2], "mode": "expanded"},
            {"L": 2, "m": [True, 2], "mode": "expanded"},
            {"L": True, "m": 2, "mode": "expanded"},
            {"L": 2, "m": 2.5, "mode": "reference"},
            {"L": 2, "m": [1, 4], "mode": "expanded", "M": 5.5},
            {"L": 2, "m": [[2], 2], "mode": "expanded"},
        ],
    )
    def test_non_integral_json_spec_numbers_rejected(self, tmp_path, doc):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert run("analyze", "--spec", path, "--n-range", "1", "--out", tmp_path / "out") == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "doc, expected",
        [
            ({"L": 2.0, "m": [2.0, 2], "mode": "expanded"}, CodebookSpec.expanded((2, 2))),
            ({"L": 4, "m": 32.0, "mode": "reference"}, CodebookSpec.reference(32, 4)),
            ({"m": [1, "4"], "mode": "expanded", "M": 5.0}, CodebookSpec.expanded((1, 4), 5)),
        ],
    )
    def test_integral_float_json_spec_numbers_accepted(self, tmp_path, doc, expected):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert run("analyze", "--spec", path, "--n-range", "1", "--out", tmp_path) == 0
        manifest = json.loads((tmp_path / "analyze_manifest.json").read_text())
        assert manifest["parameters"]["spec"] == expected.describe()

    def test_manifest_written(self, tmp_path):
        run("analyze", "--spec", "L=2,m=2,2,mode=expanded",
            "--n-range", "1:3", "--out", tmp_path)
        manifest = json.loads((tmp_path / "analyze_manifest.json").read_text())
        assert manifest["command"] == "analyze"
        assert manifest["parameters"]["n_range"] == "1:3:1"
        assert manifest["outputs"] == ["analyze.csv"]
        assert "version" in manifest and "duration_seconds" in manifest

    def test_bad_spec_exit_code(self, tmp_path, capsys):
        assert run("analyze", "--spec", "L=0,m=2,mode=reference",
                   "--n-range", "1", "--out", tmp_path) == 2
        assert "error:" in capsys.readouterr().err


class TestInspectChain:
    def test_small_chain_matches_golden(self, tmp_path, golden_dir):
        assert run("inspect-chain", "--spec", "L=2,m=2,2,mode=expanded",
                   "--out", tmp_path) == 0
        produced = (tmp_path / "chain.csv").read_bytes()
        assert produced == (golden_dir / "chain_l2_m2.csv").read_bytes()

    def test_wide_chain_matches_golden(self, tmp_path, golden_dir):
        assert run("inspect-chain", "--spec", "L=2,m=4,4,mode=expanded",
                   "--out", tmp_path) == 0
        produced = (tmp_path / "chain.csv").read_bytes()
        assert produced == (golden_dir / "chain_l2_m4.csv").read_bytes()

    def test_single_subframe_dump(self, tmp_path):
        assert run("inspect-chain", "--spec", "L=1,m=1,mode=expanded",
                   "--out", tmp_path) == 0
        lines = (tmp_path / "chain.csv").read_text().splitlines()
        assert lines == ["state_id,C_1,cardinality,initial,transitions", "1,2,1,1,1:1"]

    def test_nonuniform_chain_matches_golden(self, tmp_path, golden_dir):
        assert run("inspect-chain", "--spec", "L=3,m=2,0,3,mode=expanded",
                   "--out", tmp_path) == 0
        produced = (tmp_path / "chain.csv").read_bytes()
        assert produced == (golden_dir / "chain_l3_m2_0_3.csv").read_bytes()

    def test_oversized_chain_exit_code(self, tmp_path):
        assert run("inspect-chain", "--spec", "L=6,m=9,mode=expanded",
                   "--out", tmp_path) == 3

    def test_dump_cap_boundary(self, tmp_path, capsys):
        # 73 * 137 - 1 = 10,000 states is the largest dump
        assert run("inspect-chain", "--spec", "L=2,m=72,136,mode=expanded",
                   "--out", tmp_path / "at") == 0
        assert len((tmp_path / "at" / "chain.csv").read_text().splitlines()) == 10_001
        # 2 * 3 * 1667 - 1 = 10,001 states is one too many
        assert run("inspect-chain", "--spec", "L=3,m=1,2,1666,mode=expanded",
                   "--out", tmp_path / "over") == 3
        assert "10001 states" in capsys.readouterr().err
        assert not (tmp_path / "over").exists()

    def test_reference_codebook_has_no_chain(self, tmp_path, capsys):
        # 40,400 codewords, but no chain to size: a usage error, not a cap
        assert run("inspect-chain", "--spec", "L=2,m=200,mode=reference",
                   "--out", tmp_path) == 2
        assert "expanded codebooks" in capsys.readouterr().err


class TestSimulate:
    def test_inline_spec_run(self, tmp_path):
        assert run("simulate", "--spec", "L=2,m=2,2,mode=expanded",
                   "--n-range", "1:2", "--trials", 400, "--seed", 5,
                   "--out", tmp_path) == 0
        lines = (tmp_path / "simulate.csv").read_text().splitlines()
        assert lines[0] == "N,mean_singles,mean_perceived,mean_phantoms,efficiency,se_efficiency"
        assert len(lines) == 3

    def test_manifest_diagnostics(self, tmp_path):
        for spec, perceived_at_1 in [("L=2,m=2,2,mode=expanded", 2.0),
                                     ("L=2,m=3,mode=reference", 1.0)]:
            out = tmp_path / spec
            assert run("simulate", "--spec", spec, "--n-range", "1:3", "--trials", 400,
                       "--seed", 5, "--out", out) == 0
            loads = json.loads((out / "simulate_manifest.json").read_text())["diagnostics"]
            assert [d["N"] for d in loads] == [1, 2, 3]
            assert loads[0]["analytic_singles"] == 1.0
            assert loads[0]["analytic_perceived"] == pytest.approx(perceived_at_1, rel=1e-12)
            # a lone contender is always a single: zero standard error, no z-score
            assert loads[0]["z_singles"] is None
            for d in loads[1:]:
                assert abs(d["z_singles"]) < 5 and abs(d["z_perceived"]) < 5

    def test_scenario_document(self, tmp_path):
        doc = tmp_path / "scenario.json"
        doc.write_text(json.dumps({
            "spec": "L=2,m=2,2,mode=expanded",
            "N": [1, 3],
            "trials": 300,
            "master_seed": 17,
        }))
        assert run("simulate", "--scenario", doc, "--out", tmp_path) == 0
        lines = (tmp_path / "simulate.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("simulate", "--spec", "L=2,m=2,2,mode=expanded",
                       "--n-range", "2", "--trials", 500, "--seed", 9,
                       "--out", out) == 0
        assert (a / "simulate.csv").read_bytes() == (b / "simulate.csv").read_bytes()

    def test_zero_trials_exit_code(self, tmp_path):
        assert run("simulate", "--spec", "L=2,m=2,2,mode=expanded",
                   "--n-range", "1", "--trials", 0, "--out", tmp_path) == 2

    def test_malformed_scenario_exit_code(self, tmp_path):
        doc = tmp_path / "broken.json"
        doc.write_text("{not json")
        assert run("simulate", "--scenario", doc, "--out", tmp_path) == 4

    def test_scenario_without_load_exit_code(self, tmp_path):
        doc = tmp_path / "no_n.json"
        doc.write_text(json.dumps({"spec": "L=2,m=2,2,mode=expanded", "trials": 10}))
        assert run("simulate", "--scenario", doc, "--out", tmp_path) == 2

    @pytest.mark.parametrize("field,value", [
        ("N", [2.5, 7.9]), ("N", 3.5), ("N", [True]), ("N", ["3"]),
        ("trials", True), ("trials", 100.5), ("master_seed", 1.5), ("master_seed", False),
    ])
    def test_non_integral_scenario_numbers_rejected(self, tmp_path, field, value):
        fields = {"spec": "L=2,m=2,2,mode=expanded", "N": [2, 7], "trials": 100,
                  "master_seed": 3, field: value}
        doc = tmp_path / "scenario.json"
        doc.write_text(json.dumps(fields))
        assert run("simulate", "--scenario", doc, "--out", tmp_path / "out") == 2
        assert not (tmp_path / "out").exists()

    def test_integral_float_scenario_numbers_accepted(self, tmp_path):
        doc = tmp_path / "scenario.json"
        doc.write_text(json.dumps({
            "spec": "L=2,m=2,2,mode=expanded", "N": [2.0], "trials": 100.0, "master_seed": 3,
        }))
        assert run("simulate", "--scenario", doc, "--out", tmp_path) == 0
        manifest = json.loads((tmp_path / "simulate_manifest.json").read_text())
        assert manifest["parameters"]["trials"] == 100
        assert manifest["parameters"]["n_range"] == "2:2:1"

    @pytest.mark.parametrize("loads", [[7, 2], [5, 5], [2, 4, 6], [3], [1, 2, 4]])
    def test_manifest_n_range_reruns_scenario_loads(self, tmp_path, loads):
        doc = tmp_path / "scenario.json"
        doc.write_text(json.dumps({"spec": "L=2,m=2,2,mode=expanded", "N": loads,
                                   "trials": 50, "master_seed": 3}))
        assert run("simulate", "--scenario", doc, "--out", tmp_path / "first") == 0
        recorded = json.loads((tmp_path / "first" / "simulate_manifest.json").read_text())
        n_range = recorded["parameters"]["n_range"]
        if isinstance(n_range, str):
            assert parse_n_range(n_range) == loads
            assert run("simulate", "--spec", recorded["parameters"]["spec"],
                       "--n-range", n_range, "--trials", 50, "--seed", 3,
                       "--out", tmp_path / "again") == 0
        else:
            assert n_range == loads
            doc.write_text(json.dumps({"spec": recorded["parameters"]["spec"],
                                       "N": n_range, "trials": 50, "master_seed": 3}))
            assert run("simulate", "--scenario", doc, "--out", tmp_path / "again") == 0
        assert ((tmp_path / "again" / "simulate.csv").read_bytes()
                == (tmp_path / "first" / "simulate.csv").read_bytes())

    def test_empty_scenario_load_list_exit_code(self, tmp_path):
        doc = tmp_path / "scenario.json"
        doc.write_text(json.dumps({"spec": "L=2,m=2,2,mode=expanded", "N": []}))
        assert run("simulate", "--scenario", doc, "--out", tmp_path / "out") == 2
        assert not (tmp_path / "out").exists()

    def test_spec_and_scenario_are_exclusive(self, tmp_path):
        doc = tmp_path / "scenario.json"
        doc.write_text(json.dumps({
            "spec": "L=2,m=2,2,mode=expanded", "N": 1, "trials": 10,
        }))
        assert run("simulate", "--scenario", doc,
                   "--spec", "L=2,m=2,2,mode=expanded", "--out", tmp_path) == 2


class TestThresholds:
    def test_schedule_csv_layout(self, tmp_path):
        assert run("thresholds", "--length", 2, "--preambles", 4,
                   "--n-range", "1:60", "--out", tmp_path) == 0
        lines = (tmp_path / "thresholds.csv").read_text().splitlines()
        assert lines[0] == (
            "N_low,N_high,mode,budgets,cardinality,efficiency_low,efficiency_high"
        )
        rows = [line.split(",") for line in lines[1:]]
        assert [(r[0], r[1], r[3], r[4]) for r in rows] == [
            ("1", "13", "4|4", "8"),
            ("14", "15", "2|4", "14"),
            ("16", "20", "3|4", "19"),
            ("21", "60", "4|4", "24"),
        ]
        assert rows[0][2] == "reference"
        assert all(r[2] == "expanded" for r in rows[1:])

    def test_requires_positive_geometry(self, tmp_path):
        assert run("thresholds", "--length", 0, "--preambles", 4,
                   "--out", tmp_path) == 2
        assert run("thresholds", "--length", -1, "--preambles", 4,
                   "--out", tmp_path) == 2


class TestReproduce:
    def test_comparison_bundle(self, tmp_path):
        assert run("reproduce", "--figure", "comparison", "--n-range", "1:12:3",
                   "--trials", 300, "--seed", 3, "--out", tmp_path) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "comparison.svg",
            "comparison_expanded.csv",
            "comparison_manifest.json",
            "comparison_montecarlo.csv",
            "comparison_reference.csv",
        ]
        manifest = json.loads((tmp_path / "comparison_manifest.json").read_text())
        assert manifest["command"] == "reproduce"
        assert manifest["parameters"]["figure"] == "comparison"
        # SVG is self-contained, well-formed XML
        root = ET.parse(tmp_path / "comparison.svg").getroot()
        assert root.tag.endswith("svg")

    def test_unknown_figure_exit_code(self, tmp_path):
        # argparse rejects ids outside the declared choices with usage exit 2
        with pytest.raises(SystemExit) as err:
            run("reproduce", "--figure", "nope", "--out", tmp_path)
        assert err.value.code == 2

    def test_no_temp_files_left_behind(self, tmp_path):
        run("reproduce", "--figure", "comparison", "--n-range", "1:4",
            "--trials", 100, "--out", tmp_path)
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".")]
        assert leftovers == []


class TestImport:
    def test_cli_import_leaves_scipy_unloaded(self):
        # only the chain's count table needs scipy, and it imports it when built
        src = Path(codexpand.__file__).resolve().parents[1]
        code = ("import sys, codexpand.cli; "
                "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert done.stdout.strip() == "[]"
