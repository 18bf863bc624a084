"""CLI behavior: exit codes, report shape/determinism, folding round-trips."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from numpy.testing import assert_array_equal

import normfusion
from normfusion import cli
from normfusion.block import BlockConfig, random_block_weights
from normfusion.cli import default_config_path, main
from normfusion.fusion import (
    FoldedLinear,
    fold_rmsnorm_linear,
    fused_layernorm_matmul,
    fused_rmsnorm_llama_mlp,
    fused_rmsnorm_matmul,
)
from normfusion.jsonio import ConfigError, dumps_report, load_block_weights, load_config, save_block_weights
from normfusion.norms import RmsNormParams
from normfusion.simulator import schedule

SCHEMA = json.loads((default_config_path().parent / "report.schema.json").read_text())


def small_config(tmp_path, **overrides):
    cfg = {
        "block": {"d_model": 16, "n_heads": 2, "seq_len": 4, "mlp_hidden": 24,
                  "variant": "llama-swiglu", "epsilon_ln": 1e-5},
        "cost_model": {"matrix_macs_per_cycle": 256, "vector_elems_per_cycle": 64,
                       "collective_alpha": 100, "collective_beta": 10, "sync_overhead": 4},
        "seed": 7,
        "trials": 5,
        "tolerance": 1e-10,
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def fold_file_entries(path) -> dict[str, dict[str, np.ndarray]]:
    """A fold file's entries as float64 arrays, parsed with plain `json`: {site: {field: array}}."""
    def array(value):
        if isinstance(value, dict):  # a matrix: shape header plus row-major data
            return np.array(value["data"], dtype=np.float64).reshape(value["rows"], value["cols"])
        return np.array(value, dtype=np.float64)

    sites = json.loads(Path(path).read_text())["sites"]
    return {site: {field: array(value) for field, value in entry.items()} for site, entry in sites.items()}


def strict_json(text):
    """`json.loads` that rejects the non-JSON tokens NaN, Infinity and -Infinity."""
    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=reject)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args):
    """Run a fresh interpreter that imports normfusion from the same sources as this one."""
    src = str(Path(normfusion.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


class TestVerify:
    def test_passes_on_small_config(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "verify", small_config(tmp_path))
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        assert report["pass"] is True
        for site in ("layernorm_linear", "softmax_matmul", "rmsnorm_llama_mlp", "full_block"):
            assert report["equivalence"][site]["max_rel_err"] <= 1e-10

    def test_shipped_verify_config_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", str(default_config_path("verify_small")), "--quiet")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_zero_tolerance_fails_numerically(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "verify", small_config(tmp_path, tolerance=0.0))
        assert code == 1
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        assert report["pass"] is False

    def test_nan_in_a_later_trial_fails_the_site(self, tmp_path, capsys, monkeypatch):
        # a (conventional, fused) pair with error about 1e-15, then one whose fused result is NaN
        pairs = iter([(np.ones(2), np.ones(2) + 1e-15), (np.ones(2), np.full(2, np.nan))])
        monkeypatch.setitem(cli.VERIFY_SITES, "softmax_matmul", lambda rng, cfg: next(pairs))
        code, out, _ = run_cli(capsys, "verify", small_config(tmp_path, trials=2), "--quiet")
        assert code == 1
        report = strict_json(out)
        jsonschema.validate(report, SCHEMA)
        site = report["equivalence"]["softmax_matmul"]
        assert site["max_rel_err"] is None and site["pass"] is False
        assert report["equivalence"]["layernorm_linear"]["pass"] is True
        assert report["pass"] is False

    @pytest.mark.parametrize("notes", [5, None, [], {}], ids=["number", "null", "array", "object"])
    def test_non_string_notes_is_config_error(self, tmp_path, capsys, notes):
        # every report echoes notes, and the report schema takes only a string
        path = Path(small_config(tmp_path))
        path.write_text(json.dumps(dict(json.loads(path.read_text()), notes=notes)))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert f"notes must be a string, got {notes!r}" in err

    @pytest.mark.parametrize("kernel", ["einsum", "chunked"])
    def test_rmsnorm_llama_mlp_is_the_public_fused_mlp(self, request, kernel):
        """The site's fused value, through the block's site code, has the bits of `fused_rmsnorm_llama_mlp`."""
        if kernel == "chunked":
            request.getfixturevalue("chunked_kernel")
        cfg = BlockConfig(d_model=16, n_heads=2, seq_len=4, mlp_hidden=24, variant="llama-swiglu")
        for trial in range(3):
            _, fused = cli.VERIFY_SITES["rmsnorm_llama_mlp"](np.random.default_rng([7, 2, trial]), cfg)
            rng = np.random.default_rng([7, 2, trial])  # the same draws, in the same order
            n, h = cfg.d_model, cfg.mlp_hidden
            x = rng.standard_normal(n)
            params = RmsNormParams(gamma=rng.uniform(0.5, 1.5, size=n), epsilon=cfg.epsilon_ln)
            w_gate, w_up = (rng.standard_normal((n, h)) / np.sqrt(n) for _ in range(2))
            w_down = rng.standard_normal((h, n)) / np.sqrt(h)
            expected = fused_rmsnorm_llama_mlp(x, fold_rmsnorm_linear(params, w_gate),
                                               fold_rmsnorm_linear(params, w_up), w_down, params.epsilon)
            assert_array_equal(fused.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("variant", ["standard-gelu", "llama-swiglu"])
    def test_report_is_the_same_on_the_chunked_kernel(self, request, tmp_path, capsys, variant):
        doc = json.loads(default_config_path("verify_small").read_text())
        doc["block"]["variant"], doc["trials"] = variant, 3
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", str(path), "--quiet")
        assert (code, err) == (0, "")
        request.getfixturevalue("chunked_kernel")
        assert run_cli(capsys, "verify", str(path), "--quiet") == (code, out, err)

    @pytest.mark.parametrize("tolerance", [float("inf"), float("nan"), -float("inf")])
    def test_non_finite_tolerance_is_config_error(self, tmp_path, capsys, tolerance):
        # json accepts Infinity; a tolerance of Infinity would pass every site
        code, out, err = run_cli(capsys, "verify", small_config(tmp_path, tolerance=tolerance))
        assert code == 2
        assert out == ""
        assert f"tolerance must be non-negative and finite, got {tolerance!r}" in err

    # JSON true/false passed as the number 1/0: "trials": true with "seed": false
    # exited 0, "n_heads": true raised a TypeError, "seq_len": true ran a 1-token block
    @pytest.mark.parametrize("section,key,value", [
        (None, "trials", True), (None, "seed", False), ("block", "n_heads", True),
        ("block", "seq_len", True), ("cost_model", "sync_overhead", False),
    ])
    def test_boolean_value_is_config_error(self, tmp_path, capsys, section, key, value):
        path = small_config(tmp_path, **({key: value} if section is None else {section: {key: value}}))
        code, out, err = run_cli(capsys, "verify", path)
        assert code == 2
        assert out == ""
        context = "config" if section is None else f"config.{section}"
        assert f"{context}.{key} must not be a boolean, got {json.dumps(value)}" in err

    def test_report_with_a_non_finite_value_is_not_written(self):
        with pytest.raises(ValueError, match="JSON compliant"):
            dumps_report({"max_rel_err": float("nan")})

    def test_report_with_a_nested_non_finite_value_is_not_written(self):
        with pytest.raises(ValueError, match="JSON compliant"):
            dumps_report({"rows": [{"a": 1.0}, {"b": -float("inf")}]})

    def test_indivisible_heads_is_config_error(self, tmp_path, capsys):
        path = small_config(tmp_path, block={"d_model": 15})
        code, out, err = run_cli(capsys, "verify", path)
        assert code == 2
        assert out == ""
        assert "divisible" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = small_config(tmp_path, tollerance=1e-10)
        code, _, err = run_cli(capsys, "verify", path)
        assert code == 2
        assert "unknown key" in err

    def test_unknown_nested_key_rejected(self, tmp_path, capsys):
        path = small_config(tmp_path, cost_model={"warp_size": 32})
        code, _, err = run_cli(capsys, "verify", path)
        assert code == 2
        assert "warp_size" in err

    def test_malformed_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert "not valid JSON" in err

    def test_missing_file_rejected(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "verify", str(tmp_path / "nope.json"))
        assert code == 2

    def test_missing_required_key_named(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"block": {"d_model": 8, "n_heads": 2},
                                    "cost_model": {"matrix_macs_per_cycle": 1, "vector_elems_per_cycle": 1}}))
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert "missing key(s) in config.block: seq_len, mlp_hidden" in err

    def test_omitted_keys_take_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"block": {"d_model": 8, "n_heads": 2, "seq_len": 3, "mlp_hidden": 16},
                                    "cost_model": {"matrix_macs_per_cycle": 1, "vector_elems_per_cycle": 1}}))
        rc = load_config(str(path))
        assert (rc.seed, rc.trials, rc.tolerance, rc.notes) == (0, 10, 1e-10, "")
        assert (rc.block.variant, rc.block.epsilon_ln) == ("standard-gelu", 1e-5)
        cm = rc.cost_model
        assert (cm.collective_alpha, cm.collective_beta, cm.sync_overhead) == (0.0, 0.0, 0.0)

    def test_byte_identical_reports(self, tmp_path, capsys):
        path = small_config(tmp_path)
        _, first, _ = run_cli(capsys, "verify", path, "--quiet")
        _, second, _ = run_cli(capsys, "verify", path, "--quiet")
        assert first == second

    def test_seed_override_changes_report(self, tmp_path, capsys):
        path = small_config(tmp_path)
        _, base, _ = run_cli(capsys, "verify", path)
        code, overridden, _ = run_cli(capsys, "verify", path, "--seed", "123")
        assert code == 0
        assert json.loads(overridden)["seed"] == 123
        assert json.loads(base)["seed"] == 7

    def test_quiet_suppresses_stderr(self, tmp_path, capsys):
        path = small_config(tmp_path)
        _, _, err = run_cli(capsys, "verify", path, "--quiet")
        assert err == ""
        _, _, err = run_cli(capsys, "verify", path)
        assert "verify:" in err


class TestSimulate:
    def test_default_config_hits_target_band(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", str(default_config_path("llama7b_sim")), "--quiet")
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        assert 15.0 <= report["latency"]["speedup_percent"] <= 20.0

    def test_byte_identical_reports(self, capsys):
        path = str(default_config_path("llama7b_sim"))
        _, first, _ = run_cli(capsys, "simulate", path, "--quiet")
        _, second, _ = run_cli(capsys, "simulate", path, "--quiet")
        assert first == second

    def test_single_mode_totals_match_both(self, tmp_path, capsys):
        path = small_config(tmp_path)
        _, both, _ = run_cli(capsys, "simulate", path, "--quiet")
        _, fused, _ = run_cli(capsys, "simulate", path, "--fused", "--quiet")
        _, conv, _ = run_cli(capsys, "simulate", path, "--conventional", "--quiet")
        both_latency = json.loads(both)["latency"]
        fused_report, conv_report = json.loads(fused), json.loads(conv)
        jsonschema.validate(fused_report, SCHEMA)
        jsonschema.validate(conv_report, SCHEMA)
        assert fused_report["latency"]["total"] == both_latency["fused_total"]
        assert conv_report["latency"]["total"] == both_latency["conventional_total"]
        # single-mode reports embed the full timeline as JSON
        timeline = fused_report["latency"]["timeline"]
        assert timeline and max(e["end_cycle"] for e in timeline) == fused_report["latency"]["total"]

    def test_json_timeline_matches_csv(self, tmp_path, capsys):
        path = small_config(tmp_path)
        csv_path = tmp_path / "tl.csv"
        _, out, _ = run_cli(capsys, "simulate", path, "--conventional", "--csv", str(csv_path), "--quiet")
        timeline = json.loads(out)["latency"]["timeline"]
        csv_rows = csv_path.read_text().strip().splitlines()[1:]
        assert len(csv_rows) == len(timeline)
        for entry, row in zip(timeline, csv_rows):
            fields = row.split(",")
            assert [str(entry["node_id"]), entry["kind"], entry["engine"],
                    str(entry["start_cycle"]), str(entry["end_cycle"])] == fields

    def test_csv_export(self, tmp_path, capsys):
        path = small_config(tmp_path)
        csv_path = tmp_path / "timeline.csv"
        code, out, _ = run_cli(capsys, "simulate", path, "--fused", "--csv", str(csv_path), "--quiet")
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "node_id,kind,engine,start_cycle,end_cycle"
        assert len(lines) > 1
        for line in lines[1:]:
            node_id, kind, engine, start, end = line.split(",")
            assert kind in ("elementwise", "collective", "matmul")
            assert engine in ("vector", "matrix")
            assert int(end) >= int(start) >= 0

    @pytest.mark.parametrize("mode", ["fused", "conventional"])
    def test_one_mode_csv_schedules_once(self, tmp_path, capsys, monkeypatch, mode):
        # the CSV is written from the timeline the report was made from
        calls = []

        def counting_schedule(*args):
            calls.append(args)
            return schedule(*args)

        monkeypatch.setattr(cli, "schedule", counting_schedule)
        code, _, _ = run_cli(capsys, "simulate", small_config(tmp_path), f"--{mode}",
                             "--csv", str(tmp_path / "tl.csv"), "--quiet")
        assert code == 0
        assert len(calls) == 1

    def test_both_csv_schedules_each_graph_once(self, tmp_path, capsys, monkeypatch):
        # `compare` schedules the two graphs and their six site subgraphs, and
        # the CSVs are written from its two full-graph timelines
        calls = []

        def counting_schedule(*args):
            calls.append(args)
            return schedule(*args)

        monkeypatch.setattr(cli, "schedule", counting_schedule)
        monkeypatch.setattr(normfusion.simulator, "schedule", counting_schedule)
        code, _, _ = run_cli(capsys, "simulate", small_config(tmp_path), "--both",
                             "--csv", str(tmp_path / "tl.csv"), "--quiet")
        assert code == 0
        assert len(calls) == 8

    def test_csv_both_writes_two_files(self, tmp_path, capsys):
        path = small_config(tmp_path)
        base = tmp_path / "tl.csv"
        code, out, _ = run_cli(capsys, "simulate", path, "--csv", str(base), "--quiet")
        assert code == 0
        report = json.loads(out)
        assert (tmp_path / "tl.conventional.csv").exists()
        assert (tmp_path / "tl.fused.csv").exists()
        assert sorted(report["csv"]) == sorted(
            [str(tmp_path / "tl.conventional.csv"), str(tmp_path / "tl.fused.csv")]
        )

    def test_zero_collective_zero_speedup(self, tmp_path, capsys):
        path = small_config(
            tmp_path,
            cost_model={"collective_alpha": 0, "collective_beta": 0,
                        "vector_elems_per_cycle": 1e12, "sync_overhead": 0},
        )
        _, out, _ = run_cli(capsys, "simulate", path, "--quiet")
        assert abs(json.loads(out)["latency"]["speedup_percent"]) <= 0.5


class TestFold:
    @pytest.fixture(params=["standard-gelu", "llama-swiglu"])
    def setup(self, request, tmp_path):
        variant = request.param
        cfg_path = small_config(tmp_path, block={"variant": variant})
        cfg = BlockConfig(d_model=16, n_heads=2, seq_len=4, mlp_hidden=24, variant=variant)
        weights = random_block_weights(cfg, np.random.default_rng(99))
        win = tmp_path / "weights.json"
        save_block_weights(str(win), cfg, weights)
        return cfg_path, cfg, weights, win, tmp_path / "folded.json"

    def test_fold_round_trip_is_bit_exact(self, setup, capsys):
        # a fused run through the file's parsed arrays is bit-equal to the in-memory one
        cfg_path, cfg, weights, win, wout = setup
        code, out, _ = run_cli(capsys, "fold", cfg_path, str(win), str(wout), "--quiet")
        assert code == 0
        jsonschema.validate(json.loads(out), SCHEMA)

        if cfg.variant == "standard-gelu":
            fold_type, fused_norm_matmul = FoldedLinear, fused_layernorm_matmul
        else:
            fold_type, fused_norm_matmul = FoldedLinear, fused_rmsnorm_matmul
        x = np.random.default_rng(5).standard_normal((cfg.seq_len, cfg.d_model))
        for site, entry in fold_file_entries(wout).items():
            assert_array_equal(fused_norm_matmul(x, fold_type(**entry), cfg.epsilon_ln),
                               fused_norm_matmul(x, weights.folded[site], cfg.epsilon_ln))

    def test_fold_file_matches_compiled_block(self, setup, capsys):
        # the file holds exactly the per-site folds the fused block multiplies by
        cfg_path, _, weights, win, wout = setup
        code, out, _ = run_cli(capsys, "fold", cfg_path, str(win), str(wout), "--quiet")
        assert code == 0
        assert json.loads(out)["sites"] == ["ln1", "ln2"]
        parsed = fold_file_entries(wout)
        assert list(parsed) == ["ln1", "ln2"]
        for site, entry in parsed.items():
            compiled = weights.folded[site]
            assert list(entry) == [f.name for f in dataclasses.fields(compiled) if getattr(compiled, f.name) is not None]
            for field, array in entry.items():
                assert_array_equal(array.view(np.uint64), getattr(compiled, field).view(np.uint64))

    def test_fold_is_idempotent(self, setup, capsys):
        cfg_path, _, _, win, wout = setup
        run_cli(capsys, "fold", cfg_path, str(win), str(wout), "--quiet")
        first = wout.read_bytes()
        run_cli(capsys, "fold", cfg_path, str(win), str(wout), "--quiet")
        assert wout.read_bytes() == first

    def test_weight_block_round_trip(self, setup, capsys):
        _, cfg, weights, win, _ = setup
        loaded = load_block_weights(str(win), cfg)
        assert_array_equal(loaded.w_q, weights.w_q)
        assert_array_equal(loaded.ln1.gamma, weights.ln1.gamma)

    @pytest.mark.parametrize("section,extra,copied", [("matrices", "w_gaet", "w_q"), ("norms", "ln3", "ln1")])
    def test_unknown_weight_entry_rejected(self, setup, capsys, section, extra, copied):
        cfg_path, cfg, _, win, wout = setup
        doc = json.loads(win.read_text())
        doc[section][extra] = doc[section][copied]  # a well-formed entry under a misspelt name
        win.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"unknown key\\(s\\) in weights.{section}: {extra}"):
            load_block_weights(str(win), cfg)
        code, _, err = run_cli(capsys, "fold", cfg_path, str(win), str(wout), "--quiet")
        assert code == 2
        assert extra in err

    @pytest.mark.parametrize("field", ["matrix datum", "norm epsilon"])
    def test_non_numeric_weight_is_config_error(self, setup, capsys, field):
        cfg_path, _, _, win, wout = setup
        doc = json.loads(win.read_text())
        if field == "matrix datum":
            doc["matrices"]["w_q"]["data"][0] = "x"
        else:
            doc["norms"]["ln1"]["epsilon"] = "x"
        win.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "fold", cfg_path, str(win), str(wout), "--quiet")
        assert code == 2
        assert err

    def test_boolean_weight_entry_is_config_error(self, setup, capsys):
        cfg_path, _, _, win, wout = setup
        doc = json.loads(win.read_text())
        doc["norms"]["ln1"]["epsilon"] = True
        win.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "fold", cfg_path, str(win), str(wout), "--quiet")
        assert code == 2
        assert "weights.norms.ln1.epsilon must not be a boolean, got true" in err

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("section,entry,field", [("matrices", "w_q", "data"), ("norms", "ln2", "gamma")])
    def test_boolean_in_a_weight_array_is_config_error(self, setup, capsys, section, entry, field, value):
        # float() would read true/false as 1.0/0.0
        cfg_path, cfg, _, win, wout = setup
        doc = json.loads(win.read_text())
        doc[section][entry][field][1] = value
        win.write_text(json.dumps(doc))
        message = f"weights.{section}.{entry}.{field}[1] must not be a boolean, got {json.dumps(value)}"
        with pytest.raises(ConfigError) as raised:
            load_block_weights(str(win), cfg)
        assert str(raised.value) == message
        code, out, err = run_cli(capsys, "fold", cfg_path, str(win), str(wout), "--quiet")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_dimension_mismatch_is_config_error(self, setup, tmp_path, capsys):
        cfg_path, cfg, weights, win, wout = setup
        other_cfg = small_config(tmp_path, block={"d_model": 32, "variant": cfg.variant})
        code, _, err = run_cli(capsys, "fold", other_cfg, str(win), str(wout), "--quiet")
        assert code == 2
        assert "shape" in err or "match" in err


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        assert main(["simulate", small_config(tmp_path), "--gantt"]) == 2

    def test_negative_seed_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "verify", small_config(tmp_path), "--seed", "-3")
        assert code == 2


class TestUnwritableOutput:
    """An output path that cannot be written is a usage error: named on stderr, no report."""

    @pytest.mark.parametrize("command", [
        ["fold"], ["simulate", "--both", "--csv"], ["simulate", "--fused", "--csv"],
    ], ids=" ".join)
    def test_missing_directory_exits_2(self, tmp_path, capsys, command):
        cfg_path = small_config(tmp_path)
        missing = tmp_path / "missing"
        if command == ["fold"]:
            cfg = load_config(cfg_path).block
            win = tmp_path / "weights.json"
            save_block_weights(str(win), cfg, random_block_weights(cfg, np.random.default_rng(99)))
            argv = ["fold", cfg_path, str(win), str(missing / "folded.json")]
        else:
            argv = [command[0], cfg_path, *command[1:], str(missing / "tl.csv")]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "cannot write" in err
        assert not missing.exists()

    def test_weight_writer_names_the_file(self, tmp_path):
        cfg = BlockConfig(d_model=16, n_heads=2, seq_len=4, mlp_hidden=24)
        with pytest.raises(ConfigError, match="cannot write block-weights file"):
            save_block_weights(str(tmp_path / "missing" / "w.json"), cfg,
                               random_block_weights(cfg, np.random.default_rng(99)))


class TestRepeatedCalls:
    """`main` may be called again and again in one process: the parser is
    built on the first call and shared, and nothing else carries over."""

    def test_each_report_matches_a_fresh_process(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the same width in both
        cfg_path = small_config(tmp_path, block={"variant": "standard-gelu"})
        cfg = BlockConfig(d_model=16, n_heads=2, seq_len=4, mlp_hidden=24)
        win, wout, csv = tmp_path / "weights.json", tmp_path / "folded.json", tmp_path / "tl.csv"
        save_block_weights(str(win), cfg, random_block_weights(cfg, np.random.default_rng(99)))
        # each call changes a mode, seed or csv key from the one before
        calls = [
            (["simulate", cfg_path, "--fused", "--seed", "3", "--csv", str(csv)], [csv]),
            (["simulate", cfg_path], []),
            (["simulate"], []),
            (["verify", cfg_path, "--quiet"], []),
            (["fold", cfg_path, str(win), str(wout)], [wout]),
        ]
        codes = []
        for argv, written in calls:
            code, out, err = run_cli(capsys, *argv)
            files = [f.read_bytes() for f in written]
            proc = run_python("-m", "normfusion.cli", *argv)
            assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
            assert files == [f.read_bytes() for f in written], argv
            codes.append(code)
        assert codes == [0, 0, 2, 0, 0]

    def test_parser_is_built_once(self, tmp_path, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        path = small_config(tmp_path)
        for mode in ("--both", "--fused", "--conventional"):
            assert run_cli(capsys, "simulate", path, mode, "--quiet")[0] == 0
        assert len(built) <= 4  # at most one top-level parser and its three subparsers

    def test_import_builds_no_parser(self):
        proc = run_python("-c", """
import argparse
built = []
init = argparse.ArgumentParser.__init__
argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)
import normfusion.cli
print(len(built))
""")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"


class TestReportLayout:
    """Every stdout report is one line: `json.dumps` of its own content, with no indent."""

    @pytest.mark.parametrize("command", [
        ["verify"],
        *(["simulate", mode, *csv] for csv in ([], ["--csv"]) for mode in ("--both", "--fused", "--conventional")),
        ["fold"],
    ], ids=" ".join)
    def test_report_is_one_canonical_line(self, tmp_path, capsys, command):
        cfg_path = small_config(tmp_path)
        if command == ["fold"]:
            cfg = load_config(cfg_path).block
            win = tmp_path / "weights.json"
            save_block_weights(str(win), cfg, random_block_weights(cfg, np.random.default_rng(99)))
            argv = ["fold", cfg_path, str(win), str(tmp_path / "folded.json")]
        else:
            argv = [command[0], cfg_path, *command[1:]]
            if "--csv" in argv:
                argv.append(str(tmp_path / "tl.csv"))
        argv.append("--quiet")
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == json.dumps(strict_json(out), allow_nan=False) + "\n"
        assert out.count("\n") == 1
        # a second in-process call and a fresh process write the same bytes
        assert run_cli(capsys, *argv) == (code, out, err)
        proc = run_python("-m", "normfusion.cli", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


class TestModuleEntryPoint:
    """`python -m normfusion.cli` runs the CLI, as the installed `normfusion` script does."""

    def run_module(self, *argv):
        return run_python("-m", "normfusion.cli", *argv)

    def test_verify_prints_its_report(self):
        proc = self.run_module("verify", str(default_config_path("verify_small")), "--quiet")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["command"] == "verify"

    def test_missing_config_exits_2(self, tmp_path):
        proc = self.run_module("verify", str(tmp_path / "absent.json"))
        assert proc.returncode == 2
        assert proc.stdout == "" and "cannot read config file" in proc.stderr
