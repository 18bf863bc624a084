"""CLI behavior: exit codes, report shape and determinism."""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

import normfusion
from normfusion import cli
from normfusion.block import BlockConfig
from normfusion.cli import default_config_path, main
from normfusion.fusion import fold_rmsnorm_linear, fused_rmsnorm_llama_mlp
from normfusion.jsonio import ConfigError, config_dict, dumps_report, load_config
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
                                               fold_rmsnorm_linear(params, w_up), w_down)
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
        assert f"tolerance must be a non-negative finite scalar, got {tolerance!r}" in err

    # JSON true/false passed as the number 1/0: "trials": true with "seed": false
    # exited 0, "n_heads": true raised a TypeError, "seq_len": true ran a 1-token block.
    # Each key's own rule refuses a bool; key names are unique across sections.
    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("section,key", [
        *((None, key) for key in ("seed", "trials", "tolerance", "notes")),
        *(("block", key) for key in ("d_model", "n_heads", "seq_len", "mlp_hidden", "variant", "epsilon_ln")),
        *(("cost_model", key) for key in ("matrix_macs_per_cycle", "vector_elems_per_cycle", "collective_alpha",
                                          "collective_beta", "sync_overhead")),
    ])
    def test_boolean_value_is_config_error(self, tmp_path, capsys, section, key, value):
        path = small_config(tmp_path, **({key: value} if section is None else {section: {key: value}}))
        code, out, err = run_cli(capsys, "verify", path)
        assert (code, out) == (2, "")
        assert re.fullmatch(f"error: {key} must be [^\n]*, got {value}\n", err), err

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

    BLOCK = {"d_model": 8, "n_heads": 2, "seq_len": 3, "mlp_hidden": 16}

    @pytest.mark.parametrize("doc,context", [([], "config"), ({"block": [8, 2], "cost_model": {}}, "config.block"),
                                             ({"block": BLOCK, "cost_model": 1}, "config.cost_model")],
                             ids=["config", "block", "cost_model"])
    def test_section_that_is_not_an_object_rejected(self, tmp_path, capsys, doc, context):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"^{re.escape(context)} must be a JSON object$"):
            load_config(str(path))
        assert run_cli(capsys, "verify", str(path)) == (2, "", f"error: {context} must be a JSON object\n")

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


class TestIntegerFields:
    """Run-config counts: a bool is refused, and any integer `operator.index` takes is stored as a plain int."""

    @pytest.mark.parametrize("value", [True, False, np.True_])
    @pytest.mark.parametrize("name,kind", [("seed", "non-negative"), ("trials", "positive")])
    def test_boolean_rejected(self, tmp_path, name, kind, value):
        # "seed": true in a report is not an integer to report.schema.json
        rc = load_config(small_config(tmp_path))
        with pytest.raises(ConfigError, match=f"^{name} must be a {kind} integer, got {re.escape(repr(value))}$"):
            dataclasses.replace(rc, **{name: value})

    def test_zero_trials_rejected_and_zero_seed_taken(self, tmp_path, capsys):
        rc = load_config(small_config(tmp_path))
        assert dataclasses.replace(rc, seed=0).seed == 0
        with pytest.raises(ConfigError, match="^trials must be a positive integer, got 0$"):
            dataclasses.replace(rc, trials=0)
        assert run_cli(capsys, "verify", small_config(tmp_path, trials=0)) == (
            2, "", "error: trials must be a positive integer, got 0\n")

    def test_numpy_integers_give_a_valid_report(self, tmp_path, capsys):
        rc = load_config(small_config(tmp_path))
        rc = dataclasses.replace(rc, seed=np.int64(7), trials=np.uint8(2),
                                 block=dataclasses.replace(rc.block, d_model=np.int64(16), seq_len=np.int32(4)))
        assert [type(v) for v in (rc.seed, rc.trials, rc.block.d_model, rc.block.seq_len)] == [int] * 4
        assert cli.cmd_verify(rc, quiet=True) == 0
        report = strict_json(capsys.readouterr().out)
        jsonschema.validate(report, SCHEMA)
        assert (report["seed"], report["trials"], report["config"]["block"]["d_model"]) == (7, 2, 16)


# each numeric config field's section (None: the run config itself), its sign and its kind of number
NUMERIC_FIELDS = {
    **{name: ("block", "positive", "integer") for name in ("d_model", "n_heads", "seq_len", "mlp_hidden")},
    "epsilon_ln": ("block", "positive", "finite scalar"),
    "seed": (None, "non-negative", "integer"),
    "trials": (None, "positive", "integer"),
    "tolerance": (None, "non-negative", "finite scalar"),
    **{name: ("cost_model", "positive", "finite scalar") for name in ("matrix_macs_per_cycle", "vector_elems_per_cycle")},
    **{name: ("cost_model", "non-negative", "finite scalar")
       for name in ("collective_alpha", "collective_beta", "sync_overhead")},
}


def field_message(name, value):
    """The one message form of every numeric field, `tensor._number`'s."""
    _, sign, kind = NUMERIC_FIELDS[name]
    return f"{name} must be a {sign} {kind}, got {value!r}"


class TestRealFields:
    """Real-valued config fields: a bool is refused, an integer is stored as a plain int, any other real as a float."""

    FIELDS = {name: section for name, (section, _, kind) in NUMERIC_FIELDS.items() if kind == "finite scalar"}

    @staticmethod
    def replaced(rc, **changes):
        """`rc` with each field in `changes` replaced in its own section."""
        sections = {}
        for name, value in changes.items():
            sections.setdefault(TestRealFields.FIELDS[name], {})[name] = value
        top = sections.pop(None, {})
        return dataclasses.replace(rc, **top, **{section: dataclasses.replace(getattr(rc, section), **fields)
                                                 for section, fields in sections.items()})

    @pytest.mark.parametrize("value", [True, False, np.True_, np.False_], ids=["True", "False", "np.True_", "np.False_"])
    @pytest.mark.parametrize("name", FIELDS)
    def test_boolean_rejected(self, tmp_path, name, value):
        # "tolerance": true was accepted and echoed as a JSON boolean, which report.schema.json rejects
        rc = load_config(small_config(tmp_path))
        with pytest.raises(ValueError, match=f"^{re.escape(field_message(name, value))}$"):
            self.replaced(rc, **{name: value})

    def test_numpy_scalars_give_valid_reports(self, tmp_path, capsys):
        # a numpy scalar was stored as is, and json could not encode the report's config
        rc = self.replaced(load_config(small_config(tmp_path)), tolerance=np.float32(1e-10),
                           epsilon_ln=np.float32(1e-5), collective_alpha=np.int64(5),
                           matrix_macs_per_cycle=np.float64(256.0), sync_overhead=np.uint8(4))
        stored = [rc.tolerance, rc.block.epsilon_ln, rc.cost_model.collective_alpha,
                  rc.cost_model.matrix_macs_per_cycle, rc.cost_model.sync_overhead]
        assert [type(v) for v in stored] == [float, float, int, float, int]
        assert stored == [float(np.float32(1e-10)), float(np.float32(1e-5)), 5, 256.0, 4]
        assert cli.cmd_verify(rc, quiet=True) == 0
        assert cli.cmd_simulate(rc, "both", None, quiet=True) == 0
        for out in capsys.readouterr().out.splitlines():
            report = strict_json(out)
            jsonschema.validate(report, SCHEMA)
            assert report["config"]["cost_model"]["collective_alpha"] == 5
            assert '"collective_alpha": 5, "collective_beta": 10, "sync_overhead": 4}' in out

    @pytest.mark.parametrize("sign", [1, -1], ids=["+10**400", "-10**400"])
    @pytest.mark.parametrize("name", FIELDS)
    def test_integer_beyond_float64_is_not_finite(self, tmp_path, capsys, name, sign):
        # 10**400 raised OverflowError in a cost_model field (exit 1), gave numpy's
        # ufunc text for epsilon_ln, and was echoed as a tolerance
        value, section = sign * 10**400, self.FIELDS[name]
        path = small_config(tmp_path, **({name: value} if section is None else {section: {name: value}}))
        message = field_message(name, value)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)
        assert run_cli(capsys, "simulate", path, "--quiet") == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    def test_zero_epsilon_ln_rejected_for_a_llama_block(self, tmp_path, capsys, command):
        # an RMSNorm alone takes epsilon 0, but verify checks a layernorm site at epsilon_ln for either variant:
        # a config that let 0 through died there with a traceback (exit 1)
        doc = json.loads(default_config_path("verify_small").read_text())
        doc["block"].update(variant="llama-swiglu", epsilon_ln=0)
        path = tmp_path / "llama.json"
        path.write_text(json.dumps(doc))
        message = "error: epsilon_ln must be a positive finite scalar, got 0\n"
        assert run_cli(capsys, command, str(path), "--quiet") == (2, "", message)

    @pytest.mark.parametrize("name", ["llama7b_sim", "verify_small"])
    def test_shipped_configs_echo_as_written(self, name):
        # integers stay JSON integers: "collective_alpha": 2000, not 2000.0
        path = default_config_path(name)
        assert json.dumps(config_dict(load_config(str(path)))) == json.dumps(json.loads(path.read_text()))


@pytest.mark.parametrize("name", NUMERIC_FIELDS)
def test_config_file_refuses_what_is_not_the_fields_number(tmp_path, capsys, name):
    section, sign, kind = NUMERIC_FIELDS[name]
    wrong = (0 if sign == "positive" else -1, 0.5 if kind == "integer" else -1e-300)  # a sign, or not an integer
    for value in ("1", None, float("nan"), float("inf"), -float("inf"), *wrong):
        path = small_config(tmp_path, **({name: value} if section is None else {section: {name: value}}))
        assert run_cli(capsys, "simulate", path, "--quiet") == (2, "", f"error: {field_message(name, value)}\n")


class TestConfigEncoding:
    """A config file is JSON text, so UTF-8: it is read as bytes and decoded as UTF-8 whatever the locale."""

    @staticmethod
    def config_with_notes(tmp_path, notes: bytes) -> str:
        path = Path(small_config(tmp_path, notes="NOTES"))
        path.write_bytes(path.read_bytes().replace(b'"NOTES"', b'"' + notes + b'"'))
        return str(path)

    @staticmethod
    def assert_not_json(code, out, err, reason):
        assert (code, out) == (2, "")
        assert err.startswith(f"error: config file is not valid JSON: {reason}")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_byte_that_is_not_utf8_is_config_error(self, tmp_path, capsys):
        # a 0xff byte in notes raised UnicodeDecodeError from json.load: exit 1 and a traceback
        path = self.config_with_notes(tmp_path, b"caf\xff")
        self.assert_not_json(*run_cli(capsys, "simulate", path, "--quiet"), "'utf-8' codec can't decode byte 0xff")

    def test_byte_that_is_not_utf8_in_a_fresh_process(self, tmp_path):
        path = self.config_with_notes(tmp_path, b"caf\xff")
        proc = run_python("-m", "normfusion.cli", "simulate", path, "--quiet")
        self.assert_not_json(proc.returncode, proc.stdout, proc.stderr, "'utf-8' codec can't decode byte 0xff")

    def test_byte_order_mark_is_not_json(self, tmp_path, capsys):
        path = Path(small_config(tmp_path))
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        self.assert_not_json(*run_cli(capsys, "simulate", str(path), "--quiet"), "Unexpected UTF-8 BOM")

    NOTES = "na\u00efve \u2192 \u65e5\u672c\u8a9e \U0001f642"

    def test_non_ascii_notes_are_echoed_exactly(self, tmp_path, capsys):
        path = self.config_with_notes(tmp_path, self.NOTES.encode("utf-8"))
        code, out, err = run_cli(capsys, "simulate", path, "--quiet")
        assert (code, err) == (0, "")
        assert strict_json(out)["config"]["notes"] == self.NOTES

    def test_non_ascii_notes_under_an_ascii_locale(self, tmp_path, capsys):
        # the C locale with neither UTF-8 mode nor locale coercion reads text files as ASCII;
        # a config opened in text mode failed there with UnicodeDecodeError
        path = self.config_with_notes(tmp_path, self.NOTES.encode("utf-8"))
        src = str(Path(normfusion.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, LC_ALL="C", PYTHONCOERCECLOCALE="0")
        proc = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "normfusion.cli", "simulate", path, "--quiet"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == run_cli(capsys, "simulate", path, "--quiet")[1]
        assert strict_json(proc.stdout)["config"]["notes"] == self.NOTES



class TestLongIntegers:
    """Python will not convert a digit string of more than `sys.get_int_max_str_digits()` digits to an int."""

    LIMIT = sys.get_int_max_str_digits()
    MESSAGE = f"config file holds an integer of more than {LIMIT} digits"

    @staticmethod
    def config_with(tmp_path, section, key, digits):
        """`small_config` whose `key` (in `section`, or None for the run config) is a `digits`-long integer."""
        value = "1" + "0" * (digits - 1)
        path = Path(small_config(tmp_path, **({section: {key: "X"}} if section else {key: "X"})))
        path.write_text(path.read_text().replace('"X"', value, 1))
        return str(path)

    @pytest.mark.parametrize("section,key", [(None, "seed"), (None, "trials"), ("block", "d_model"),
                                             ("cost_model", "collective_alpha")])
    def test_through_load_config(self, tmp_path, section, key):
        # json.loads raised its plain ValueError ("Exceeds the limit (4300 digits) ...")
        path = self.config_with(tmp_path, section, key, self.LIMIT + 1)
        with pytest.raises(ConfigError, match=f"^{re.escape(self.MESSAGE)}$"):
            load_config(path)

    def test_through_main(self, tmp_path, capsys):
        # it was exit 1 with a traceback
        code, out, err = run_cli(capsys, "simulate", self.config_with(tmp_path, None, "seed", self.LIMIT + 100),
                                 "--quiet")
        assert (code, out, err) == (2, "", f"error: {self.MESSAGE}\n")

    def test_in_a_fresh_process(self, tmp_path):
        proc = run_python("-m", "normfusion.cli", "simulate", self.config_with(tmp_path, None, "seed", self.LIMIT + 1),
                          "--quiet")
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {self.MESSAGE}\n")

    def test_an_integer_at_the_limit_is_echoed(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "simulate", self.config_with(tmp_path, None, "seed", self.LIMIT), "--quiet")
        assert (code, err) == (0, "")
        assert strict_json(out)["config"]["seed"] == 10 ** (self.LIMIT - 1)


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
        # `compare` schedules the two graphs and reads each site's saving from
        # their timelines, and the CSVs are written from those same two timelines
        calls = []

        def counting_schedule(*args):
            calls.append(args)
            return schedule(*args)

        monkeypatch.setattr(cli, "schedule", counting_schedule)
        monkeypatch.setattr(normfusion.simulator, "schedule", counting_schedule)
        code, _, _ = run_cli(capsys, "simulate", small_config(tmp_path), "--both",
                             "--csv", str(tmp_path / "tl.csv"), "--quiet")
        assert code == 0
        assert len(calls) == 2

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

    @pytest.mark.parametrize("mode", ["--both", "--fused", "--conventional"])
    @pytest.mark.parametrize("section,changes", [
        ("cost_model", {"matrix_macs_per_cycle": 1e-300}),
        ("cost_model", {"collective_alpha": 1e308, "collective_beta": 1e308}),
        ("block", {"d_model": 10**160, "n_heads": 1}),
    ], ids=["matrix-rate-1e-300", "collective-1e308", "d-model-10**160"])
    def test_overflowing_latency_is_config_error(self, tmp_path, capsys, section, changes, mode):
        # a latency past float64's range, from a finite cost model or a huge block, exited 1
        # with an OverflowError traceback
        doc = json.loads(default_config_path("llama7b_sim").read_text())
        doc[section].update(changes)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "simulate", str(path), mode, "--csv", str(tmp_path / "tl.csv"))
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: node \d+ \(\S+\): its latency overflows float64 under this cost model\n", err)
        assert [f.name for f in tmp_path.iterdir()] == ["config.json"]  # no CSV

    def test_zero_collective_zero_speedup(self, tmp_path, capsys):
        path = small_config(
            tmp_path,
            cost_model={"collective_alpha": 0, "collective_beta": 0,
                        "vector_elems_per_cycle": 1e12, "sync_overhead": 0},
        )
        _, out, _ = run_cli(capsys, "simulate", path, "--quiet")
        assert abs(json.loads(out)["latency"]["speedup_percent"]) <= 0.5


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_shipped_config_named(self):
        with pytest.raises(ValueError, match="^no shipped config named 'nope'$"):
            default_config_path("nope")

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        assert main(["simulate", small_config(tmp_path), "--gantt"]) == 2

    def test_negative_seed_rejected(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "verify", small_config(tmp_path), "--seed", "-3")
        assert (code, out, err) == (2, "", "error: seed must be a non-negative integer, got -3\n")

    def test_retired_fold_command_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # `fold` wrote the per-site folds to a file that nothing read; it is no longer a command
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "fold", small_config(tmp_path), "w.json", "f.json")
        assert (code, out) == (2, "")
        assert "invalid choice: 'fold'" in err and "verify" in err and "simulate" in err
        assert [f.name for f in tmp_path.iterdir()] == ["config.json"]


def argparse_vars(argv):
    """`vars` of what the shared parser makes of `argv`, or None where it exits (help or a usage error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


FLAGS = list(dict.fromkeys(flag for _, options in cli._COMMANDS.values() for flag in options))
VALUES = ["3", "007", "1_0", "out.csv", "x", "", "-3", "-1_0", "-"]
# Both commands, abbreviations of every flag, the other spellings argparse takes
# (--seed=3, --), help, the empty string and stray positionals.
OTHER_TOKENS = ["verify", "simulate", "cfg.json", "", "-3", "--seed=3", "--csv=out.csv", "--", "-h", "--help",
                *(flag[:k] for flag in FLAGS for k in range(3, len(flag)))]
# A piece of argv: a flag, a flag and a value, or one of the other tokens, each a third
# of the time, so that argv spelled in full, and argv one token away from it, come up often.
ARGV_PIECE = st.one_of(st.sampled_from(FLAGS).map(lambda flag: [flag]),
                       st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)).map(list),
                       st.sampled_from(OTHER_TOKENS).map(lambda token: [token]))


class TestSpelledInFull:
    """`cli._parse_in_full` gives argparse's Namespace for argv spelled in full, and None for anything else."""

    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from([[], ["simulate", "cfg.json"], ["verify", "cfg.json"]]),
           st.lists(ARGV_PIECE, max_size=5))
    def test_agrees_with_argparse(self, head, pieces):
        argv = head + [token for piece in pieces for token in piece]
        parsed = cli._parse_in_full(argv)
        assert parsed is None or vars(parsed) == argparse_vars(argv), argv

    @pytest.mark.parametrize("argv", [
        ["simulate", "cfg.json"],
        ["simulate", "cfg.json", "--fused", "--seed", "3", "--quiet", "--csv", "out.csv"],
        ["simulate", "--conventional", "--csv", "", "cfg.json"],
        ["simulate", "--seed", "007", "cfg.json", "--both"],
        ["verify", "cfg.json", "--quiet", "--seed", "1_0"],
        ["verify", ""],
    ], ids=" ".join)
    def test_full_forms_are_argparse_namespaces(self, argv):
        parsed = cli._parse_in_full(argv)
        assert parsed is not None and vars(parsed) == argparse_vars(argv)
        assert parsed.seed is None or type(parsed.seed) is int

    @pytest.mark.parametrize("argv", [
        [], ["cfg.json"], ["simulate"], ["fold", "cfg.json"],
        ["simulate", "cfg.json", "--fu", "--qu"],
        ["simulate", "cfg.json", "--seed=42"],
        ["simulate", "--", "cfg.json"],
        ["simulate", "cfg.json", "-h"],
        ["simulate", "cfg.json", "--seed", "-3"],
        ["simulate", "cfg.json", "--seed", "-1_0"],
        ["simulate", "cfg.json", "--csv", "-out.csv"],
        ["simulate", "cfg.json", "--csv"],
        ["simulate", "cfg.json", "--seed", "x"],
        ["simulate", "-cfg.json"],
        ["simulate", "cfg.json", "--quiet", "--quiet"],
        ["simulate", "cfg.json", "--fused", "--fused"],
        ["simulate", "cfg.json", "--fused", "--both"],
        ["simulate", "cfg.json", "--seed", "3", "--seed", "4"],
        ["simulate", "cfg.json", "other.json"],
        ["verify", "cfg.json", "--fused"],
    ], ids=" ".join)
    def test_other_forms_are_left_to_argparse(self, argv):
        assert cli._parse_in_full(argv) is None


class TestUnwritableOutput:
    """An output path that cannot be written is a usage error: named on stderr, no report."""

    @pytest.mark.parametrize("command", [
        ["simulate", "--both", "--csv"], ["simulate", "--fused", "--csv"],
    ], ids=" ".join)
    def test_missing_directory_exits_2(self, tmp_path, capsys, command):
        cfg_path = small_config(tmp_path)
        missing = tmp_path / "missing"
        argv = [command[0], cfg_path, *command[1:], str(missing / "tl.csv")]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "cannot write" in err
        assert not missing.exists()

class TestRepeatedCalls:
    """`main` may be called again and again in one process: the parser is
    built on the first call and shared, and nothing else carries over."""

    def test_each_report_matches_a_fresh_process(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the same width in both
        cfg_path = small_config(tmp_path, block={"variant": "standard-gelu"})
        csv = tmp_path / "tl.csv"
        # each call changes a mode, seed or csv key from the one before
        calls = [
            (["simulate", cfg_path, "--fused", "--seed", "3", "--csv", str(csv)], [csv]),
            (["simulate", cfg_path], []),
            (["simulate"], []),
            (["verify", cfg_path, "--quiet"], []),
        ]
        codes = []
        for argv, written in calls:
            code, out, err = run_cli(capsys, *argv)
            files = [f.read_bytes() for f in written]
            proc = run_python("-m", "normfusion.cli", *argv)
            assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
            assert files == [f.read_bytes() for f in written], argv
            codes.append(code)
        assert codes == [0, 0, 2, 0]

    def test_call_spelled_in_full_builds_no_parser(self, tmp_path, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        path = small_config(tmp_path)
        for mode in ("--both", "--fused", "--conventional"):
            assert run_cli(capsys, "simulate", path, mode, "--seed", "3", "--quiet")[0] == 0
        assert run_cli(capsys, "verify", path, "--quiet")[0] == 0
        assert built == []

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
    ], ids=" ".join)
    def test_report_is_one_canonical_line(self, tmp_path, capsys, command):
        cfg_path = small_config(tmp_path)
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
