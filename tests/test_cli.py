import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lamconvex import (
    StepLaminate,
    convergence_table,
    convex_combine,
    interleave,
    lamination_parameters,
    load_laminate,
    save_laminate,
    verify_combination,
)
from lamconvex import cli, interleaving
from lamconvex.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def cross_pair(tmp_path):
    f0 = tmp_path / "zero.json"
    f90 = tmp_path / "ninety.json"
    save_laminate(StepLaminate((-1.0, 1.0), (0.0,)), f0, name="0deg")
    save_laminate(StepLaminate((-1.0, 1.0), (math.pi / 2,)), f90, name="90deg")
    return f0, f90


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParams:
    def test_single_ply(self, capsys, cross_pair):
        f0, _ = cross_pair
        code, out, _ = run_cli(capsys, "params", f0)
        assert code == 0
        assert "xiA: [1, 1, 0, 0]" in out
        assert "PASS" in out

    def test_json_values(self, capsys, cross_pair):
        f0, _ = cross_pair
        code, out, _ = run_cli(capsys, "params", f0, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["parameters"]["xiA"] == [1.0, 1.0, 0.0, 0.0]
        assert doc["passed"] is True

    def test_json_is_byte_deterministic(self, capsys, cross_pair):
        f0, _ = cross_pair
        _, first, _ = run_cli(capsys, "params", f0, "--json")
        _, second, _ = run_cli(capsys, "params", f0, "--json")
        assert first == second

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "params", tmp_path / "absent.json")
        assert code == 2
        assert "error" in err

    def test_bad_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"breakpoints": [-1, 1], "angles_deg": [0], "extra": 1}')
        code, _, err = run_cli(capsys, "params", bad)
        assert code == 2
        assert "extra" in err

    @pytest.mark.parametrize("key", ["breakpoints", "angles_deg"])
    def test_integer_too_large_for_a_float(self, capsys, tmp_path, key):
        data = {"breakpoints": [-1, 1], "angles_deg": [0]}
        data[key][-1] = 10 ** 400
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "params", bad)
        assert code == 2
        assert f"'{key}[" in err

    def test_not_utf8_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        code, _, err = run_cli(capsys, "params", bad)
        assert code == 2
        assert err.startswith("error:") and "UTF-8" in err

    def test_deeply_nested_file(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run_cli(capsys, "params", deep)
        assert code == 2
        assert err.startswith("error:") and "nested too deeply" in err
        assert out == ""

    def test_normalize_flag(self, capsys, tmp_path):
        raw = tmp_path / "mm.json"
        raw.write_text(json.dumps({"breakpoints": [0.0, 2.5, 10.0], "angles_deg": [0, 45]}))
        code, _, _ = run_cli(capsys, "params", raw, "--normalize")
        assert code == 0


class TestCombine:
    def test_cross_pair_passes(self, capsys, cross_pair, tmp_path):
        f0, f90 = cross_pair
        out_path = tmp_path / "mix.json"
        code, out, _ = run_cli(capsys, "combine", f0, f90,
                               "--alpha", "0.5", "--out", out_path)
        assert code == 0
        assert "PASS" in out
        assert out_path.exists()
        doc = json.loads(out_path.read_text())
        assert doc["breakpoints"][0] == -1.0 and doc["breakpoints"][-1] == 1.0

    def test_verdict_failure_sets_exit_one(self, capsys, tmp_path):
        t1 = StepLaminate((-1.0, -0.2, 0.4, 1.0),
                          (math.radians(10), math.radians(37), math.radians(81)))
        t2 = StepLaminate((-1.0, 0.3, 1.0), (math.radians(-23), math.radians(64)))
        residual = verify_combination(t1, t2, 0.3, convex_combine(t1, t2, 0.3)).max_residual
        assert residual > 0.0  # tolerance 0 below is therefore unreachable
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        save_laminate(t1, f1)
        save_laminate(t2, f2)
        code, out, _ = run_cli(capsys, "combine", f1, f2,
                               "--alpha", "0.3", "--tolerance", "0.0")
        assert code == 1
        assert "FAIL" in out

    def test_near_coincident_breakpoints(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        save_laminate(StepLaminate((-1.0, 0.5, 1.0), (0.0, math.pi / 2)), f1)
        save_laminate(StepLaminate((-1.0, 0.5 + 1.5e-12, 1.0), (math.pi / 4, math.pi / 4)), f2)
        code, out, _ = run_cli(capsys, "combine", f1, f2, "--alpha", "1e-4")
        assert code == 0
        assert "PASS" in out

    def test_breakpoints_two_trillionths_apart(self, capsys, tmp_path):
        # the (0, 2e-12) interval splits into pieces narrower than 1e-12,
        # and all of them stay in the combination
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        save_laminate(StepLaminate((-1.0, 0.0, 1.0), (0.0, math.pi / 2)), f1)
        save_laminate(StepLaminate((-1.0, 2e-12, 1.0), (math.pi / 4, -math.pi / 4)), f2)
        code, out, _ = run_cli(capsys, "combine", f1, f2, "--alpha", "0.25", "--json")
        assert code == 0
        assert json.loads(out)["payload"]["max_residual"] <= 1e-15

    def test_alpha_lost_against_one(self, capsys, cross_pair, tmp_path):
        # 1 - 1e-17 rounds to 1: the combination is the first input
        f0, f90 = cross_pair
        out_path = tmp_path / "mix.json"
        code, out, _ = run_cli(capsys, "combine", f0, f90, "--alpha", "1e-17",
                               "--out", out_path)
        assert code == 0
        assert "PASS" in out
        assert load_laminate(out_path).breakpoints == (-1.0, 1.0)

    def test_alpha_domain_error(self, capsys, cross_pair):
        f0, f90 = cross_pair
        code, _, err = run_cli(capsys, "combine", f0, f90, "--alpha", "1.5")
        assert code == 3
        assert "alpha" in err


def test_default_tolerance_is_the_library_default(capsys):
    # one policy: the CLI's --tolerance default is verify_combination's
    default = inspect.signature(verify_combination).parameters["tolerance"].default
    args = cli.build_parser().parse_args(["combine", "a.json", "b.json", "--alpha", "0.5"])
    assert args.tolerance is default
    with pytest.raises(SystemExit):
        main(["combine", "--help"])
    assert f"(default {default:g})" in capsys.readouterr().out


@pytest.mark.parametrize("output", [(), ("--json",)])
@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1e-9"])
@pytest.mark.parametrize("command", ["params", "combine", "gsequence"])
def test_tolerance_must_be_finite_and_non_negative(capsys, cross_pair, command,
                                                   tolerance, output):
    f0, f90 = cross_pair
    files = {"params": [f0], "combine": [f0, f90, "--alpha", "0.5"],
             "gsequence": [f0, f90, "--alpha", "0.5", "--n", "4"]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *map(str, files), f"--tolerance={tolerance}", *output])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "error: argument --tolerance: must be finite and >= 0" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("output", [(), ("--json",)])
@pytest.mark.parametrize("command,option,value", [
    ("oscillate", "--count", "0"),
    ("oscillate", "--count", "-3"),
    ("oscillate", "--cap", "0"),
    ("gsequence", "--n", "8,0"),
    ("gsequence", "--n", "-4"),
])
def test_counts_must_be_positive(capsys, cross_pair, command, option, value, output):
    f0, f90 = cross_pair
    argv = {"oscillate": ["--x=-1/2", "--alpha", "0.5"],
            "gsequence": [f0, f90, "--alpha", "0.5", "--n", "4"]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *map(str, argv), f"{option}={value}", *output])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert f"error: argument {option}: must be an integer >= 1" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


class TestGsequence:
    def test_table_rows(self, capsys, cross_pair):
        f0, f90 = cross_pair
        code, out, _ = run_cli(capsys, "gsequence", f0, f90,
                               "--alpha", "0.5", "--n", "16,32,64", "--json")
        assert code == 0
        rows = json.loads(out)["payload"]["rows"]
        assert [r["n"] for r in rows] == [16, 32, 64]
        assert rows[0]["residual_max"] == pytest.approx(1 / 16, abs=1e-14)
        assert rows[-1]["residual_a"] <= 1e-12

    def test_swap_limit_flag(self, capsys, cross_pair):
        f0, f90 = cross_pair
        code, out, _ = run_cli(capsys, "gsequence", f0, f90,
                               "--alpha", "0.25", "--n", "32", "--swap-limit", "--json")
        assert code == 0
        # with the swapped orientation the z^0 block sits off the limit by
        # |2*0.25 - 1| * ... > 0 instead of matching it
        assert json.loads(out)["payload"]["rows"][0]["residual_a"] > 0.1

    def test_verdict_on_the_cross_pair(self, capsys, cross_pair):
        f0, f90 = cross_pair
        code, out, _ = run_cli(capsys, "gsequence", f0, f90,
                               "--alpha", "0.5", "--n", "64,16,1099511627776", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["built"] == {"n": 16, "pieces": 32}
        verdict, = doc["verdicts"]
        assert verdict["name"] == "interleave_residual"
        assert verdict["tolerance"] == 1e-12
        assert verdict["passed"] and verdict["value"] <= 1e-12

    def test_verdict_failure_sets_exit_one(self, capsys, tmp_path):
        t1 = StepLaminate((-1.0, -0.2, 0.4, 1.0),
                          (math.radians(10), math.radians(37), math.radians(81)))
        t2 = StepLaminate((-1.0, 0.3, 1.0), (math.radians(-23), math.radians(64)))
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        save_laminate(t1, f1)
        save_laminate(t2, f2)
        t1, t2 = load_laminate(f1), load_laminate(f2)
        built = lamination_parameters(interleave(t1, t2, 0.3, 3))
        closed = convergence_table(t1, t2, 0.3, [3])[0].params
        assert built != closed  # tolerance 0 below is therefore unreachable
        code, out, _ = run_cli(capsys, "gsequence", f1, f2, "--alpha", "0.3",
                               "--n", "3,5", "--tolerance", "0")
        assert code == 1
        assert "verdict interleave_residual: FAIL" in out

    def test_builds_one_laminate(self, capsys, cross_pair, monkeypatch):
        calls = []
        original = interleaving.interleave

        def counting(t1, t2, alpha, n):
            calls.append(n)
            return original(t1, t2, alpha, n)

        for module in (interleaving, cli):
            if getattr(module, "interleave", None) is original:
                monkeypatch.setattr(module, "interleave", counting)
        f0, f90 = cross_pair
        code, _, _ = run_cli(capsys, "gsequence", f0, f90,
                             "--alpha", "0.5", "--n", "32,8,1024,4096")
        assert code == 0
        assert calls == [8]


class TestOscillate:
    def test_rational_witnesses(self, capsys):
        code, out, _ = run_cli(capsys, "oscillate", "--x=-1/2",
                               "--alpha", "0.5", "--count", "2", "--json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["below"] == [[1, "1/4"], [5, "1/4"]]
        assert payload["above"] == [[3, "3/4"], [7, "3/4"]]
        assert payload["undefined_at"] == [2, 4]
        assert payload["distinct_values"] is True

    def test_json_is_byte_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "oscillate", "--x=-1/2", "--alpha", "0.5", "--json")
        _, second, _ = run_cli(capsys, "oscillate", "--x=-1/2", "--alpha", "0.5", "--json")
        assert first == second

    def test_impossible_region_exits_numeric(self, capsys):
        # y = 1/2: fractional parts only hit {0, 1/2}, so the lower region
        # (0, 0.5) is provably empty
        code, _, err = run_cli(capsys, "oscillate", "--x=0/1", "--alpha", "0.5")
        assert code == 3
        assert "no n" in err

    @pytest.mark.parametrize("option", [["--tolerance", "1e-9"], ["--normalize"]])
    def test_rejects_options_it_would_ignore(self, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main(["oscillate", "--x=-1/2", "--alpha", "0.5", *option])
        assert exc.value.code == 2

    def test_float_point(self, capsys):
        code, out, _ = run_cli(capsys, "oscillate", "--x", "0.4142135623730951",
                               "--alpha", "0.5", "--count", "3", "--json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert len(payload["below"]) == 3
        assert payload["undefined_at"] == []


def test_module_entry_point(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "lamconvex", "oscillate", "--x=-1/2",
         "--alpha", "0.5", "--count", "1"],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0
    assert "below" in proc.stdout
