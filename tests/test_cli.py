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
    convex_combine,
    interleave,
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

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("breakpoints", [[5, 3], [2, 2]])
    def test_empty_or_reversed_span_is_a_file_error(self, capsys, tmp_path,
                                                     breakpoints, normalize):
        bad = tmp_path / "span.json"
        bad.write_text(json.dumps({"breakpoints": breakpoints, "angles_deg": [0]}))
        code, out, err = run_cli(capsys, "params", bad, *(["--normalize"] if normalize else []))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


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

    def test_empty_out_path_is_a_usage_error(self, capsys, cross_pair):
        # an empty --out names no file; it fails to open, not silently skips
        f0, f90 = cross_pair
        code, out, err = run_cli(capsys, "combine", f0, f90, "--alpha", "0.3", "--out", "")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

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
        assert verdict["tolerance"] == 1e-12 + interleaving._edge_rounding_bound(16)
        assert verdict["passed"] and verdict["value"] <= 1e-12

    def test_verdict_failure_sets_exit_one(self, capsys, cross_pair, monkeypatch):
        # a built laminate that lost its first piece is off its row by far
        # more than the verdict's tolerance
        def dropping(t1, t2, alpha, n):
            t = interleave(t1, t2, alpha, n)
            return StepLaminate.from_pieces(zip(t.breakpoints[2:], t.angles[1:]))

        monkeypatch.setattr(cli, "interleave", dropping)
        f0, f90 = cross_pair
        code, out, _ = run_cli(capsys, "gsequence", f0, f90, "--alpha", "0.3", "--n", "3,5")
        assert code == 1
        assert "verdict interleave_residual: FAIL" in out

    @pytest.mark.parametrize("n", [65536, 2**20])
    def test_large_n_passes_on_valid_input(self, capsys, cross_pair, n):
        # the built cell edges round, one way within a binade, so the gap
        # grows like n u, past --tolerance alone; the verdict adds the
        # edge-rounding bound at the built n
        f0, f90 = cross_pair
        code, out, _ = run_cli(capsys, "gsequence", f0, f90,
                               "--alpha", "0.3", "--n", n, "--json")
        assert code == 0
        verdict, = json.loads(out)["verdicts"]
        assert verdict["value"] > 1e-12
        assert verdict["tolerance"] == 1e-12 + interleaving._edge_rounding_bound(n)
        assert verdict["passed"]

    def test_smallest_n_above_the_cell_limit_is_a_numeric_error(self, capsys, cross_pair):
        # the rows are closed form at any n, but the verdict builds the
        # laminate of the smallest n, which interleave refuses up front
        f0, f90 = cross_pair
        code, out, err = run_cli(capsys, "gsequence", f0, f90,
                                 "--alpha", "0.3", "--n", "1099511627776")
        assert code == 3
        assert out == ""
        assert err == (f"error: n = 1099511627776 is above {interleaving.MAX_CELLS}, "
                       "the most cells interleave builds\n")

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


PINNED_TEXT = {
    "params": ["params", "zero.json"],
    "combine": ["combine", "zero.json", "ninety.json", "--alpha", "0.25"],
    "gsequence": ["gsequence", "zero.json", "ninety.json", "--alpha", "0.5", "--n", "8,4"],
    "oscillate": ["oscillate", "--x=-1/2", "--alpha", "0.5", "--count", "2"],
}
PINNED_OUTPUT = {
    "params": """\
operation: params
  file: zero.json
  tolerance: 1e-12
  normalize: False
  ply_count: 1
  parameters:
    xiA: [1, 1, 0, 0]
    xiB: [0, 0, 0, 0]
    xiD: [1, 1, 0, 0]
verdict parameter_bounds: PASS (value=1.000000e+00, tolerance=1.000000e+00)
""",
    "combine": """\
operation: combine
  file1: zero.json
  file2: ninety.json
  alpha: 0.25
  out: None
  tolerance: 1e-12
  normalize: False
  ply_count: 4
  parameters:
    xiA: [0.5, 1, 3.06161699787e-17, -6.12323399574e-17]
    xiB: [1.38777878078e-16, -2.77555756156e-17, -1.01972330509e-32, 2.03944661017e-32]
    xiD: [0.5, 1, 3.06161699787e-17, -6.12323399574e-17]
  expected:
    xiA: [0.5, 1, 3.06161699787e-17, -6.12323399574e-17]
    xiB: [0, 0, 0, 0]
    xiD: [0.5, 1, 3.06161699787e-17, -6.12323399574e-17]
  residuals: [0, 0, 0, 0, 1.38777878078e-16, 2.77555756156e-17, 1.01972330509e-32, \
2.03944661017e-32, 1.11022302463e-16, 0, 6.16297582204e-33, 1.23259516441e-32]
  max_residual: 1.38777878078e-16
verdict combination_residual: PASS (value=1.387779e-16, tolerance=1.000000e-12)
""",
    "gsequence": """\
operation: gsequence
  file1: zero.json
  file2: ninety.json
  alpha: 0.5
  n: [8, 4]
  swap_limit: False
  tolerance: 1e-12
  normalize: False
  rows:
    n=8, residual_a=0, residual_b=0.125, residual_d=0, residual_max=0.125
    n=4, residual_a=0, residual_b=0.25, residual_d=0, residual_max=0.25
  built:
    n: 4
    pieces: 8
verdict interleave_residual: PASS (value=0.000000e+00, tolerance=1.005995e-12)
""",
    "oscillate": """\
operation: oscillate
  x: -1/2
  alpha: 0.5
  count: 2
  cap: 10000000
  y: 1/4
  below: [[1, 1/4], [5, 1/4]]
  above: [[3, 3/4], [7, 3/4]]
  undefined_at: [2, 4]
  angle1: 0
  angle2: 1.57079632679
  distinct_values: True
""",
}


@pytest.mark.parametrize("command", sorted(PINNED_TEXT))
def test_text_output_is_pinned(capsys, cross_pair, monkeypatch, command):
    monkeypatch.chdir(cross_pair[0].parent)
    code, out, err = run_cli(capsys, *PINNED_TEXT[command])
    assert (code, err) == (0, "")
    assert out == PINNED_OUTPUT[command]


# every option given a value other than its default
ALL_OPTIONS = {
    "params": ["params", "zero.json", "--normalize", "--tolerance", "1e-9"],
    "combine": ["combine", "zero.json", "ninety.json", "--alpha", "0.3", "--out", "mix.json",
                "--normalize", "--tolerance", "1e-9"],
    "gsequence": ["gsequence", "zero.json", "ninety.json", "--alpha", "0.5", "--n", "8,4",
                  "--swap-limit", "--normalize", "--tolerance", "1e-9"],
    "oscillate": ["oscillate", "--x=-1/2", "--alpha", "0.5", "--count", "2", "--cap", "100"],
}


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("command", sorted(ALL_OPTIONS))
def test_inputs_are_the_parsed_options(capsys, cross_pair, monkeypatch, command, as_json):
    monkeypatch.chdir(cross_pair[0].parent)
    argv = ALL_OPTIONS[command]
    parsed = vars(cli.build_parser().parse_args(argv))
    for key in ("command", "func", "json"):
        del parsed[key]
    # as JSON holds them: the --n tuple a list, a rational --x its 'p/q'
    expected = json.loads(json.dumps(parsed, default=str))
    code, out, err = run_cli(capsys, *argv, *(["--json"] if as_json else []))
    assert (code, err) == (0, "")
    if as_json:
        assert json.loads(out)["inputs"] == expected
    else:
        lines = out.splitlines()[1:1 + len(expected)]
        assert lines == [f"  {key}: {value}" for key, value in expected.items()]
