import json
import math
import random

import pytest

from lamconvex import (
    InvariantViolation,
    ParseError,
    StepLaminate,
    convex_combine,
    laminate_from_dict,
    lamination_parameters,
    load_laminate,
    save_laminate,
)

from _helpers import max_param_diff, random_laminate


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestLoad:
    def test_single_ply(self, tmp_path):
        path = write_json(tmp_path / "t.json",
                          {"breakpoints": [-1, 1], "angles_deg": [0]})
        t = load_laminate(path)
        assert t.breakpoints == (-1.0, 1.0)
        assert t.angles == (0.0,)

    def test_two_ply_degrees_to_radians(self, tmp_path):
        path = write_json(tmp_path / "t.json",
                          {"breakpoints": [-1, 0, 1], "angles_deg": [0, 90]})
        t = load_laminate(path)
        assert t.angles == (0.0, pytest.approx(math.pi / 2, abs=1e-15))

    def test_length_mismatch(self, tmp_path):
        path = write_json(tmp_path / "t.json",
                          {"breakpoints": [-1, 1], "angles_deg": [0, 90]})
        with pytest.raises(InvariantViolation):
            load_laminate(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = write_json(tmp_path / "t.json",
                          {"breakpoints": [-1, 1], "angles_deg": [0], "angles_rad": [0]})
        with pytest.raises(ParseError, match="angles_rad"):
            load_laminate(path)

    def test_missing_field(self, tmp_path):
        path = write_json(tmp_path / "t.json", {"breakpoints": [-1, 1]})
        with pytest.raises(ParseError, match="angles_deg"):
            load_laminate(path)

    def test_non_numeric_entry(self, tmp_path):
        path = write_json(tmp_path / "t.json",
                          {"breakpoints": [-1, "x"], "angles_deg": [0]})
        with pytest.raises(ParseError, match=r"breakpoints\[1\]"):
            load_laminate(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"breakpoints": [-1, NaN], "angles_deg": [0]}', encoding="utf-8")
        with pytest.raises(ParseError):
            load_laminate(path)

    @pytest.mark.parametrize("key", ["breakpoints", "angles_deg"])
    def test_integer_too_large_for_a_float(self, tmp_path, key):
        data = {"breakpoints": [-1, 1], "angles_deg": [0]}
        data[key][-1] = 10 ** 400
        path = write_json(tmp_path / "t.json", data)
        with pytest.raises(ParseError, match="is not a finite number") as info:
            load_laminate(path)
        assert info.value.field == key

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            load_laminate(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ParseError, match="not UTF-8 text"):
            load_laminate(path)

    def test_normalization_is_opt_in(self, tmp_path):
        path = write_json(tmp_path / "t.json",
                          {"breakpoints": [0.0, 1.0, 4.0], "angles_deg": [0, 45]})
        with pytest.raises(InvariantViolation):
            load_laminate(path)
        t = load_laminate(path, normalize=True)
        assert t.breakpoints == (-1.0, -0.5, 1.0)

    def test_not_an_object(self):
        with pytest.raises(ParseError):
            laminate_from_dict([1, 2, 3])


class TestRoundTrip:
    def test_random_laminates(self, tmp_path):
        rng = random.Random(123)
        for k in range(20):
            t = random_laminate(rng, max_plies=8)
            path = tmp_path / f"t{k}.json"
            save_laminate(t, path, name=f"random-{k}")
            back = load_laminate(path)
            assert back.breakpoints == t.breakpoints
            for got, want in zip(back.angles, t.angles):
                assert abs(got - want) <= 1e-15 * max(1.0, abs(want))

    def test_combined_laminate_parameters_survive(self, tmp_path):
        rng = random.Random(321)
        t1, t2 = random_laminate(rng), random_laminate(rng)
        combined = convex_combine(t1, t2, 0.37)
        path = tmp_path / "c.json"
        save_laminate(combined, path)
        back = load_laminate(path)
        assert max_param_diff(lamination_parameters(combined),
                              lamination_parameters(back)) <= 1e-14

    def test_name_survives(self, tmp_path):
        t = StepLaminate((-1.0, 1.0), (0.1,))
        path = tmp_path / "named.json"
        save_laminate(t, path, name="demo")
        assert json.loads(path.read_text())["name"] == "demo"

    def test_save_to_unwritable_path(self, tmp_path):
        t = StepLaminate((-1.0, 1.0), (0.1,))
        with pytest.raises(OSError):
            save_laminate(t, tmp_path)  # a directory, not a file
