import json
import math
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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

from _helpers import laminate_to_dict, max_param_diff, ply_laminate, random_laminate


# finite floats, the extremes and subnormals drawn often
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1.0, max_value=1.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, sys.float_info.min,
                     1e308, -1e308, sys.float_info.max, -sys.float_info.max]),
)


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
        assert all(type(v) is float for v in t.breakpoints + t.angles)

    def test_two_ply_degrees_to_radians(self, tmp_path):
        path = write_json(tmp_path / "t.json",
                          {"breakpoints": [-1, 0, 1], "angles_deg": [0, 90]})
        t = load_laminate(path)
        assert t.angles == (0.0, pytest.approx(math.pi / 2, abs=1e-15))

    def test_one_angle_object_per_value_and_signed_zeros(self, tmp_path):
        # equal angles share one radian float; 0.0 == -0.0, yet each zero
        # keeps its sign, and the file saves back to the same bytes
        text = ('{\n  "breakpoints": [\n    -1.0,\n    -0.5,\n    0.0,\n    0.25,\n'
                '    0.5,\n    1.0\n  ],\n  "angles_deg": [\n    0.0,\n    -0.0,\n'
                '    45.0,\n    45.0,\n    -0.0\n  ],\n  "name": "z"\n}\n')
        path = tmp_path / "t.json"
        path.write_text(text, encoding="utf-8")
        t = load_laminate(path)
        assert [math.copysign(1.0, a) for a in t.angles[:2] + t.angles[4:]] == [1.0, -1.0, -1.0]
        assert t.angles[2] is t.angles[3]
        assert t.angles[2] == math.radians(45.0)
        saved = tmp_path / "saved.json"
        save_laminate(t, saved, name="z")
        assert saved.read_text(encoding="utf-8") == text

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

    @pytest.mark.parametrize("key", ["breakpoints", "angles_deg", "name"])
    def test_repeated_field_rejected(self, tmp_path, key):
        # a valid laminate but for the repeat; json.load alone keeps the last value
        fields = {"breakpoints": "[-1, 0, 1]", "angles_deg": "[0, 90]", "name": '"a"'}
        text = ", ".join(f'"{k}": {v}' for k, v in [*fields.items(), (key, fields[key])])
        path = tmp_path / "t.json"
        path.write_text("{" + text + "}", encoding="utf-8")
        with pytest.raises(ParseError, match=f"^repeated field '{key}'$"):
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
        with pytest.raises(ParseError) as info:
            load_laminate(path)
        i = len(data[key]) - 1
        assert str(info.value) == f"'{key}[{i}]' is not a finite number: {10 ** 400}"

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

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_normalize_fails_only_on_the_data(self, data):
        # any finite coordinates, in any order, with repeats and extremes:
        # a laminate or a data error (exit 2 in the CLI), never anything else
        raw = data.draw(st.lists(FINITE, max_size=8))
        order = data.draw(st.sampled_from(["drawn", "sorted", "reversed", "repeat"]))
        if order == "sorted":
            raw.sort()
        elif order == "reversed":
            raw.sort(reverse=True)
        elif order == "repeat" and raw:
            raw.sort()
            i = data.draw(st.integers(0, len(raw) - 1))
            raw.insert(i, raw[i])
        doc = {"breakpoints": raw, "angles_deg": [0.0] * max(1, len(raw) - 1)}
        try:
            t = laminate_from_dict(doc, normalize=True)
        except (ParseError, InvariantViolation) as exc:
            assert re.match(r"'breakpoints' must be|need at least two coordinates"
                            r"|coordinates not strictly increasing|breakpoints\[\d+\] = ", str(exc))
        else:
            assert all(map(float.__lt__, raw, raw[1:]))
            assert t.breakpoints[0] == -1.0 and t.breakpoints[-1] == 1.0

    @settings(max_examples=400, deadline=None)
    @given(FINITE, FINITE, st.floats(-1.0, 1.0), st.integers(-3, 3))
    def test_normalize_names_the_file_index_of_a_collapse(self, a, b, t, steps):
        # strictly increasing finite coordinates with neighbours closer
        # than 2^-53 of the span (a point within half a span of 0 and one
        # a few float steps from it): a laminate, or a data error that
        # names the file's indices and values of the two neighbours
        lo, hi = sorted((a, b))
        assume(lo < hi)
        z = z2 = min(max(t * (hi * 0.5 - lo * 0.5), lo), hi)
        for _ in range(abs(steps)):
            z2 = math.nextafter(z2, math.copysign(math.inf, steps))
        raw = sorted({lo, z, min(max(z2, lo), hi), hi})
        exact = [Fraction(v) for v in raw]
        limit = (exact[-1] - exact[0]) / 2 ** 53
        assume(any(q - p < limit for p, q in zip(exact, exact[1:])))
        doc = {"breakpoints": raw, "angles_deg": [0.0] * (len(raw) - 1)}
        try:
            laminate = laminate_from_dict(doc, normalize=True)
        except InvariantViolation as exc:
            assert str(exc) in {f"breakpoints[{i - 1}] = {raw[i - 1]} and"
                                f" breakpoints[{i}] = {raw[i]} map to the same point of [-1, 1]"
                                for i in range(1, len(raw))}
        else:
            assert laminate.ply_count == len(raw) - 1

    @settings(max_examples=400, deadline=None)
    @given(st.lists(FINITE, min_size=2, max_size=2, unique=True),
           st.floats(1e-12, 1.0 - 1e-12))
    def test_normalize_keeps_neighbours_apart_beyond_the_limit(self, ends, t):
        # neighbours at least 2^-50 of the span apart always load; z2 is
        # that far above z, or a few float steps more
        lo, hi = sorted(ends)
        limit = (Fraction(hi) - Fraction(lo)) / 2 ** 50
        z = min(max(lo * (1.0 - t) + hi * t, lo), hi)
        z2 = min(z + (hi * 2.0 ** -50 - lo * 2.0 ** -50), hi)
        while z2 < hi and Fraction(z2) - Fraction(z) < limit:
            z2 = math.nextafter(z2, math.inf)
        raw = [lo, z, z2, hi]
        exact = list(map(Fraction, raw))
        assume(all(q - p >= limit for p, q in zip(exact, exact[1:])))
        laminate = laminate_from_dict({"breakpoints": raw, "angles_deg": [0.0, 45.0, 0.0]},
                                      normalize=True)
        assert laminate.ply_count == 3

    def test_not_an_object(self):
        with pytest.raises(ParseError):
            laminate_from_dict([1, 2, 3])

    def test_deeply_nested_json(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        with pytest.raises(ParseError, match="nested too deeply"):
            load_laminate(path)

    # Each bad entry sits among plain floats, so the all-float fast path
    # must fall through to the loop that names it.
    @pytest.mark.parametrize("key", ["breakpoints", "angles_deg"])
    @pytest.mark.parametrize("text, shown", [
        ("1e400", "inf"),
        ("true", "True"),
        (str(10 ** 400), repr(10 ** 400)),
        ('"x"', "'x'"),
    ])
    def test_bad_entry_among_floats(self, tmp_path, key, text, shown):
        lists = {"breakpoints": ["-1.0", "-0.5", "0.0", "0.5", "1.0"],
                 "angles_deg": ["0.0", "45.0", "-45.0", "90.0"]}
        lists[key][2] = text
        path = tmp_path / "t.json"
        path.write_text("{" + ", ".join(f'"{k}": [{", ".join(v)}]' for k, v in lists.items())
                        + "}", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_laminate(path)
        assert str(info.value) == f"'{key}[2]' is not a finite number: {shown}"


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


class TestSave:
    OVERFLOWING = StepLaminate((-1.0, 0.0, 1.0), (0.5, -1.7e308))  # degrees overflow

    def test_overflowing_angle_creates_no_file(self, tmp_path):
        path = tmp_path / "t.json"
        with pytest.raises(ValueError, match="overflows in degrees"):
            save_laminate(self.OVERFLOWING, path)
        assert not path.exists()

    def test_overflowing_angle_keeps_existing_file(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_bytes(b"previous contents")
        with pytest.raises(ValueError, match="overflows in degrees"):
            save_laminate(self.OVERFLOWING, path)
        assert path.read_bytes() == b"previous contents"

    @settings(max_examples=60, deadline=None)
    @given(
        plies=st.one_of(st.sampled_from([1, 8191, 8192, 8193]),
                        st.integers(min_value=1, max_value=20000)),
        seed=st.integers(min_value=0, max_value=2 ** 32),
        name=st.one_of(st.none(), st.text(),
                       st.sampled_from(['say "hi"', "back\\slash", "tab\tnul\x00esc\x1b",
                                        "ångström 角度 \U0001f600"])),
    )
    def test_bytes_equal_json_dump(self, tmp_path_factory, plies, seed, name):
        rng = random.Random(seed)
        t = ply_laminate(rng, plies)
        # full-resolution angles, signed zeros and exponent-form degrees too
        angles = [rng.choice((a, 0.0, -0.0, rng.uniform(-7.0, 7.0), 1e300, -5e-324))
                  for a in t.angles]
        t = StepLaminate(t.breakpoints, tuple(angles))
        path = tmp_path_factory.getbasetemp() / "oracle.json"
        save_laminate(t, path, name=name)
        want = json.dumps(laminate_to_dict(t, name), indent=2, allow_nan=False) + "\n"
        assert path.read_bytes() == want.encode("utf-8")

    def test_peak_memory_is_one_block(self, tmp_path):
        """The writer streams: a 2e5-ply file is about 7 MB of text, and
        json.dump of the whole dict peaks at about 8 MB; one block of 8192
        values stays under 1 MB."""
        t = ply_laminate(random.Random(7), 200_000)
        path = tmp_path / "big.json"
        tracemalloc.start()
        try:
            save_laminate(t, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, f"save_laminate peaked at {peak / 1e6:.2f} MB"
