"""JSON laminate files.

Schema: {"breakpoints": [-1.0, ..., 1.0], "angles_deg": [...], "name": "..."}
with `name` optional, no other fields allowed and none repeated. Angles
are stored in degrees (ply-table convention) and converted to radians on
load; full float precision round-trips through the shortest-repr
serialization.

Files are written 8192 values at a time, so the writer never holds more
than one block of text. The bytes are fixed: the keys in schema order,
one per line at two spaces; list items one per line at four spaces; each
float as `float.__repr__` writes it, the name as `json.dumps` does; a
final newline. That is `json.dump(data, fh, indent=2)` plus a newline.
"""

import json
import math
import os
from itertools import islice
from operator import lt

from .errors import InvariantViolation, ParseError
from .step import StepLaminate

_REQUIRED = ("breakpoints", "angles_deg")
_ALLOWED = frozenset(_REQUIRED) | {"name"}
_ITEM_SEP = ",\n    "  # json.dump's separator between list items at indent=2


def _number_list(data: dict, key: str) -> list[float]:
    value = data[key]
    if not isinstance(value, list) or not value:
        raise ParseError(f"'{key}' must be a non-empty list of numbers", field=key)
    if set(map(type, value)) == {float} and all(map(math.isfinite, value)):
        return value  # plain finite floats; the loop below names a bad entry
    out = []
    for i, v in enumerate(value):
        try:
            finite = (not isinstance(v, bool) and isinstance(v, (int, float))
                      and math.isfinite(v))
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise ParseError(f"'{key}[{i}]' is not a finite number: {v!r}", field=key)
        out.append(float(v))
    return out


def laminate_from_dict(data: object, normalize: bool = False) -> StepLaminate:
    """Build a laminate from parsed JSON. Unknown fields are rejected so
    unit or spelling mistakes cannot pass silently."""
    if not isinstance(data, dict):
        raise ParseError(f"laminate file must contain a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - _ALLOWED)
    if unknown:
        raise ParseError(f"unknown field(s): {', '.join(unknown)}", field=unknown[0])
    for key in _REQUIRED:
        if key not in data:
            raise ParseError(f"missing required field '{key}'", field=key)
    if "name" in data and not isinstance(data["name"], str):
        raise ParseError("'name' must be a string", field="name")
    breakpoints = _number_list(data, "breakpoints")
    angles_deg = _number_list(data, "angles_deg")
    if normalize:
        breakpoints = _normalized(breakpoints)
    return StepLaminate(tuple(breakpoints), _radians(angles_deg))


def _normalized(raw: list[float]) -> list[float]:
    """Strictly increasing file coordinates mapped affinely onto [-1, 1]:
    the ends exactly to -1.0 and 1.0, each interior z to
    (z - lo)/(hi - lo) * 2 - 1, of the halved coordinates where hi - lo
    overflows. Each point is within 6.5u of its exact place (u = 2^-53)
    and the map is monotone, so neighbours never cross; but two closer
    than 2^-50 of the span may round to one float, and the error then
    names their file indices and values.

    Raises:
        InvariantViolation: fewer than two coordinates, coordinates not
            strictly increasing, or neighbours that map to one float.
    """
    if len(raw) < 2:
        raise InvariantViolation("need at least two coordinates", field="breakpoints")
    if not all(map(lt, raw, islice(raw, 1, None))):
        i = list(map(lt, raw, islice(raw, 1, None))).index(False)
        raise InvariantViolation(
            f"coordinates not strictly increasing at index {i + 1}",
            field="breakpoints", index=i + 1)
    lo, hi = raw[0], raw[-1]
    scale = 1.0 if hi - lo < math.inf else 0.5
    lo *= scale
    span = hi * scale - lo
    mapped = [-1.0, *[(z * scale - lo) / span * 2.0 - 1.0 for z in raw[1:-1]], 1.0]
    if not all(map(lt, mapped, islice(mapped, 1, None))):
        i = list(map(lt, mapped, islice(mapped, 1, None))).index(False)
        raise InvariantViolation(
            f"breakpoints[{i}] = {raw[i]} and breakpoints[{i + 1}] = {raw[i + 1]}"
            " map to the same point of [-1, 1]", field="breakpoints", index=i + 1)
    return mapped


# a zero angle in radians by its sign, math.copysign(1.0, zero)
_ZEROS = {1.0: 0.0, -1.0: -0.0}


def _radians(angles_deg: list[float]) -> tuple[float, ...]:
    """The angles in radians, one float object per distinct value, so a
    ply table of four angles holds four objects whatever its length. A
    zero keeps its sign: 0.0 == -0.0, so zeros are looked up by sign."""
    memo = {d: math.radians(d) for d in set(angles_deg) if d}
    return tuple([memo[d] if d else _ZEROS[math.copysign(1.0, d)] for d in angles_deg])


def load_laminate(path: str | os.PathLike, normalize: bool = False) -> StepLaminate:
    """Load and validate a laminate file.

    Raises:
        ParseError: bytes that are not UTF-8, malformed or too deeply
            nested JSON, a repeated field, or schema violations.
        InvariantViolation: structurally valid file with invalid laminate data.
        OSError: unreadable path.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_constant=_reject_constant,
                             object_pairs_hook=_unique_fields)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ParseError(f"{path}: invalid JSON: nested too deeply") from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    return laminate_from_dict(data, normalize=normalize)


def _reject_constant(token: str):
    raise ParseError(f"non-finite number {token!r} not allowed in laminate files")


def _unique_fields(pairs: list) -> dict:
    """A JSON object as a dict; a repeated key raises rather than the last
    value silently winning."""
    data = dict(pairs)
    if len(data) < len(pairs):
        keys = [key for key, _ in pairs]
        key = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ParseError(f"repeated field {key!r}", field=key)
    return data


def _write_floats(fh, values, texts=None) -> None:
    """Write the items of a JSON float list, 8192 values at a time, each
    as `float.__repr__` writes it or, given `texts`, as texts[value]. A
    zero is written as itself: 0.0 == -0.0, so both would share one key."""
    for start in range(0, len(values), 8192):
        block = values[start:start + 8192]
        if start:
            fh.write(_ITEM_SEP)
        fh.write(_ITEM_SEP.join(
            map(float.__repr__, block) if texts is None
            else [texts[v] if v else repr(v) for v in block]))


def save_laminate(t: StepLaminate, path: str | os.PathLike,
                  name: str | None = None) -> None:
    """Write a laminate file; load_laminate(save_laminate(t)) reproduces
    breakpoints exactly and angles to within one degree<->radian rounding.

    Raises:
        ValueError: an angle whose value in degrees overflows; checked
            before the file is opened, so no partial file is left.
        OSError: unwritable path.
    """
    # math.degrees is monotone in |angle|, so the largest one decides.
    largest = max(map(abs, t.angles))
    if not math.isfinite(math.degrees(largest)):
        raise ValueError(f"an angle of magnitude {largest!r} rad overflows in degrees")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n  "breakpoints": [\n    ')
        _write_floats(fh, t.breakpoints)
        fh.write('\n  ],\n  "angles_deg": [\n    ')
        # one degree text per distinct nonzero angle, not one per ply;
        # math.degrees maps a zero to itself, sign included
        degrees = {a: repr(math.degrees(a)) for a in set(t.angles) if a}
        _write_floats(fh, t.angles, degrees)
        fh.write("\n  ]")
        if name is not None:
            fh.write(',\n  "name": ' + json.dumps(name))
        fh.write("\n}\n")
