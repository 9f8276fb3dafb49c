"""The public records are plain immutable value classes: built by
position or keyword, equal and hashed by their fields within one class,
read-only, printable, picklable and copyable. `StepLaminate` validates
itself on every construction through its `__post_init__` hook."""

import copy
import math
import pickle
from fractions import Fraction

import pytest

import lamconvex
from lamconvex import (
    CombinationReport,
    ConvergenceRow,
    InvariantViolation,
    LamParams,
    StepLaminate,
    WitnessTable,
    convergence_table,
    convex_combine,
    lamination_parameters,
    oscillation_witness,
    verify_combination,
)
from lamconvex.step import RefinedPair, refine

T1 = StepLaminate((-1.0, 0.0, 1.0), (0.0, math.pi / 4))
T2 = StepLaminate((-1.0, 0.5, 1.0), (math.pi / 2, -math.pi / 4))

RECORDS = {
    "StepLaminate": lambda: T1,
    "RefinedPair": lambda: refine(T1, T2),
    "LamParams": lambda: lamination_parameters(T1),
    "CombinationReport": lambda: verify_combination(T1, T2, 0.3, convex_combine(T1, T2, 0.3)),
    "WitnessTable": lambda: oscillation_witness(T1, T2, 0.5, Fraction(-1, 3), count=2),
    "ConvergenceRow": lambda: convergence_table(T1, T2, 0.3, [8])[0],
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    made = RECORDS[request.param]()
    assert type(made).__name__ == request.param
    return made


def fields(record) -> dict:
    return {name: getattr(record, name) for name in type(record).__slots__}


def test_the_six_records_are_covered():
    assert {CombinationReport, ConvergenceRow, LamParams, RefinedPair, StepLaminate,
            WitnessTable} == {type(make()) for make in RECORDS.values()}


def test_fields_cannot_be_assigned_or_deleted(record):
    name = type(record).__slots__[0]
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) is value


def test_equal_fields_make_equal_records_with_equal_hashes(record):
    by_keyword = type(record)(**fields(record))
    by_position = type(record)(*fields(record).values())
    assert by_keyword == record == by_position
    assert hash(by_keyword) == hash(record) == hash(by_position)
    assert not by_keyword != record


def test_not_equal_to_a_tuple_or_another_class(record):
    values = tuple(fields(record).values())
    assert record != values and values != record

    class Other(type(record)):
        pass

    assert record != Other(*values)
    others = [make() for make in RECORDS.values()]
    assert all(record != other for other in others if type(other) is not type(record))
    with pytest.raises(TypeError):
        len(record)


def test_repr_names_every_field_and_evaluates_back(record):
    text = repr(record)
    assert text.startswith(type(record).__name__ + "(")
    assert all(f"{name}=" in text for name in type(record).__slots__)
    namespace = {"Fraction": Fraction, "RefinedPair": RefinedPair,
                 **{name: getattr(lamconvex, name) for name in lamconvex.__all__}}
    assert eval(text, namespace) == record


def test_pickle_and_copies_round_trip(record):
    copies = [pickle.loads(pickle.dumps(record, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(record), copy.deepcopy(record)]
    for other in copies:
        assert type(other) is type(record)
        assert other == record and hash(other) == hash(record)


def test_construction_checks_its_fields():
    with pytest.raises(TypeError, match="missing field 'angles'"):
        StepLaminate((-1.0, 1.0))
    with pytest.raises(TypeError, match="unexpected or repeated field 'angle'"):
        StepLaminate((-1.0, 1.0), angle=(0.0,))
    with pytest.raises(TypeError, match="unexpected or repeated field 'breakpoints'"):
        StepLaminate((-1.0, 1.0), breakpoints=(-1.0, 1.0), angles=(0.0,))
    with pytest.raises(TypeError, match="takes 3 fields, got 4"):
        LamParams((0.0,) * 4, (0.0,) * 4, (0.0,) * 4, (0.0,) * 4)


def test_witness_table_takes_both_angles():
    with pytest.raises(TypeError, match="missing field 'angle1'"):
        WitnessTable(below=(), above=(), undefined_at=())
    table = WitnessTable(below=(), above=(), undefined_at=(), angle1=None, angle2=0.25)
    assert table.distinct_values is None


class TestValidationHook:
    """Every construction of a StepLaminate runs the `__post_init__` found
    on the class, so a wrapper set there sees each one."""

    @pytest.fixture
    def calls(self, monkeypatch):
        raw = StepLaminate.__dict__["__post_init__"]
        seen = []

        def counting(self):
            seen.append(self)
            return raw(self)

        monkeypatch.setattr(StepLaminate, "__post_init__", counting)
        return seen

    def test_hook_is_defined_on_the_class(self):
        assert callable(StepLaminate.__dict__["__post_init__"])

    @pytest.mark.parametrize("make", [
        lambda: StepLaminate([-1, 0, 1], [0, 1]),
        lambda: StepLaminate(breakpoints=(-1.0, 1.0), angles=(0.0,)),
        lambda: StepLaminate.from_pieces(zip([0.0, 0.5, 1.0], [0.0, 0.0, 1.0])),
        lambda: pickle.loads(pickle.dumps(T1)),
        lambda: copy.deepcopy(T1),
    ], ids=["positional", "keyword", "from_pieces", "unpickle", "deepcopy"])
    def test_runs_once_per_construction(self, calls, make):
        made = make()
        assert calls == [made]
        assert {type(v) for v in made.breakpoints + made.angles} == {float}

    def test_unpickling_validates(self):
        bad = object.__new__(StepLaminate)  # built around the validation
        object.__setattr__(bad, "breakpoints", (-1.0, 2.0))
        object.__setattr__(bad, "angles", (0.0,))
        with pytest.raises(InvariantViolation, match="last breakpoint must be 1"):
            pickle.loads(pickle.dumps(bad))
