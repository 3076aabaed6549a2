"""The package's record types: frozen fields, value or identity equality,
positional and keyword construction, and views cached on first read."""

import inspect

import numpy as np
import pytest

from entrate import (
    Alphabet,
    BootstrapConfig,
    BootstrapResult,
    CompositeAlphabet,
    EntropyEstimate,
    EstimatorSpec,
    ExperimentPlan,
    ExperimentReport,
    GroupComparison,
    NovelLengths,
    Parsing,
    ProbabilityVector,
    ReparamPoint,
    SecondOrderParams,
    Sequence,
    TransitionCounts,
    TransitionMatrix,
)
from entrate.simulate import CellResult

ALPHABET = Alphabet(("a", "b"))
SPEC = EstimatorSpec("eigen", 2, True)
ESTIMATE = EntropyEstimate(0.5, "direct_eigen", 2, ("note",))
PLAN = ExperimentPlan(TransitionMatrix(np.eye(2)), (10, 20), 2, (SPEC,), 1)
CELL = CellResult(10, SPEC, 2, 0, 0.1, 0.2, 0.3, 0.05)

# Each record type with the positional arguments of one instance.
VALUE_RECORDS = [
    (CompositeAlphabet, (ALPHABET, 2)),
    (BootstrapConfig, (0.5, 10, 3)),
    (EntropyEstimate, (0.5, "direct_eigen", 2, ("note",))),
    (EstimatorSpec, ("eigen", 2, True)),
    (SecondOrderParams, (0.1, 0.2, 0.3, 0.4)),
    (ReparamPoint, (0.4, 0.3, 0.1, -0.2)),
    (GroupComparison, ((1.0, 2.0), (3.0, 5.0), -2.0, 2, (1.5, 4.0))),
]
IDENTITY_RECORDS = [
    (Alphabet, (("a", "b"),)),
    (Sequence, (np.array([0, 1, 0]), ALPHABET)),
    (TransitionCounts, (2, np.array([1, 2]), np.array([1, 1]))),
    (TransitionMatrix, (np.eye(2),)),
    (ProbabilityVector, (np.array([0.5, 0.5]),)),
    (BootstrapResult, (np.zeros(2), 0.0, 0.5, ESTIMATE, 0, ())),
    (NovelLengths, (np.array([0, 1, 2]), np.array([False, False, True]))),
    (Parsing, (((0, 1), (1, 2)), True)),
    (ExperimentPlan, (TransitionMatrix(np.eye(2)), (10, 20), 2, (SPEC,), 1)),
    (CellResult, (10, SPEC, 2, 0, 0.1, 0.2, 0.3, 0.05)),
    (ExperimentReport, (PLAN, (CELL,))),
]
RECORDS = VALUE_RECORDS + IDENTITY_RECORDS


def ids(records):
    return [cls.__name__ for cls, _ in records]


def fields(cls):
    return list(inspect.signature(cls).parameters)


@pytest.mark.parametrize("cls, args", RECORDS, ids=ids(RECORDS))
class TestEveryRecord:
    def test_fields_can_be_neither_assigned_nor_deleted(self, cls, args):
        record = cls(*args)
        for name in fields(cls):
            value = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is value
        with pytest.raises(AttributeError):
            record.no_such_field = 1

    def test_positional_and_keyword_construction_agree(self, cls, args):
        names = fields(cls)
        assert len(names) == len(args)
        by_position = cls(*args)
        by_keyword = cls(**dict(zip(names, args)))
        assert repr(by_position) == repr(by_keyword)
        assert repr(by_position).startswith(f"{cls.__name__}({names[0]}=")


@pytest.mark.parametrize("cls, args", VALUE_RECORDS, ids=ids(VALUE_RECORDS))
def test_value_records_compare_and_hash_by_their_fields(cls, args):
    a, b = cls(*args), cls(*args)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != args and a != object()


@pytest.mark.parametrize("cls, args", IDENTITY_RECORDS, ids=ids(IDENTITY_RECORDS))
def test_other_records_compare_by_identity(cls, args):
    a, b = cls(*args), cls(*args)
    assert a == a and a != b
    assert len({a, b}) == 2


def test_value_records_differ_in_any_field():
    assert EstimatorSpec("eigen", 2) != EstimatorSpec("eigen", 3)
    assert EstimatorSpec("eigen", 2) != EstimatorSpec("eigen", 2, True)
    assert EstimatorSpec("eigen") == EstimatorSpec("eigen", 1)
    assert EntropyEstimate(0.5, "swlz") != EntropyEstimate(0.5, "swlz", None, ("note",))


def test_estimator_spec_is_a_dict_key():
    table = {EstimatorSpec("limit", 2): "a", EstimatorSpec("swlz"): "b"}
    assert table[EstimatorSpec("limit", order=2)] == "a"
    assert table[EstimatorSpec(method="swlz")] == "b"
    assert EstimatorSpec("limit", 3) not in table


def test_composite_alphabets_over_one_base_and_order_are_equal():
    base = Alphabet(("x", "y", "z"))
    assert CompositeAlphabet(base, 2) == CompositeAlphabet(base=base, order=2)
    assert CompositeAlphabet(base, 2) != CompositeAlphabet(base, 3)
    # An equal-looking base is another alphabet: equality is by identity.
    assert CompositeAlphabet(base, 2) != CompositeAlphabet(Alphabet(("x", "y", "z")), 2)


def test_repr_names_every_field():
    assert repr(SPEC) == "EstimatorSpec(method='eigen', order=2, paper_zero_mode=True)"
    assert repr(ALPHABET) == "Alphabet(symbols=('a', 'b'))"


def test_views_are_cached_on_first_read():
    counts = TransitionCounts(3, np.array([1, 2, 5]), np.array([2, 1, 4]))
    for name in ("row_runs", "row_totals_arr", "dense"):
        assert name not in vars(counts)
        assert getattr(counts, name) is getattr(counts, name)
        assert name in vars(counts)
    alphabet = Alphabet(("a", "b"))
    assert "_lookup" not in vars(alphabet)
    assert alphabet._lookup is alphabet._lookup == {"a": 0, "b": 1}
