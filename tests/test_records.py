"""Value semantics of the exported record types and the CLI's output records."""

import math

import pytest

from splitroots import (
    DepressedCubic,
    DepressedQuartic,
    OracleResult,
    RealPolynomial,
    RootSet,
    SplitAnsatz,
)
from splitroots.cli import OutputRecord, RootRecord

# (record, its field names in declaration order, its exact repr)
CASES = [
    (
        RealPolynomial((1, 2.5, 1.0, 0.0)),
        ("coefficients",),
        "RealPolynomial(coefficients=(1.0, 2.5, 1.0))",
    ),
    (DepressedCubic(1.0, -2.0), ("a", "b", "shift"), "DepressedCubic(a=1.0, b=-2.0, shift=0.0)"),
    (
        DepressedQuartic(a=1.0, b=2.0, c=3.0, shift=0.5),
        ("a", "b", "c", "shift"),
        "DepressedQuartic(a=1.0, b=2.0, c=3.0, shift=0.5)",
    ),
    (
        RootSet([1, 2j], [0, 1e-17], ["a", "b"]),
        ("roots", "residuals", "branch_tags"),
        "RootSet(roots=((1+0j), 2j), residuals=(0.0, 1e-17), branch_tags=('a', 'b'))",
    ),
    (SplitAnsatz(0.5 + 1j), ("omega",), "SplitAnsatz(omega=(0.5+1j))"),
    (
        OracleResult((1 + 0j, -1 + 0j), 5, True, (0.0, 0.0)),
        ("roots", "iterations_used", "converged", "cluster_radii"),
        "OracleResult(roots=((1+0j), (-1+0j)), iterations_used=5, converged=True, "
        "cluster_radii=(0.0, 0.0))",
    ),
]
IDS = [type(record).__name__ for record, _, _ in CASES]


@pytest.mark.parametrize("record, fields, text", CASES, ids=IDS)
class TestFrozenRecord:
    def test_repr(self, record, fields, text):
        assert repr(record) == text

    def test_vars_lists_fields_in_declaration_order(self, record, fields, text):
        assert tuple(vars(record)) == fields
        assert type(record).__match_args__ == fields

    def test_equal_copies_are_equal_and_hash_alike(self, record, fields, text):
        copy = type(record)(**vars(record))
        assert copy is not record
        assert copy == record
        assert not copy != record
        assert hash(copy) == hash(record)
        assert len({copy, record}) == 1

    def test_unequal_to_tuple_and_to_another_type(self, record, fields, text):
        values = tuple(vars(record).values())
        assert record != values
        assert values != record
        twin = type("Twin", (type(record),), {})(*values)
        assert tuple(vars(twin).values()) == values
        assert record != twin
        assert twin != record

    def test_fields_cannot_be_set_or_deleted(self, record, fields, text):
        for name in fields:
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, before)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is before


def test_unequal_across_record_types_with_the_same_values():
    assert OracleResult(1.0, 2.0, 3.0, 4.0) != DepressedQuartic(1.0, 2.0, 3.0, 4.0)


def test_pattern_matching_by_position():
    match DepressedQuartic(1.0, 2.0, 3.0):
        case DepressedQuartic(a, b, c, shift):
            assert (a, b, c, shift) == (1.0, 2.0, 3.0, 0.0)
        case _:
            pytest.fail("DepressedQuartic did not match its own class pattern")


class TestDefaultsAndValidation:
    def test_shift_defaults_to_zero(self):
        assert DepressedCubic(1.0, 2.0).shift == 0.0
        assert DepressedQuartic(1.0, 2.0, 3.0).shift == 0.0


class TestOutputRecords:
    def test_roots_default_to_a_fresh_list(self):
        first, second = OutputRecord("z", "m"), OutputRecord("z", "m")
        assert first.roots == [] and first.diagnostics is None
        first.roots.append(RootRecord(1.0, 0.0, 0.0, "t"))
        assert second.roots == []

    def test_repr_and_equality(self):
        record = OutputRecord("z^2 - 1", "m", [RootRecord(1.0, 0.0, 0.0, "t")], {"k": 1})
        assert repr(record) == (
            "OutputRecord(polynomial='z^2 - 1', method='m', roots=[RootRecord(re=1.0, "
            "im=0.0, residual=0.0, branch_tag='t')], diagnostics={'k': 1})"
        )
        assert OutputRecord.from_dict(record.to_dict()) == record
        assert record != OutputRecord("z^2 - 1", "m")

    def test_to_dict_gives_each_root_part_back_bit_for_bit(self):
        parts = [(-0.0, 1.5), (2.0, -0.0), (5e-324, -3e300), (math.nan, -math.inf)]
        record = OutputRecord("z", "m", [RootRecord(re, im, 0.5, "t") for re, im in parts])
        assert repr([(r["re"], r["im"]) for r in record.to_dict()["roots"]]) == repr(parts)

    def test_fields_stay_assignable(self):
        record = OutputRecord("z", "m")
        record.method = "oracle"
        root = RootRecord(1.0, 0.0, 0.0, "t")
        root.residual = 2.0
        assert (record.method, root.residual) == ("oracle", 2.0)

    @pytest.mark.parametrize(
        "record",
        [OutputRecord("z", "m"), RootRecord(1.0, 0.0, 0.0, "t")],
        ids=["OutputRecord", "RootRecord"],
    )
    def test_unhashable(self, record):
        with pytest.raises(TypeError):
            hash(record)
