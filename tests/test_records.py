"""The per-trace record types stay immutable values.

TensorDescriptor, KernelRecord, TensorLifetime, InactivePeriod,
MigrationInstruction and ProgramKernel are built tens of thousands of times
per sweep. Whatever they are built as, each reads its fields by name
(`index` included, which a tuple type would otherwise shadow), refuses
assignment, hashes equal when equal, and keeps its defaults. That a
synthesized trace survives serialization unchanged is
test_trace.test_synthesize_round_trips.
"""

import pytest

from tensortier.eviction import Destination
from tensortier.instrument import MigrationInstruction, Op, ProgramKernel
from tensortier.trace import KernelRecord, TensorDescriptor, TensorKind
from tensortier.vitality import InactivePeriod, TensorLifetime

_RECORDS = [
    (TensorDescriptor, {"id": 3, "size_bytes": 4096,
                        "kind": TensorKind.GLOBAL}),
    (KernelRecord, {"index": 2, "name": "fwd_2", "duration_us": 300,
                    "inputs": frozenset({1, 2}), "outputs": frozenset({3})}),
    (TensorLifetime, {"tensor_id": 3, "birth_kernel": 1, "death_kernel": 4,
                      "is_global": False}),
    (InactivePeriod, {"tensor_id": 3, "start_us": 10, "end_us": 50,
                      "wraps_iteration": True}),
    (MigrationInstruction, {"op": Op.PRE_EVICT, "tensor_id": 3,
                            "size_bytes": 4096, "issue_us": 7,
                            "dest": Destination.SSD}),
    (ProgramKernel, {"index": 2, "name": "fwd_2", "duration_us": 300}),
]


@pytest.mark.parametrize("cls,fields", _RECORDS,
                         ids=[cls.__name__ for cls, _ in _RECORDS])
def test_record_contract(cls, fields):
    record = cls(**fields)
    for name, value in fields.items():
        assert getattr(record, name) == value, name
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    twin = cls(*fields.values())
    assert twin == record
    assert hash(twin) == hash(record)
    assert len({record, twin}) == 1
    first = next(iter(fields))
    other = cls(**{**fields, first: 99})
    assert other != record


def test_record_defaults():
    assert TensorDescriptor(1, 8).kind is TensorKind.UNSPECIFIED
    assert InactivePeriod(1, 0, 5).wraps_iteration is False
    assert MigrationInstruction(Op.ALLOC, 1, 8, 0).dest is None
