"""``Workload.ops`` is a read-only ``Sequence[Op]`` view of four typed columns, 21 bytes per op."""

from array import array

import pytest

from pqlab.ops import DECREASE, DELETE, EXTRACTMIN, INSERT, PRIORITY_DELETE, PRIORITY_INF, Op
from pqlab.workload import OpColumns, TreeParams, Workload, materialize

OPS = [
    Op(INSERT, 5, 3, None),
    Op(INSERT, 9, -7, 12),
    Op(DECREASE, 5, 1, None),
    Op(DELETE, 9, 0, 12),
    Op(EXTRACTMIN, 5, 1, 4),
    Op(INSERT, (1 << 64) - 1, PRIORITY_INF, 0xFFFFFFFE),
    Op(INSERT, 0, PRIORITY_DELETE, 0),
]


def test_view_equals_the_list_it_was_built_from():
    ops = Workload(None, "random", 16, 0, iter(OPS)).ops
    assert isinstance(ops, OpColumns)
    assert len(ops) == len(OPS)
    assert list(ops) == OPS
    assert ops == OPS and OPS == ops and ops == tuple(OPS)
    assert ops != OPS[:-1] and ops != OPS[::-1]
    for i in range(-len(OPS), len(OPS)):
        assert ops[i] == OPS[i]
        assert ops[i].leaf_id == OPS[i].leaf_id  # None stays None, leaf 0 stays 0
    for sl in (slice(None), slice(1, 4), slice(-3, None), slice(None, -2), slice(None, None, 2),
               slice(5, 1, -1), slice(9, 20)):
        assert isinstance(ops[sl], OpColumns)
        assert ops[sl] == OPS[sl]
        assert list(ops[sl]) == OPS[sl]
    with pytest.raises(IndexError):
        ops[len(OPS)]
    with pytest.raises(IndexError):
        ops[-len(OPS) - 1]


def test_view_is_built_once_and_compares_by_columns():
    ops = Workload(None, "random", 16, 0, OPS).ops
    again = Workload(None, "random", 16, 0, ops)
    assert again.ops is ops
    assert OpColumns(OPS) == ops
    assert OpColumns(OPS[:-1]) != ops
    assert Workload(None, "random", 16, 0, []).ops == []


def test_materialized_tree_stores_21_bytes_per_op():
    work = materialize(TreeParams(2, 6, 2, seed=5))
    ops = work.ops
    columns = (ops.kind, ops.key, ops.priority, ops.leaf)
    assert all(isinstance(col, array) and len(col) == len(ops) for col in columns)
    assert sum(col.itemsize * len(col) for col in columns) == 21 * len(ops)
    assert not hasattr(ops, "__dict__")
    assert work.counts() == {"insert": sum(op.kind == INSERT for op in ops),
                             "delete": sum(op.kind == DELETE for op in ops),
                             "extractmin": sum(op.kind == EXTRACTMIN for op in ops),
                             "decrease": 0}
