"""Operation records and the shared tie-break order.

All queues and the workload generator agree on one total order over live
entries: (priority, key).  Keys are unique among live entries, so that order
is total, and no queue stores a further field to break ties between keys.

``PRIORITY_INF`` is the sentinel standing in for +infinity (it strictly
exceeds every priority the workload generator emits) and ``PRIORITY_DELETE``
is the minimal sentinel used by the DecreaseKey-then-ExtractMin delete
recipe.  ``NO_LEAF`` is a stored op's leaf when it has none (``leaf_id`` None).
"""

from __future__ import annotations

from typing import NamedTuple

PRIORITY_INF = (1 << 63) - 1
PRIORITY_DELETE = -(1 << 63)
NO_LEAF = 0xFFFFFFFF

INSERT = 1
DELETE = 2
EXTRACTMIN = 3
DECREASE = 4
OP_NAMES = {INSERT: "insert", DELETE: "delete", EXTRACTMIN: "extractmin", DECREASE: "decrease"}


class Op(NamedTuple):
    kind: int
    key: int
    priority: int
    leaf_id: int | None

