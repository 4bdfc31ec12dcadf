import pytest
from hypothesis import given, settings, strategies as st

from pqlab import OracleQueue
from pqlab.errors import DuplicateKeyError, EmptyQueueError


def test_singleton():
    q = OracleQueue()
    q.insert(5, 10)
    assert q.extract_min() == (5, 10)


def test_duplicate_insert_rejected():
    q = OracleQueue()
    q.insert(5, 10)
    with pytest.raises(DuplicateKeyError):
        q.insert(5, 3)


def test_key_breaks_priority_tie():
    q = OracleQueue()
    q.insert(2, 7)
    q.insert(1, 7)
    assert q.extract_min() == (1, 7)


def test_min_priority_wins():
    q = OracleQueue()
    q.insert(9, 1)
    q.insert(3, 5)
    assert q.extract_min() == (9, 1)


def test_decrease_takes_min_of_old_and_new():
    q = OracleQueue()
    q.insert(4, 10)
    q.decrease_key(4, 3)
    assert q.extract_min() == (4, 3)
    q.insert(4, 10)
    q.decrease_key(4, 20)  # higher value: priority stays 10
    assert q.extract_min() == (4, 10)


def test_decrease_absent_rejected():
    q = OracleQueue()
    with pytest.raises(KeyError):
        q.decrease_key(1, 1)


def test_delete_then_empty():
    q = OracleQueue()
    q.insert(7, 5)
    q.delete_key(7)
    with pytest.raises(EmptyQueueError):
        q.extract_min()


def test_delete_leaves_others_in_order():
    q = OracleQueue()
    q.insert(1, 30)
    q.insert(2, 20)
    q.insert(3, 10)
    q.delete_key(2)
    assert q.extract_min() == (3, 10)
    assert q.extract_min() == (1, 30)


def test_tolerant_delete_noop_when_absent():
    q = OracleQueue()
    q.insert(1, 1)
    q.delete(99)
    assert len(q) == 1
    with pytest.raises(KeyError):
        q.delete_key(99)


def test_snapshot_roundtrip():
    q = OracleQueue()
    for k, p in [(1, 5), (2, 3), (3, 9)]:
        q.insert(k, p)
    q.decrease_key(3, 1)
    img = q.memory_image()
    q2 = OracleQueue()
    q2.load_memory_image(img)
    seq = []
    while True:
        try:
            seq.append(q2.extract_min())
        except EmptyQueueError:
            break
    assert seq == [(3, 1), (2, 3), (1, 5)]


class BruteQueue:
    """Independent reference: a plain dict scanned with min()."""

    def __init__(self):
        self.live = {}
        self.clock = 0

    def insert(self, k, p):
        assert k not in self.live
        self.clock += 1
        self.live[k] = (p, self.clock)

    def decrease_key(self, k, p):
        old, ts = self.live[k]
        self.live[k] = (min(old, p), ts)

    def delete(self, k):
        self.live.pop(k, None)

    def extract_min(self):
        k = min(self.live, key=lambda k: (self.live[k][0], k, self.live[k][1]))
        p, _ = self.live.pop(k)
        return (k, p)


ops_strategy = st.lists(
    st.tuples(st.sampled_from("idxe"), st.integers(0, 9), st.integers(0, 20)),
    max_size=80,
)


@settings(max_examples=120)
@given(ops_strategy)
def test_oracle_matches_brute_force(script):
    q = OracleQueue()
    ref = BruteQueue()
    for kind, k, p in script:
        if kind == "i":
            if not q.is_live(k):
                q.insert(k, p)
                ref.insert(k, p)
        elif kind == "d":
            q.delete(k)
            ref.delete(k)
        elif kind == "x":
            if q.is_live(k):
                q.decrease_key(k, p)
                ref.decrease_key(k, p)
        else:
            if len(q):
                assert q.extract_min() == ref.extract_min()
    assert sorted(q.live_items()) == sorted((k, p) for k, (p, _) in ref.live.items())
