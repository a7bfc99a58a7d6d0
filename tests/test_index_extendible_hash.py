"""Unit + property tests for the extendible hash index."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import ExtendibleHashIndex
from repro.index.extendible_hash import _Bucket, _key_hash


def test_insert_and_get():
    idx = ExtendibleHashIndex()
    idx.insert(1, "a")
    idx.insert(1, "b")
    assert idx.get(1) == {"a", "b"}
    assert idx.get(2) == set()


def test_duplicate_insert_rejected():
    idx = ExtendibleHashIndex()
    assert idx.insert(1, "a")
    assert not idx.insert(1, "a")
    assert len(idx) == 1


def test_remove():
    idx = ExtendibleHashIndex()
    idx.insert(1, "a")
    assert idx.remove(1, "a")
    assert not idx.remove(1, "a")
    assert idx.get(1) == set()
    assert 1 not in idx


def test_remove_key():
    idx = ExtendibleHashIndex()
    for value in "abc":
        idx.insert(5, value)
    assert idx.remove_key(5) == 3
    assert len(idx) == 0
    assert idx.remove_key(5) == 0


def test_contains():
    idx = ExtendibleHashIndex()
    idx.insert(3, "x")
    assert idx.contains(3, "x")
    assert not idx.contains(3, "y")
    assert 3 in idx
    assert 4 not in idx


def test_directory_doubles_under_load():
    idx = ExtendibleHashIndex(bucket_capacity=2)
    for key in range(100):
        idx.insert(key, key)
    assert idx.global_depth > 1
    for key in range(100):
        assert idx.get(key) == {key}


def test_sequential_packed_oid_like_keys():
    # Packed OIDs differ only in low bits patterns; the hash mix must
    # spread them rather than pile them into one bucket chain.
    idx = ExtendibleHashIndex(bucket_capacity=4)
    keys = [(1 << 48) | (page << 16) | slot
            for page in range(20) for slot in range(20)]
    for key in keys:
        idx.insert(key, "v")
    assert len(idx) == len(keys)
    for key in keys:
        assert idx.contains(key, "v")


def test_keys_and_items_cover_everything():
    idx = ExtendibleHashIndex(bucket_capacity=2)
    expected = set()
    for key in range(30):
        for value in range(2):
            idx.insert(key, value)
            expected.add((key, value))
    assert set(idx.items()) == expected
    assert sorted(idx.keys()) == sorted(range(30))


def test_clear():
    idx = ExtendibleHashIndex(bucket_capacity=2)
    for key in range(50):
        idx.insert(key, key)
    idx.clear()
    assert len(idx) == 0
    idx.insert(1, "back")
    assert idx.get(1) == {"back"}


def test_non_integer_keys():
    idx = ExtendibleHashIndex()
    idx.insert("alpha", 1)
    idx.insert(("tuple", 2), 2)
    assert idx.get("alpha") == {1}
    assert idx.get(("tuple", 2)) == {2}


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["insert", "remove"]),
              st.integers(min_value=0, max_value=40),
              st.integers(min_value=0, max_value=5))))
def test_behaves_like_dict_of_sets(ops):
    """Model-based: the index agrees with a plain dict-of-sets."""
    idx = ExtendibleHashIndex(bucket_capacity=2)
    model = {}
    for op, key, value in ops:
        if op == "insert":
            expected = value not in model.get(key, set())
            assert idx.insert(key, value) == expected
            model.setdefault(key, set()).add(value)
        else:
            expected = value in model.get(key, set())
            assert idx.remove(key, value) == expected
            if expected:
                model[key].discard(value)
                if not model[key]:
                    del model[key]
    assert len(idx) == sum(len(v) for v in model.values())
    for key, values in model.items():
        assert idx.get(key) == values
    assert set(idx.items()) == {(k, v) for k, vs in model.items()
                                for v in vs}


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=8),
       st.sets(st.integers(min_value=0, max_value=10_000), max_size=300))
def test_any_bucket_capacity_holds_any_keys(capacity, keys):
    idx = ExtendibleHashIndex(bucket_capacity=capacity)
    for key in keys:
        idx.insert(key, key * 2)
    assert sorted(idx.keys()) == sorted(keys)
    for key in keys:
        assert idx.get(key) == {key * 2}


class ScanningSplit(ExtendibleHashIndex):
    """The reference: rewire a split bucket's slots by scanning the whole
    directory, as ``_split`` did before it strode through it."""

    def _split(self, bucket):
        if bucket.local_depth == self._global_depth:
            self._double_directory()
        new_depth = bucket.local_depth + 1
        low, high = _Bucket(new_depth), _Bucket(new_depth)
        distinguishing_bit = 1 << (new_depth - 1)
        for key, values in bucket.entries.items():
            target = high if _key_hash(key) & distinguishing_bit else low
            target.entries[key] = values
        for index, entry in enumerate(self._directory):
            if entry is bucket:
                self._directory[index] = \
                    high if index & distinguishing_bit else low


def directory_contents(idx):
    """Per slot: which bucket it names (by the first slot naming it), at
    what local depth, holding which entries in which order."""
    first_slot = {}
    for slot, bucket in enumerate(idx._directory):
        first_slot.setdefault(id(bucket), slot)
    return [(first_slot[id(bucket)], bucket.local_depth,
             list(bucket.entries.items())) for bucket in idx._directory]


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=8),
       st.lists(st.tuples(st.sampled_from(["insert", "insert", "remove"]),
                          st.integers(min_value=0, max_value=2_000),
                          st.integers(min_value=0, max_value=2)),
                max_size=400))
def test_strided_split_rewires_exactly_what_a_directory_scan_would(
        capacity, ops):
    strided = ExtendibleHashIndex(bucket_capacity=capacity)
    scanning = ScanningSplit(bucket_capacity=capacity)
    for op, key, value in ops:
        for idx in strided, scanning:
            getattr(idx, op)(key, value)
    assert strided.global_depth == scanning.global_depth
    assert directory_contents(strided) == directory_contents(scanning)


def test_strided_split_matches_the_scan_on_packed_oid_keys():
    strided = ExtendibleHashIndex(bucket_capacity=8)
    scanning = ScanningSplit(bucket_capacity=8)
    for partition in (1, 2):
        for page in range(5):
            for slot in range(6):
                key = (partition << 40) | (page << 16) | slot
                strided.insert(key, slot)
                scanning.insert(key, slot)
    # Ten keys that differ only above bit 16 agree on the mix's low 16
    # bits, so 60 entries make a 2**17-slot directory — where a scan per
    # split hurt.
    assert strided.global_depth == scanning.global_depth == 17
    assert directory_contents(strided) == directory_contents(scanning)
