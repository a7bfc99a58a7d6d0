"""Extendible hashing.

Brahmā — the storage manager the paper's experiments ran on — "supports
extendible hash indices which were used to implement the TRT and the ERT"
(§5).  This module implements that index structure from scratch: a
directory of bucket pointers indexed by the low ``global_depth`` bits of
the key hash, buckets that split when they overflow, and directory
doubling when a splitting bucket is already at global depth.

The index is a *multimap*: one key maps to a set of values, which is the
shape both reference tables need (one child object → many parents /
many TRT tuples).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterator, List, Set, Tuple


class _Bucket:
    __slots__ = ("local_depth", "entries")

    def __init__(self, local_depth: int):
        self.local_depth = local_depth
        # key -> set of values; bucket occupancy counts distinct keys,
        # mirroring a disk bucket of fixed key capacity.
        self.entries: Dict[Hashable, Set[Any]] = {}


def _key_hash(key: Hashable) -> int:
    """Stable integer hash for directory addressing.

    Integers hash to themselves (bit-mixed so that sequential OIDs spread
    across buckets); other hashables fall back to ``hash``.
    """
    if isinstance(key, int):
        value = key
    else:
        value = hash(key)
    # 64-bit Fibonacci mix to spread structured keys (packed OIDs are
    # highly regular in their low bits).
    value &= (1 << 64) - 1
    return (value * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)


class ExtendibleHashIndex:
    """An in-memory extendible-hash multimap.

    >>> idx = ExtendibleHashIndex(bucket_capacity=2)
    >>> idx.insert(1, "a"); idx.insert(1, "b"); idx.insert(2, "c")
    >>> sorted(idx.get(1))
    ['a', 'b']
    """

    def __init__(self, bucket_capacity: int = 8):
        if bucket_capacity < 1:
            raise ValueError("bucket capacity must be >= 1")
        self.bucket_capacity = bucket_capacity
        self._global_depth = 1
        bucket0, bucket1 = _Bucket(1), _Bucket(1)
        self._directory: List[_Bucket] = [bucket0, bucket1]
        # Each bucket by its keys' low ``local_depth`` bits — its first
        # directory slot, so sorted they give the directory walk's order.
        self._buckets: Dict[int, _Bucket] = {0: bucket0, 1: bucket1}
        self._size = 0  # number of (key, value) pairs

    # -- public API ------------------------------------------------------------

    @property
    def global_depth(self) -> int:
        return self._global_depth

    def __len__(self) -> int:
        return self._size

    def insert(self, key: Hashable, value: Any) -> bool:
        """Add ``value`` under ``key``; returns False if already present."""
        bucket = self._bucket_for(key)
        values = bucket.entries.get(key)
        if values is not None:
            if value in values:
                return False
            values.add(value)
            self._size += 1
            return True
        # New key: may overflow the bucket.
        while len(bucket.entries) >= self.bucket_capacity:
            self._split(bucket)
            bucket = self._bucket_for(key)
        bucket.entries[key] = {value}
        self._size += 1
        return True

    def remove(self, key: Hashable, value: Any) -> bool:
        """Remove one ``(key, value)`` pair; returns False if absent."""
        bucket = self._bucket_for(key)
        values = bucket.entries.get(key)
        if values is None or value not in values:
            return False
        values.discard(value)
        if not values:
            del bucket.entries[key]
        self._size -= 1
        return True

    def remove_key(self, key: Hashable) -> int:
        """Drop every value under ``key``; returns how many were removed."""
        bucket = self._bucket_for(key)
        values = bucket.entries.pop(key, None)
        if values is None:
            return 0
        self._size -= len(values)
        return len(values)

    def get(self, key: Hashable) -> Set[Any]:
        """The set of values under ``key`` (a copy; empty set if absent)."""
        bucket = self._bucket_for(key)
        return set(bucket.entries.get(key, ()))

    def contains(self, key: Hashable, value: Any) -> bool:
        bucket = self._bucket_for(key)
        return value in bucket.entries.get(key, ())

    def __contains__(self, key: Hashable) -> bool:
        return key in self._bucket_for(key).entries

    def keys(self) -> Iterator[Hashable]:
        """Every distinct key (each bucket visited once, not per pointer)."""
        for bucket in self._unique_buckets():
            yield from bucket.entries.keys()

    def items(self) -> Iterator[Tuple[Hashable, Any]]:
        for bucket in self._unique_buckets():
            for key, values in bucket.entries.items():
                for value in values:
                    yield key, value

    def clear(self) -> None:
        self.__init__(bucket_capacity=self.bucket_capacity)

    # -- internals ------------------------------------------------------------

    def _dir_index(self, key: Hashable) -> int:
        return _key_hash(key) & ((1 << self._global_depth) - 1)

    def _bucket_for(self, key: Hashable) -> _Bucket:
        return self._directory[self._dir_index(key)]

    def _unique_buckets(self) -> List[_Bucket]:
        buckets = self._buckets
        return [buckets[pattern] for pattern in sorted(buckets)]

    def _split(self, bucket: _Bucket) -> None:
        if bucket.local_depth == self._global_depth:
            self._double_directory()
        new_depth = bucket.local_depth + 1
        low = _Bucket(new_depth)
        high = _Bucket(new_depth)
        distinguishing_bit = 1 << (new_depth - 1)
        for key, values in bucket.entries.items():
            target = high if _key_hash(key) & distinguishing_bit else low
            target.entries[key] = values
        # The slots naming a bucket of local depth d are exactly those
        # whose low d bits are its keys' — a stride of 2**d through the
        # directory (a bucket only splits when full, so it has a key).
        directory = self._directory
        first = _key_hash(next(iter(bucket.entries))) \
            & (distinguishing_bit - 1)
        for index in range(first, len(directory), distinguishing_bit):
            directory[index] = high if index & distinguishing_bit else low
        self._buckets[first] = low
        self._buckets[first | distinguishing_bit] = high

    def _double_directory(self) -> None:
        self._directory = self._directory + list(self._directory)
        self._global_depth += 1
