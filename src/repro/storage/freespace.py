"""Free-space tracking for a partition.

Continuous allocation/deallocation of variable-length objects fragments
pages — the compaction motivation in the paper's introduction.  The map
tracks each page's free bytes and answers "which page can hold N bytes?",
optionally restricted to pages at or above a floor (used by compaction to
force relocation into *fresh* pages instead of refilling fragmented ones).
"""

from __future__ import annotations

from typing import Dict, Optional


class FreeSpaceMap:
    """Tracks free bytes per page of one partition."""

    def __init__(self) -> None:
        self._free: Dict[int, int] = {}

    def register_page(self, page_no: int, free_space: int) -> None:
        self._free[page_no] = free_space

    def forget_page(self, page_no: int) -> None:
        self._free.pop(page_no, None)

    def update(self, page_no: int, free_space: int) -> None:
        if page_no not in self._free:
            raise KeyError(f"page {page_no} not registered")
        self._free[page_no] = free_space

    def free_space(self, page_no: int) -> int:
        return self._free[page_no]

    def find_page(self, nbytes: int, min_page: int = 0) -> Optional[int]:
        """Lowest-numbered page >= ``min_page`` with >= ``nbytes`` free.

        First-fit by page number keeps allocation deterministic, which the
        reproducibility of the experiments relies on.
        """
        best: Optional[int] = None
        for page_no, free in self._free.items():
            if page_no < min_page or free < nbytes:
                continue
            if best is None or page_no < best:
                best = page_no
        return best

    def total_free(self) -> int:
        return sum(self._free.values())

    def __len__(self) -> int:
        return len(self._free)

    def __contains__(self, page_no: int) -> bool:
        return page_no in self._free
