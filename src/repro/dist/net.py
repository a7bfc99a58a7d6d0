"""Latency-modeled interconnect between simulated nodes.

One :class:`Interconnect` instance connects every node of a
:class:`~repro.dist.cluster.DistCluster` over the shared DES kernel.
Each directed link gets its own seeded RNG, so message delays (and the
reordering they induce — two messages on the same link may overtake each
other within the jitter window) are deterministic per ``(seed, src,
dst)`` and independent of unrelated traffic.

Fault controls are explicit state toggles driven by the chaos harness:

* :meth:`partition_link` / :meth:`heal_link` — full bidirectional cut.
  Checked at *send and delivery* time: packets in flight when the cable
  is pulled are lost, exactly like a real cut.
* :meth:`set_loss` — uniform message drop probability (seeded draw per
  message while active).
* :meth:`set_down` — a crashed node neither sends nor receives; late
  responses addressed to it land on a deregistered handler and vanish,
  which is what makes stale-reply handling in :mod:`repro.dist.rpc`
  load-bearing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Set

Handler = Callable[[dict], None]


@dataclass
class NetStats:
    sent: int = 0
    delivered: int = 0
    dropped_partition: int = 0
    dropped_loss: int = 0
    dropped_down: int = 0
    #: messages per (src, dst) directed link
    per_link: Dict[tuple, int] = field(default_factory=dict)


class Interconnect:
    """Deterministic lossy/laggy message fabric between nodes."""

    def __init__(self, sim, seed: int = 0, delay_min_ms: float = 0.5,
                 delay_max_ms: float = 3.0):
        if delay_min_ms < 0 or delay_max_ms < delay_min_ms:
            raise ValueError("need 0 <= delay_min_ms <= delay_max_ms")
        self.sim = sim
        self.seed = seed
        self.delay_min_ms = delay_min_ms
        self.delay_max_ms = delay_max_ms
        self.stats = NetStats()
        self._handlers: Dict[int, Handler] = {}
        self._down: Set[int] = set()
        self._cut: Set[FrozenSet[int]] = set()
        self._loss_rate = 0.0
        self._rngs: Dict[tuple, random.Random] = {}

    # -- wiring -----------------------------------------------------------------

    def register(self, node_id: int, handler: Handler) -> None:
        """(Re-)attach a node's message handler; a restart overwrites the
        dead endpoint's registration."""
        self._handlers[node_id] = handler

    def deregister(self, node_id: int) -> None:
        self._handlers.pop(node_id, None)

    def set_down(self, node_id: int, down: bool) -> None:
        if down:
            self._down.add(node_id)
        else:
            self._down.discard(node_id)

    # -- fault toggles ----------------------------------------------------------

    def partition_link(self, a: int, b: int) -> None:
        self._cut.add(frozenset((a, b)))

    def heal_link(self, a: int, b: int) -> None:
        self._cut.discard(frozenset((a, b)))

    def link_cut(self, a: int, b: int) -> bool:
        return frozenset((a, b)) in self._cut

    def set_loss(self, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("loss rate must be in [0, 1]")
        self._loss_rate = rate

    # -- the data path ----------------------------------------------------------

    def _rng(self, src: int, dst: int) -> random.Random:
        key = (src, dst)
        rng = self._rngs.get(key)
        if rng is None:
            rng = random.Random(f"net/{self.seed}/{src}->{dst}")
            self._rngs[key] = rng
        return rng

    def send(self, src: int, dst: int, msg: dict) -> None:
        """Fire-and-forget: schedules delivery after the link's seeded
        delay, or silently loses the message under an active fault."""
        self.stats.sent += 1
        key = (src, dst)
        self.stats.per_link[key] = self.stats.per_link.get(key, 0) + 1
        if src in self._down:
            self.stats.dropped_down += 1
            return
        rng = self._rng(src, dst)
        delay = rng.uniform(self.delay_min_ms, self.delay_max_ms)
        if self.link_cut(src, dst):
            self.stats.dropped_partition += 1
            return
        if self._loss_rate > 0.0 and rng.random() < self._loss_rate:
            self.stats.dropped_loss += 1
            return
        self.sim.call_later(delay, lambda: self._deliver(src, dst, msg),
                            label=f"net/{src}->{dst}")

    def _deliver(self, src: int, dst: int, msg: dict) -> None:
        if self.link_cut(src, dst):
            # The partition started while the message was in flight.
            self.stats.dropped_partition += 1
            return
        handler = self._handlers.get(dst)
        if dst in self._down or handler is None:
            self.stats.dropped_down += 1
            return
        self.stats.delivered += 1
        handler(msg)
