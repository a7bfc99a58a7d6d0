"""Request/response RPC over the interconnect, with deadlines + retries.

A call is a simulation generator: it sends a request frame, parks on a
fresh :class:`~repro.sim.Event` with a per-attempt deadline, and on
:class:`~repro.sim.WaitTimeout` retries under the caller's
:class:`~repro.config.RetryPolicy` until the budget is exhausted —
then raises the typed :class:`~repro.errors.NodeUnreachableError` so the
serving layer and the distributed reorganizer can tell "peer is gone"
from a local failure.

Late replies are harmless by construction: each attempt uses a fresh
``msg_id``, a timed-out attempt's id is popped from the pending table
before the retry, and a response whose id resolves to nothing is
dropped on the floor.  Handlers run in their own spawned process (named
``n{id}/...`` so a node crash's ``kill_matching`` reaps them) and may
be plain functions or simulation generators.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional

from ..config import RetryPolicy
from ..errors import NodeUnreachableError
from ..sim import Wait, WaitTimeout, Delay

#: Cross-node RPC backoff: capped exponential with seeded jitter, then
#: :class:`~repro.errors.NodeUnreachableError`.
RPC_RETRY = RetryPolicy.exponential(base_ms=5.0, factor=2.0, max_ms=80.0,
                                    jitter=0.25, max_retries=6)


class RpcStats:
    def __init__(self) -> None:
        self.calls = 0
        self.retries = 0
        self.timeouts = 0
        self.unreachable = 0
        self.served = 0
        self.stale_replies = 0
        self.casts = 0


class RpcEndpoint:
    """One node's RPC stack: client-side calls plus a method registry."""

    def __init__(self, net, node_id: int, sim):
        self.net = net
        self.node_id = node_id
        self.sim = sim
        self.stats = RpcStats()
        self._handlers: Dict[str, Callable] = {}
        self._casts: Dict[str, Callable] = {}
        self._pending: Dict[str, Any] = {}
        self._seq = 0
        self._closed = False
        net.register(node_id, self._on_message)

    # -- server side ------------------------------------------------------------

    def serve(self, method: str, handler: Callable) -> None:
        """Register a request handler: ``handler(payload) -> reply`` or a
        generator yielding simulation commands and returning the reply."""
        self._handlers[method] = handler

    def serve_cast(self, method: str, handler: Callable) -> None:
        """Register a one-way message handler (no reply frame) —
        ``handler(src, payload)``, called synchronously at delivery."""
        self._casts[method] = handler

    def close(self) -> None:
        """Detach from the fabric (node crash): stop receiving anything."""
        self._closed = True
        self.net.deregister(self.node_id)

    def _on_message(self, msg: dict) -> None:
        if self._closed:
            return
        kind = msg["kind"]
        if kind == "req":
            self.sim.spawn(
                self._serve_one(msg),
                name=f"n{self.node_id}/rpc-{msg['method']}-{msg['id']}")
        elif kind == "cast":
            handler = self._casts.get(msg["method"])
            if handler is not None:
                handler(msg["src"], msg["payload"])
        else:  # response
            event = self._pending.pop(msg["id"], None)
            if event is None:
                self.stats.stale_replies += 1
            elif not event.fired:
                event.succeed(msg["payload"])

    def _serve_one(self, msg: dict) -> Generator[Any, Any, None]:
        handler = self._handlers.get(msg["method"])
        if handler is None:
            return
        result = handler(msg["payload"])
        if hasattr(result, "__next__"):
            result = yield from result
        self.stats.served += 1
        self.net.send(self.node_id, msg["src"],
                      {"kind": "resp", "id": msg["id"],
                       "src": self.node_id, "payload": result})
        # A non-generator handler still needs this method to be one.
        return

    # -- client side ------------------------------------------------------------

    def cast(self, dst: int, method: str, payload: dict) -> None:
        """One-way message (heartbeats): no reply, no retry, no deadline."""
        self.stats.casts += 1
        self.net.send(self.node_id, dst,
                      {"kind": "cast", "src": self.node_id,
                       "method": method, "payload": payload})

    def call(self, dst: int, method: str, payload: dict,
             deadline_ms: float, policy: RetryPolicy,
             rng=None) -> Generator[Any, Any, dict]:
        """Call ``method`` on node ``dst``; returns the reply payload.

        Each attempt gets the full ``deadline_ms``; between attempts the
        policy's (seeded) backoff applies.  Raises
        :class:`NodeUnreachableError` once the policy is exhausted.
        """
        self.stats.calls += 1
        attempt = 0
        while True:
            self._seq += 1
            msg_id = f"{self.node_id}:{self._seq}"
            event = self.sim.event(name=f"rpc:{msg_id}")
            self._pending[msg_id] = event
            self.net.send(self.node_id, dst,
                          {"kind": "req", "id": msg_id,
                           "src": self.node_id, "method": method,
                           "payload": payload})
            try:
                reply = yield Wait(event, timeout=deadline_ms)
                return reply
            except WaitTimeout:
                self._pending.pop(msg_id, None)
                self.stats.timeouts += 1
                if policy.exhausted(attempt):
                    self.stats.unreachable += 1
                    raise NodeUnreachableError(
                        f"rpc {method} to node {dst} timed out "
                        f"{attempt + 1} times (deadline {deadline_ms}ms)",
                        node=dst)
                self.stats.retries += 1
                delay = policy.delay_ms(attempt, rng)
                if delay > 0:
                    yield Delay(delay)
                attempt += 1
