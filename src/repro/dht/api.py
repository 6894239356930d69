"""Routing layer API (paper Table 1).

The overlay routing layer maps a key to the IP address of the node currently
responsible for it, using only local neighbour state and multi-hop
forwarding.  Its public surface is deliberately tiny:

=====================  =========================================================
``lookup(key) → addr`` asynchronous; invokes a callback with the owner address
``join(landmark)``     attach to (or create) an overlay network
``leave()``            gracefully hand off responsibility and depart
``locationMapChange``  callback fired when the locally-owned key range changes
=====================  =========================================================

Both :class:`repro.dht.can.CanRouting` and :class:`repro.dht.chord.ChordRouting`
implement this interface, which is what lets PIER swap DHTs with "fairly
minimal integration effort" (paper Section 3.2).
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import Callable, Dict, Iterable, List, Optional

from repro.net.node import Node

#: Callback type for lookups: receives the owner's node address.
LookupCallback = Callable[[int], None]
#: Callback type for batch lookups: receives (owner address, keys it owns).
#: Invoked once per distinct owner as resolutions arrive, so callers can
#: dispatch each destination's traffic without waiting for stragglers.
BatchLookupCallback = Callable[[int, List[int]], None]
#: Callback type for location-map changes (no arguments; consult the layer).
LocationMapCallback = Callable[[], None]


class BatchLookupState:
    """Origin-side bookkeeping for one in-flight batched lookup."""

    __slots__ = ("callback", "remaining", "on_unresolved")

    def __init__(self, callback: BatchLookupCallback, remaining: int,
                 on_unresolved: Optional[Callable[[List[int]], None]] = None):
        self.callback = callback
        self.remaining = remaining
        self.on_unresolved = on_unresolved


class RoutingLayer(ABC):
    """Abstract overlay routing layer bound to one simulated node.

    The base class owns the one lookup lane, **batched lookups**: request
    bookkeeping, reply handling and the forward loop that re-partitions a
    batch at every hop.  The Table 1 ``lookup`` is a batch lookup of one
    key.  Concrete layers supply only the geometry through three hooks —
    :meth:`_batch_entry`, :meth:`_batch_entry_owned` and
    :meth:`_batch_next_hop` — and register their ``PROTOCOL_ROUTE_BATCH`` /
    ``PROTOCOL_BATCH_LOOKUP_REPLY`` names against the inherited handlers.
    """

    #: Name used as a service key on the node and as a protocol prefix.
    SERVICE_NAME = "dht.routing"
    #: Routed-batch protocol names; concrete layers override with their own.
    PROTOCOL_ROUTE_BATCH = "dht.route_batch"
    PROTOCOL_BATCH_LOOKUP_REPLY = "dht.batch_lookup_reply"
    #: Wire size (bytes) charged per batch-entry hop / reply.
    ROUTE_HOP_BYTES = 40
    #: Safety valve: routed batches are dropped after this many overlay hops.
    MAX_ROUTE_HOPS = 128

    def __init__(self, node: Node):
        self.node = node
        self._location_map_listeners: List[LocationMapCallback] = []
        self._pending_batch_lookups: Dict[int, BatchLookupState] = {}
        self._lookup_ids = itertools.count(1)
        self.lookup_hops_observed: List[int] = []
        node.services[self.SERVICE_NAME] = self

    # ------------------------------------------------------------- interface

    def lookup(self, key: int, callback: LookupCallback,
               payload_bytes: int = ROUTE_HOP_BYTES) -> None:
        """Resolve ``key`` to the responsible node's address, asynchronously.

        If the key maps to the local node the callback fires synchronously
        (paper footnote 3); otherwise the request is routed hop by hop and
        the owner replies directly to this node.  A lookup is a batch
        lookup of one key; a key the overlay cannot route is dropped.
        """
        self._lookup_batch([key], lambda owner, _keys: callback(owner),
                           payload_bytes, None)

    def lookup_batch(self, keys: Iterable[int], callback: BatchLookupCallback,
                     payload_bytes: int = ROUTE_HOP_BYTES,
                     on_unresolved: Optional[Callable[[List[int]], None]] = None,
                     ) -> None:
        """Resolve many keys at once, grouping resolutions by owner.

        ``callback(owner, keys)`` fires once per distinct owner with every
        key that owner is responsible for; locally-owned keys resolve
        synchronously.  Keys whose greedy paths leave through the same
        neighbour travel in one routed message; each hop re-partitions the
        batch (via :meth:`_batch_next_hop`), so the batch fans out only
        where the routes actually diverge.  The owner of a subset replies
        once for all keys it owns — a ready-made (destination → keys)
        grouping for the caller.  Keys that become unroutable (dead
        neighbours, hop limit) are reported back as *unresolved* so the
        origin's bookkeeping is freed; their items are simply lost
        (soft-state semantics).  Callers that must not wait on lost keys
        (the Provider's failure-aware get lane) pass ``on_unresolved`` to be
        told which keys were dropped.
        """
        self._lookup_batch(keys, callback, payload_bytes, on_unresolved)

    def _lookup_batch(self, keys: Iterable[int], callback: BatchLookupCallback,
                      payload_bytes: int,
                      on_unresolved: Optional[Callable[[List[int]], None]],
                      ) -> None:
        # The one implementation behind both public entry points, so
        # wrapping either one never counts a key twice.
        unique = list(dict.fromkeys(keys))
        if not unique:
            return
        local: List[int] = []
        entries: List[dict] = []
        for key in unique:
            if self.owns(key):
                local.append(key)
            else:
                entries.append(self._batch_entry(key))
        if local:
            callback(self.address, local)
        if not entries:
            return
        request_id = next(self._lookup_ids)
        self._pending_batch_lookups[request_id] = BatchLookupState(
            callback, len(entries), on_unresolved=on_unresolved
        )
        payload = {
            "entries": entries,
            "origin": self.address,
            "request_id": request_id,
        }
        self._forward_batch(payload, payload_bytes, hops=0)

    # Geometry hooks implemented by each DHT.

    def _batch_entry(self, key: int) -> dict:
        """Build the routed-batch entry for ``key`` (must carry ``"key"``)."""
        raise NotImplementedError

    def _batch_entry_owned(self, entry: dict) -> bool:
        """Whether this node owns the key a batch entry describes."""
        raise NotImplementedError

    def _batch_next_hop(self, entry: dict, exclude: Optional[int]) -> Optional[int]:
        """Best next hop for a batch entry (``None`` when unroutable)."""
        raise NotImplementedError

    # Generic machinery shared by all DHTs.

    def _forward_batch(self, payload: dict, entry_bytes: int, hops: int,
                       exclude: Optional[int] = None) -> None:
        """Partition a routed batch by best next hop and forward each group.

        Entries with no viable next hop (or past the hop limit) are reported
        back to the origin as unresolved rather than silently dropped, so
        the origin's pending state never leaks.
        """
        entries = payload["entries"]
        origin = payload["origin"]
        request_id = payload["request_id"]
        groups: Dict[int, List[dict]] = {}
        dropped: List[int] = []
        if hops >= self.MAX_ROUTE_HOPS:
            dropped = [entry["key"] for entry in entries]
        else:
            for entry in entries:
                next_hop = self._batch_next_hop(entry, exclude)
                if next_hop is None or next_hop == self.address:
                    dropped.append(entry["key"])
                    continue
                groups.setdefault(next_hop, []).append(entry)
        for next_hop, group in groups.items():
            self.node.send(
                next_hop,
                self.PROTOCOL_ROUTE_BATCH,
                payload={
                    "entries": group,
                    "origin": origin,
                    "request_id": request_id,
                },
                payload_bytes=entry_bytes * len(group),
                hops=hops + 1,
            )
        if dropped:
            self._send_batch_reply(origin, request_id, None, dropped, hops)

    def _send_batch_reply(self, origin: int, request_id: int,
                          owner: Optional[int], keys: List[int],
                          hops: int) -> None:
        self.node.send(
            origin,
            self.PROTOCOL_BATCH_LOOKUP_REPLY,
            payload={
                "request_id": request_id,
                "owner": owner,
                "keys": keys,
                "hops": hops,
            },
            payload_bytes=self.ROUTE_HOP_BYTES + 8 * max(0, len(keys) - 1),
        )

    def _on_route_batch(self, node: Node, message) -> None:
        payload = message.payload
        entries = payload["entries"]
        owned: List[int] = []
        rest: List[dict] = []
        for entry in entries:
            if self._batch_entry_owned(entry):
                owned.append(entry["key"])
            else:
                rest.append(entry)
        if owned:
            self._send_batch_reply(payload["origin"], payload["request_id"],
                                   self.address, owned, message.hops)
        if rest:
            entry_bytes = max(1, message.payload_bytes // len(entries))
            self._forward_batch(
                {
                    "entries": rest,
                    "origin": payload["origin"],
                    "request_id": payload["request_id"],
                },
                entry_bytes, message.hops, exclude=message.src,
            )

    def _on_route_batch_bounce(self, node: Node, message) -> None:
        """A batched hop hit a dead node: mark it dead and re-route the batch."""
        self.mark_neighbor_dead(message.dst)
        entries = message.payload["entries"]
        entry_bytes = max(1, message.payload_bytes // max(1, len(entries)))
        self._forward_batch(message.payload, entry_bytes, message.hops,
                            exclude=message.dst)

    def _on_batch_lookup_reply(self, node: Node, message) -> None:
        payload = message.payload
        pending = self._pending_batch_lookups.get(payload["request_id"])
        if pending is None:
            return
        keys = payload["keys"]
        pending.remaining -= len(keys)
        if pending.remaining <= 0:
            del self._pending_batch_lookups[payload["request_id"]]
        owner = payload["owner"]
        if owner is None:
            # Unresolved keys: lost in routing (soft-state semantics) — the
            # bookkeeping is released, and callers that asked to be told
            # (failure-aware gets) learn which keys were dropped.
            if pending.on_unresolved is not None:
                pending.on_unresolved(keys)
            return
        self.lookup_hops_observed.extend([payload.get("hops", 0)] * len(keys))
        pending.callback(owner, keys)

    def mark_neighbor_dead(self, address: int) -> None:
        """Record a detected neighbour failure (no-op by default)."""

    def mark_neighbor_alive(self, address: int) -> None:
        """Clear a previously-detected neighbour failure (no-op by default)."""

    def rebind(self, node: Node) -> "RoutingLayer":
        """Move this routing layer (tables intact) onto another node.

        The real-transport bootstrap builds the full stabilised overlay
        locally over throwaway stand-in nodes — both network builders are
        deterministic functions of the address list — and then rebinds the
        one routing layer that belongs to this process onto its real,
        socket-backed node.  Every protocol handler (and bounce handler) the
        layer registered on the stand-in is re-registered on the new node,
        so the move is invisible to the layer itself.
        """
        old = self.node
        self.node = node
        node.services[self.SERVICE_NAME] = self
        if old is not None and old is not node:
            for protocol, handler in old._handlers.items():
                node.replace_handler(protocol, handler)
            for protocol, handler in old._bounce_handlers.items():
                node.register_bounce_handler(protocol, handler)
        return self

    @abstractmethod
    def owns(self, key: int) -> bool:
        """Whether this node is currently responsible for ``key``."""

    @abstractmethod
    def neighbors(self) -> List[int]:
        """Addresses of overlay neighbours (used for multicast flooding)."""

    @abstractmethod
    def join(self, landmark: Optional[int]) -> None:
        """Join the overlay via ``landmark`` (``None`` starts a new network)."""

    @abstractmethod
    def leave(self) -> None:
        """Gracefully leave, handing owned keys to a neighbour."""

    # ------------------------------------------------------------- callbacks

    def add_location_map_listener(self, callback: LocationMapCallback) -> None:
        """Register a ``locationMapChange`` listener (paper Table 1)."""
        self._location_map_listeners.append(callback)

    def notify_location_map_change(self) -> None:
        """Fire all registered ``locationMapChange`` listeners."""
        for callback in list(self._location_map_listeners):
            callback()

    # ------------------------------------------------------------ utilities

    @property
    def address(self) -> int:
        """Address of the node this routing layer runs on."""
        return self.node.address

    @classmethod
    def of(cls, node: Node) -> "RoutingLayer":
        """Fetch the routing layer service installed on ``node``."""
        return node.services[cls.SERVICE_NAME]
