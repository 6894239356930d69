"""Chord routing layer (Stoica et al., SIGCOMM 2001).

The paper validates PIER's DHT-agnostic design by deploying it over Chord
"with a fairly minimal integration effort"; this module provides that
alternative.  Nodes are placed on a ``2^m`` identifier ring by hashing their
address; a key is owned by its *successor* (the first node clockwise from the
key).  Each node keeps a successor pointer, a predecessor pointer and an
``m``-entry finger table; greedy routing through fingers resolves a lookup in
``O(log n)`` hops, which is the "logarithmic growth" alternative the paper
points to when discussing CAN's ``n^{1/2}`` hop count.

As with CAN, both a message-level join protocol and a bulk stabilised
builder are provided; the bulk builder computes successors and finger tables
directly from the sorted identifier list.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence

from repro.dht.api import RoutingLayer
from repro.dht.naming import KEY_BITS, node_identifier
from repro.net.network import Network
from repro.net.node import Node


def _in_interval(value: int, start: int, end: int, inclusive_end: bool = False) -> bool:
    """Whether ``value`` lies in the clockwise ring interval ``(start, end)``.

    Ring intervals wrap around zero; ``inclusive_end`` makes the interval
    half-closed ``(start, end]`` which is the ownership rule of Chord.
    """
    if start == end:
        # The whole ring (single-node case).
        return True if not inclusive_end else True
    if start < end:
        return start < value < end or (inclusive_end and value == end)
    return value > start or value < end or (inclusive_end and value == end)


class ChordRouting(RoutingLayer):
    """Chord routing layer instance bound to one node."""

    PROTOCOL_ROUTE = "chord.route"
    PROTOCOL_ROUTE_BATCH = "chord.route_batch"
    PROTOCOL_BATCH_LOOKUP_REPLY = "chord.batch_lookup_reply"
    PROTOCOL_JOIN_REPLY = "chord.join_reply"
    PROTOCOL_NOTIFY = "chord.notify"
    PROTOCOL_LEAVE = "chord.leave"

    def __init__(self, node: Node, key_bits: int = KEY_BITS):
        super().__init__(node)
        self.key_bits = key_bits
        self.identifier = node_identifier(node.address) % (1 << key_bits)
        self.successor: Optional[int] = None
        self.predecessor: Optional[int] = None
        #: finger index -> (identifier, address) of the finger node.
        self.fingers: List[Optional[tuple]] = [None] * key_bits
        self._ids: Dict[int, int] = {}  # address -> identifier cache
        self._dead: set[int] = set()
        self.extract_items = None
        self.install_items = None

        node.register_handler(self.PROTOCOL_ROUTE, self._on_route)
        node.register_handler(self.PROTOCOL_ROUTE_BATCH, self._on_route_batch)
        node.register_handler(self.PROTOCOL_BATCH_LOOKUP_REPLY,
                              self._on_batch_lookup_reply)
        node.register_handler(self.PROTOCOL_JOIN_REPLY, self._on_join_reply)
        node.register_handler(self.PROTOCOL_NOTIFY, self._on_notify)
        node.register_handler(self.PROTOCOL_LEAVE, self._on_leave)
        node.register_bounce_handler(self.PROTOCOL_ROUTE, self._on_route_bounce)
        node.register_bounce_handler(self.PROTOCOL_ROUTE_BATCH,
                                     self._on_route_batch_bounce)

    # --------------------------------------------------------------- helpers

    def _identifier_of(self, address: int) -> int:
        if address not in self._ids:
            self._ids[address] = node_identifier(address) % (1 << self.key_bits)
        return self._ids[address]

    def ring_key(self, key: int) -> int:
        """Project a flat DHT key onto this ring."""
        return key % (1 << self.key_bits)

    def owns(self, key: int) -> bool:
        ring_key = self.ring_key(key)
        if self.predecessor is None:
            return True
        return _in_interval(
            ring_key, self._identifier_of(self.predecessor), self.identifier,
            inclusive_end=True,
        )

    def neighbors(self) -> List[int]:
        addresses = set()
        if self.successor is not None:
            addresses.add(self.successor)
        if self.predecessor is not None:
            addresses.add(self.predecessor)
        for finger in self.fingers:
            if finger is not None:
                addresses.add(finger[1])
        addresses.discard(self.address)
        return [address for address in sorted(addresses) if address not in self._dead]

    def mark_neighbor_dead(self, address: int) -> None:
        """Record a detected neighbour failure; routing avoids it afterwards."""
        self._dead.add(address)

    def mark_neighbor_alive(self, address: int) -> None:
        """Clear a previously-detected neighbour failure."""
        self._dead.discard(address)

    # ---------------------------------------------------------------- lookup

    # A lookup is a batch lookup of one key (RoutingLayer.lookup).  It is
    # bound here as well so that per-class instrumentation (the benchmark's
    # span tracer) can wrap ``ChordRouting.lookup`` by name.
    lookup = RoutingLayer.lookup

    def _closest_preceding(self, ring_key: int) -> Optional[int]:
        """Finger (or successor) closest to, but preceding, ``ring_key``."""
        candidates = []
        for finger in self.fingers:
            if finger is None:
                continue
            identifier, address = finger
            if address in self._dead or address == self.address:
                continue
            candidates.append((identifier, address))
        if self.successor is not None and self.successor not in self._dead:
            candidates.append((self._identifier_of(self.successor), self.successor))
        best = None
        for identifier, address in candidates:
            if _in_interval(identifier, self.identifier, ring_key) and (
                    best is None or _in_interval(identifier, best[0], ring_key)):
                best = (identifier, address)
        if best is not None:
            return best[1]
        if self.successor is not None and self.successor not in self._dead:
            return self.successor
        return None

    def _forward(self, payload: dict, payload_bytes: int, hops: int) -> None:
        if hops >= self.MAX_ROUTE_HOPS:
            return
        next_hop = self._closest_preceding(payload["ring_key"])
        if next_hop is None or next_hop == self.address:
            return
        self.node.send(
            next_hop,
            self.PROTOCOL_ROUTE,
            payload=payload,
            payload_bytes=payload_bytes,
            hops=hops + 1,
        )

    def _on_route(self, node: Node, message) -> None:
        """Forward a routed join request, or splice the joiner in here."""
        payload = message.payload
        if not self.owns(payload["ring_key"]):
            self._forward(payload, message.payload_bytes, message.hops)
            return
        self._handle_join_request(payload)

    def _on_route_bounce(self, node: Node, message) -> None:
        """A routed hop hit a dead node: mark it dead and re-route around it."""
        self.mark_neighbor_dead(message.dst)
        self._forward(message.payload, message.payload_bytes, message.hops)

    # -------------------------------------------- batch lookup geometry hooks
    # The generic batch machinery (request bookkeeping, per-hop partitioning,
    # owner replies, unresolved-key reporting) lives in RoutingLayer.

    def _batch_entry(self, key: int) -> dict:
        return {"key": key, "ring_key": self.ring_key(key)}

    def _batch_entry_owned(self, entry: dict) -> bool:
        return self.owns(entry["ring_key"])

    def _batch_next_hop(self, entry: dict, exclude: Optional[int]) -> Optional[int]:
        # Chord's finger geometry has no source to avoid; dead nodes are
        # already excluded inside _closest_preceding.
        next_hop = self._closest_preceding(entry["ring_key"])
        if next_hop == self.address:
            return None
        return next_hop

    # --------------------------------------------------------------- joining

    def create_network(self) -> None:
        """Become the only node on a new ring."""
        self.successor = self.address
        self.predecessor = self.address
        self.fingers = [(self.identifier, self.address)] * self.key_bits
        self.notify_location_map_change()

    def join(self, landmark: Optional[int]) -> None:
        if landmark is None:
            self.create_network()
            return
        payload = {"ring_key": self.identifier, "origin": self.address}
        self.node.send(
            landmark,
            self.PROTOCOL_ROUTE,
            payload=payload,
            payload_bytes=self.ROUTE_HOP_BYTES,
        )

    def _handle_join_request(self, payload: dict) -> None:
        """This node is the joiner's successor; splice it in before us."""
        joiner = payload["origin"]
        joiner_id = payload["ring_key"]
        old_predecessor = self.predecessor
        items: list = []
        if self.extract_items is not None:
            # Keys in (old_predecessor, joiner_id] move to the joiner.
            def _moves(key: int) -> bool:
                ring_key = self.ring_key(key)
                start = self._identifier_of(old_predecessor) if old_predecessor is not None else joiner_id
                return _in_interval(ring_key, start, joiner_id, inclusive_end=True)

            items = self.extract_items(_moves)
        self.predecessor = joiner
        self._ids[joiner] = joiner_id
        item_bytes = sum(getattr(item, "size_bytes", 100) for item in items)
        self.node.send(
            joiner,
            self.PROTOCOL_JOIN_REPLY,
            payload={
                "successor": self.address,
                "predecessor": old_predecessor,
                "items": items,
            },
            payload_bytes=200 + item_bytes,
        )
        self.notify_location_map_change()

    def _on_join_reply(self, node: Node, message) -> None:
        payload = message.payload
        self.successor = payload["successor"]
        self.predecessor = payload["predecessor"]
        self.fingers = [(self._identifier_of(self.successor), self.successor)] * self.key_bits
        if self.install_items is not None and payload["items"]:
            self.install_items(payload["items"])
        if self.predecessor is not None and self.predecessor != self.address:
            self.node.send(
                self.predecessor,
                self.PROTOCOL_NOTIFY,
                payload={"successor": self.address},
                payload_bytes=self.ROUTE_HOP_BYTES,
            )
        self.notify_location_map_change()

    def _on_notify(self, node: Node, message) -> None:
        self.successor = message.payload["successor"]

    # ---------------------------------------------------------------- leaving

    def leave(self) -> None:
        """Hand stored items to the successor and splice out of the ring."""
        if self.successor is None or self.successor == self.address:
            self.successor = None
            self.predecessor = None
            self.notify_location_map_change()
            return
        items: list = []
        if self.extract_items is not None:
            items = self.extract_items(lambda key: True)
        item_bytes = sum(getattr(item, "size_bytes", 100) for item in items)
        self.node.send(
            self.successor,
            self.PROTOCOL_LEAVE,
            payload={
                "departing": self.address,
                "predecessor": self.predecessor,
                "items": items,
            },
            payload_bytes=200 + item_bytes,
        )
        if self.predecessor is not None and self.predecessor != self.address:
            self.node.send(
                self.predecessor,
                self.PROTOCOL_NOTIFY,
                payload={"successor": self.successor},
                payload_bytes=self.ROUTE_HOP_BYTES,
            )
        self.successor = None
        self.predecessor = None
        self.notify_location_map_change()

    def _on_leave(self, node: Node, message) -> None:
        payload = message.payload
        self.predecessor = payload["predecessor"]
        if self.install_items is not None and payload["items"]:
            self.install_items(payload["items"])
        self.notify_location_map_change()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChordRouting(addr={self.address}, id={self.identifier:#x}, "
            f"succ={self.successor}, pred={self.predecessor})"
        )


class ChordNetworkBuilder:
    """Construct a stabilised Chord ring over every node of a network."""

    def __init__(self, key_bits: int = KEY_BITS):
        self.key_bits = key_bits
        self._ring: Optional[List[tuple]] = None

    def build_stabilized(self, network: Network,
                         addresses: Optional[Sequence[int]] = None
                         ) -> Dict[int, ChordRouting]:
        """Install a fully-stabilised ring (successors, predecessors, fingers)."""
        if addresses is None:
            addresses = list(range(network.num_nodes))
        addresses = list(addresses)
        routings = {
            address: ChordRouting(network.node(address), key_bits=self.key_bits)
            for address in addresses
        }
        ring = sorted(
            (routing.identifier, address) for address, routing in routings.items()
        )
        identifiers = [identifier for identifier, _address in ring]
        count = len(ring)
        modulus = 1 << self.key_bits

        for position, (identifier, address) in enumerate(ring):
            routing = routings[address]
            successor_id, successor_addr = ring[(position + 1) % count]
            predecessor_id, predecessor_addr = ring[(position - 1) % count]
            routing.successor = successor_addr
            routing.predecessor = predecessor_addr
            fingers: List[Optional[tuple]] = []
            for finger_index in range(self.key_bits):
                target = (identifier + (1 << finger_index)) % modulus
                position_in_ring = bisect.bisect_left(identifiers, target) % count
                fingers.append(ring[position_in_ring])
            routing.fingers = fingers
        self._ring = ring
        return routings

    # --------------------------------------------------------- owner lookup

    def owner_of_key(self, key: int) -> int:
        """Address of the node owning ``key`` in the last built ring."""
        if not self._ring:
            raise RuntimeError("owner_of_key() requires build_stabilized() first")
        ring_key = key % (1 << self.key_bits)
        identifiers = [identifier for identifier, _address in self._ring]
        position = bisect.bisect_left(identifiers, ring_key) % len(self._ring)
        return self._ring[position][1]
