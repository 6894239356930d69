"""Content Addressable Network (CAN) routing layer.

CAN (Ratnasamy et al., SIGCOMM 2001) organises nodes over a logical
``d``-dimensional Cartesian unit space partitioned into hyper-rectangular
*zones*.  Each node owns one zone (plus possibly zones adopted from departed
neighbours), keys hash to points, and a key is stored at the node whose zone
contains its point.  Routing greedily forwards a message to the neighbour
whose zone is closest to the target point, giving ``(d/4)·n^{1/d}`` hops on
average — with the paper's choice of ``d = 2`` this is the ``n^{1/2}`` growth
visible in its scalability figures.

Two ways to stand up a CAN are provided:

* the full **join/leave protocol** (zone splitting, item hand-off, neighbour
  updates), used by tests and small experiments;
* :class:`CanNetworkBuilder.build_stabilized`, which constructs the
  partitioning and neighbour tables directly.  The paper's measurements are
  all taken "after the CAN routing stabilizes", so benchmarks use this bulk
  construction to avoid simulating thousands of sequential joins.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import RoutingError
from repro.dht.api import RoutingLayer
from repro.dht.naming import key_to_unit_coordinates
from repro.net.network import Network
from repro.net.node import Node

#: Default CAN dimensionality used throughout the paper's evaluation.
DEFAULT_DIMENSIONS = 2


@dataclass(frozen=True)
class Zone:
    """A half-open hyper-rectangle ``[lo, hi)`` in the unit d-cube."""

    lo: Tuple[float, ...]
    hi: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError("zone bounds must have equal dimensionality")
        for low, high in zip(self.lo, self.hi):
            if not low < high:
                raise ValueError(f"degenerate zone bounds [{low}, {high})")

    @property
    def dimensions(self) -> int:
        """Number of coordinate dimensions."""
        return len(self.lo)

    @classmethod
    def full_space(cls, dimensions: int) -> "Zone":
        """The entire unit cube."""
        return cls(tuple([0.0] * dimensions), tuple([1.0] * dimensions))

    def contains(self, point: Sequence[float]) -> bool:
        """Whether ``point`` lies inside this zone."""
        lo = self.lo
        hi = self.hi
        return all(
            lo[dim] <= coordinate < hi[dim]
            for dim, coordinate in enumerate(point)
        )

    def volume(self) -> float:
        """Lebesgue volume of the zone."""
        volume = 1.0
        for low, high in zip(self.lo, self.hi):
            volume *= high - low
        return volume

    def extent(self, dim: int) -> float:
        """Side length along dimension ``dim``."""
        return self.hi[dim] - self.lo[dim]

    def longest_dimension(self) -> int:
        """Index of the dimension with the largest extent (ties → lowest)."""
        return max(range(self.dimensions), key=lambda dim: (self.extent(dim), -dim))

    def split(self, dim: Optional[int] = None) -> Tuple["Zone", "Zone"]:
        """Split the zone in half along ``dim`` (default: longest dimension)."""
        if dim is None:
            dim = self.longest_dimension()
        mid = (self.lo[dim] + self.hi[dim]) / 2.0
        lower_hi = list(self.hi)
        lower_hi[dim] = mid
        upper_lo = list(self.lo)
        upper_lo[dim] = mid
        return (
            Zone(self.lo, tuple(lower_hi)),
            Zone(tuple(upper_lo), self.hi),
        )

    def center(self) -> Tuple[float, ...]:
        """Geometric centre of the zone."""
        return tuple((low + high) / 2.0 for low, high in zip(self.lo, self.hi))

    def distance_to_point(self, point: Sequence[float]) -> float:
        """Euclidean distance from ``point`` to the closest point of the zone."""
        total = 0.0
        for low, high, coordinate in zip(self.lo, self.hi, point):
            if coordinate < low:
                delta = low - coordinate
            elif coordinate >= high:
                delta = coordinate - high
            else:
                delta = 0.0
            total += delta * delta
        return total ** 0.5

    def is_neighbor(self, other: "Zone") -> bool:
        """CAN adjacency: abut along exactly one dimension, overlap in the rest."""
        abutting = 0
        for dim in range(self.dimensions):
            a_lo, a_hi = self.lo[dim], self.hi[dim]
            b_lo, b_hi = other.lo[dim], other.hi[dim]
            if a_hi == b_lo or b_hi == a_lo:
                abutting += 1
            elif not (a_lo < b_hi and b_lo < a_hi):
                return False  # disjoint with a gap: cannot be neighbours
            # otherwise strictly overlapping along this dimension
        return abutting >= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ranges = ", ".join(
            f"[{low:.3f},{high:.3f})" for low, high in zip(self.lo, self.hi)
        )
        return f"Zone({ranges})"


class CanRouting(RoutingLayer):
    """CAN routing layer instance bound to one node.

    Parameters
    ----------
    node:
        Simulated host this instance runs on.
    dimensions:
        Dimensionality ``d`` of the coordinate space (paper uses 2).
    seed:
        Seed for the join-point selection of this node.
    """

    PROTOCOL_ROUTE = "can.route"
    PROTOCOL_ROUTE_BATCH = "can.route_batch"
    PROTOCOL_BATCH_LOOKUP_REPLY = "can.batch_lookup_reply"
    PROTOCOL_JOIN_REPLY = "can.join_reply"
    PROTOCOL_NEIGHBOR_UPDATE = "can.neighbor_update"
    PROTOCOL_LEAVE_HANDOFF = "can.leave_handoff"

    def __init__(self, node: Node, dimensions: int = DEFAULT_DIMENSIONS, seed: int = 0):
        super().__init__(node)
        if dimensions <= 0:
            raise ValueError("CAN dimensionality must be positive")
        self.dimensions = dimensions
        self.zones: List[Zone] = []
        #: neighbour address -> list of zones that neighbour owns.
        self.neighbor_zones: Dict[int, List[Zone]] = {}
        self._dead_neighbors: set[int] = set()
        self._rng = random.Random((seed << 20) ^ node.address)
        #: Hooks installed by the Provider for item migration on join/leave.
        self.extract_items: Optional[Callable[[Callable[[int], bool]], list]] = None
        self.install_items: Optional[Callable[[list], None]] = None

        node.register_handler(self.PROTOCOL_ROUTE, self._on_route)
        node.register_handler(self.PROTOCOL_ROUTE_BATCH, self._on_route_batch)
        node.register_handler(self.PROTOCOL_BATCH_LOOKUP_REPLY,
                              self._on_batch_lookup_reply)
        node.register_handler(self.PROTOCOL_JOIN_REPLY, self._on_join_reply)
        node.register_handler(self.PROTOCOL_NEIGHBOR_UPDATE, self._on_neighbor_update)
        node.register_handler(self.PROTOCOL_LEAVE_HANDOFF, self._on_leave_handoff)
        node.register_bounce_handler(self.PROTOCOL_ROUTE, self._on_route_bounce)
        node.register_bounce_handler(self.PROTOCOL_ROUTE_BATCH,
                                     self._on_route_batch_bounce)

    # --------------------------------------------------------------- mapping

    def key_to_point(self, key: int) -> Tuple[float, ...]:
        """Map a flat DHT key to a point in the unit d-cube."""
        return key_to_unit_coordinates(key, self.dimensions)

    def owns_point(self, point: Sequence[float]) -> bool:
        """Whether any of this node's zones contains ``point``."""
        return any(zone.contains(point) for zone in self.zones)

    def owns(self, key: int) -> bool:
        return self.owns_point(self.key_to_point(key))

    def neighbors(self) -> List[int]:
        return [
            address
            for address in self.neighbor_zones
            if address not in self._dead_neighbors
        ]

    def mark_neighbor_dead(self, address: int) -> None:
        """Record a detected neighbour failure; routing avoids it afterwards."""
        if address in self.neighbor_zones:
            self._dead_neighbors.add(address)

    def mark_neighbor_alive(self, address: int) -> None:
        """Clear a previously-detected neighbour failure."""
        self._dead_neighbors.discard(address)

    # ---------------------------------------------------------------- lookup

    # A lookup is a batch lookup of one key (RoutingLayer.lookup).  It is
    # bound here as well so that per-class instrumentation (the benchmark's
    # span tracer) can wrap ``CanRouting.lookup`` by name.
    lookup = RoutingLayer.lookup

    def _forward(self, payload: dict, payload_bytes: int, hops: int,
                 exclude: Optional[int] = None) -> None:
        """Greedy-forward a routed join request one hop closer to its point."""
        if hops >= self.MAX_ROUTE_HOPS:
            # Routing loop safety valve: greedy geometric forwarding can, in
            # rare corner configurations, bounce between zones equidistant
            # from the target.
            return
        point = payload["point"]
        next_hop = self._best_next_hop(point, exclude=exclude)
        if next_hop is None:
            return
        self.node.send(
            next_hop,
            self.PROTOCOL_ROUTE,
            payload=payload,
            payload_bytes=payload_bytes,
            hops=hops + 1,
        )

    def _best_next_hop(self, point: Sequence[float],
                       exclude: Optional[int] = None) -> Optional[int]:
        """Neighbour whose zone is geometrically closest to the target point.

        The node the message just arrived from is avoided unless it is the
        only live neighbour, which prevents two-node ping-pong cycles.
        """
        # Squared distances: sqrt is monotone, so the argmin is unchanged and
        # the per-zone cost drops on what profiling shows is the hottest
        # routing loop in large simulations.
        best_address: Optional[int] = None
        best_distance = float("inf")
        fallback_address: Optional[int] = None
        fallback_distance = float("inf")
        dead = self._dead_neighbors
        for address, zones in self.neighbor_zones.items():
            if address in dead:
                continue
            for zone in zones:
                lo = zone.lo
                hi = zone.hi
                distance = 0.0
                for dim, coordinate in enumerate(point):
                    low = lo[dim]
                    if coordinate < low:
                        delta = low - coordinate
                        distance += delta * delta
                    else:
                        high = hi[dim]
                        if coordinate >= high:
                            delta = coordinate - high
                            distance += delta * delta
                if address == exclude:
                    if distance < fallback_distance:
                        fallback_distance = distance
                        fallback_address = address
                    continue
                if distance < best_distance:
                    best_distance = distance
                    best_address = address
        if best_address is not None:
            return best_address
        return fallback_address

    def _on_route(self, node: Node, message) -> None:
        """Forward a routed join request, or split a zone for it here."""
        payload = message.payload
        if not self.owns_point(payload["point"]):
            self._forward(payload, message.payload_bytes, message.hops,
                          exclude=message.src)
            return
        self._handle_join_request(payload)

    def _on_route_bounce(self, node: Node, message) -> None:
        """A forwarded hop hit a dead neighbour: route around it immediately.

        This models per-contact failure detection (a reset / timed-out
        transport connection) as opposed to the slower periodic keep-alives;
        the neighbour is marked dead locally so subsequent traffic avoids it
        until it is reported alive again.
        """
        self.mark_neighbor_dead(message.dst)
        self._forward(message.payload, message.payload_bytes, message.hops,
                      exclude=message.dst)

    # -------------------------------------------- batch lookup geometry hooks
    # The generic batch machinery (request bookkeeping, per-hop partitioning,
    # owner replies, unresolved-key reporting) lives in RoutingLayer.

    def _batch_entry(self, key: int) -> dict:
        return {"key": key, "point": self.key_to_point(key)}

    def _batch_entry_owned(self, entry: dict) -> bool:
        return self.owns_point(entry["point"])

    def _batch_next_hop(self, entry: dict, exclude: Optional[int]) -> Optional[int]:
        return self._best_next_hop(entry["point"], exclude=exclude)

    # --------------------------------------------------------------- joining

    def create_network(self) -> None:
        """Become the first node of a new CAN, owning the whole space."""
        self.zones = [Zone.full_space(self.dimensions)]
        self.neighbor_zones = {}
        self.notify_location_map_change()

    def join(self, landmark: Optional[int]) -> None:
        if landmark is None:
            self.create_network()
            return
        point = tuple(self._rng.random() for _ in range(self.dimensions))
        payload = {"point": point, "origin": self.address}
        # The landmark routes the join request toward the chosen point.
        self.node.send(
            landmark,
            self.PROTOCOL_ROUTE,
            payload=payload,
            payload_bytes=self.ROUTE_HOP_BYTES,
        )

    def _handle_join_request(self, payload: dict) -> None:
        """Split the local primary zone and hand half to the joining node."""
        joiner = payload["origin"]
        point = payload["point"]
        primary_index = next(
            (i for i, zone in enumerate(self.zones) if zone.contains(point)), 0
        )
        primary = self.zones[primary_index]
        kept, given = primary.split()
        # Convention: the joiner receives the half containing its chosen
        # point, the splitter keeps the other half.
        if kept.contains(point):
            kept, given = given, kept
        previous_neighbors = {
            address: list(zones) for address, zones in self.neighbor_zones.items()
        }
        self.zones[primary_index] = kept

        items: list = []
        if self.extract_items is not None:
            items = self.extract_items(lambda key: not self.owns(key))

        reply = {
            "zone": given,
            "neighbor_zones": previous_neighbors,
            "splitter": self.address,
            "splitter_zones": list(self.zones),
            "items": items,
        }
        item_bytes = sum(getattr(item, "size_bytes", 100) for item in items)
        self.node.send(
            joiner,
            self.PROTOCOL_JOIN_REPLY,
            payload=reply,
            payload_bytes=200 + item_bytes,
        )
        # The joiner becomes a neighbour of the splitter.
        self.neighbor_zones[joiner] = [given]
        self._prune_non_adjacent()
        self._broadcast_zone_update()
        self.notify_location_map_change()

    def _on_join_reply(self, node: Node, message) -> None:
        payload = message.payload
        self.zones = [payload["zone"]]
        candidate_map = dict(payload["neighbor_zones"])
        candidate_map[payload["splitter"]] = list(payload["splitter_zones"])
        self.neighbor_zones = {
            address: zones
            for address, zones in candidate_map.items()
            if address != self.address and self._adjacent_to_me(zones)
        }
        if self.install_items is not None and payload["items"]:
            self.install_items(payload["items"])
        self._broadcast_zone_update(extra_recipients=candidate_map.keys())
        self.notify_location_map_change()

    # ---------------------------------------------------------------- leaving

    def leave(self) -> None:
        """Hand all zones and items to the smallest live neighbour."""
        live = [a for a in self.neighbor_zones if a not in self._dead_neighbors]
        if not live:
            self.zones = []
            self.notify_location_map_change()
            return
        heir = min(
            live,
            key=lambda address: sum(z.volume() for z in self.neighbor_zones[address]),
        )
        items: list = []
        if self.extract_items is not None:
            items = self.extract_items(lambda key: True)
        item_bytes = sum(getattr(item, "size_bytes", 100) for item in items)
        self.node.send(
            heir,
            self.PROTOCOL_LEAVE_HANDOFF,
            payload={
                "zones": list(self.zones),
                "items": items,
                "departing": self.address,
                "neighbor_zones": dict(self.neighbor_zones),
            },
            payload_bytes=200 + item_bytes,
        )
        self.zones = []
        self.neighbor_zones = {}
        self.notify_location_map_change()

    def _on_leave_handoff(self, node: Node, message) -> None:
        payload = message.payload
        self.zones.extend(payload["zones"])
        self.neighbor_zones.pop(payload["departing"], None)
        for address, zones in payload["neighbor_zones"].items():
            if address == self.address:
                continue
            if self._adjacent_to_me(zones):
                self.neighbor_zones[address] = zones
        if self.install_items is not None and payload["items"]:
            self.install_items(payload["items"])
        self._broadcast_zone_update(
            extra_recipients=payload["neighbor_zones"].keys()
        )
        self.notify_location_map_change()

    # ----------------------------------------------------- neighbour updates

    def _adjacent_to_me(self, zones: Sequence[Zone]) -> bool:
        return any(
            mine.is_neighbor(theirs) for mine in self.zones for theirs in zones
        )

    def _prune_non_adjacent(self) -> None:
        stale = [
            address
            for address, zones in self.neighbor_zones.items()
            if not self._adjacent_to_me(zones)
        ]
        for address in stale:
            del self.neighbor_zones[address]

    def _broadcast_zone_update(self, extra_recipients=()) -> None:
        recipients = set(self.neighbor_zones) | set(extra_recipients)
        recipients.discard(self.address)
        for address in recipients:
            self.node.send(
                address,
                self.PROTOCOL_NEIGHBOR_UPDATE,
                payload={"address": self.address, "zones": list(self.zones)},
                payload_bytes=100,
            )

    def _on_neighbor_update(self, node: Node, message) -> None:
        payload = message.payload
        address = payload["address"]
        zones = payload["zones"]
        if address == self.address:
            return
        if zones and self._adjacent_to_me(zones):
            self.neighbor_zones[address] = zones
            self._dead_neighbors.discard(address)
        else:
            self.neighbor_zones.pop(address, None)

    # ------------------------------------------------------------ inspection

    def total_volume(self) -> float:
        """Combined volume of the zones owned by this node."""
        return sum(zone.volume() for zone in self.zones)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CanRouting(addr={self.address}, zones={len(self.zones)}, "
            f"neighbors={len(self.neighbor_zones)})"
        )


class CanNetworkBuilder:
    """Construct a stabilised CAN over every node of a network.

    ``build_stabilized`` partitions the unit cube into one zone per node with
    balanced recursive bisection and computes neighbour tables directly, so
    no join-protocol messages are exchanged.  This mirrors the paper's
    methodology of measuring only after the overlay has stabilised.
    """

    def __init__(self, dimensions: int = DEFAULT_DIMENSIONS, seed: int = 0):
        if dimensions <= 0:
            raise ValueError("CAN dimensionality must be positive")
        self.dimensions = dimensions
        self.seed = seed
        self._built_addresses: Optional[List[int]] = None

    # ------------------------------------------------------------- partition

    def partition(self, count: int) -> List[Zone]:
        """Split the unit cube into ``count`` balanced zones."""
        if count <= 0:
            raise ValueError("need at least one node")
        zones: List[Zone] = []

        def _recurse(zone: Zone, remaining: int, depth: int) -> None:
            if remaining == 1:
                zones.append(zone)
                return
            dim = depth % self.dimensions
            lower, upper = zone.split(dim)
            first = (remaining + 1) // 2
            _recurse(lower, first, depth + 1)
            _recurse(upper, remaining - first, depth + 1)

        _recurse(Zone.full_space(self.dimensions), count, 0)
        return zones

    # ------------------------------------------------------------ neighbours

    @staticmethod
    def _overlaps(a_lo: float, a_hi: float, b_lo: float, b_hi: float) -> bool:
        return a_lo < b_hi and b_lo < a_hi

    def neighbor_map(self, zones: List[Zone]) -> Dict[int, List[int]]:
        """Indices of CAN neighbours for each zone (plane-sweep per dimension)."""
        neighbors: Dict[int, set] = {i: set() for i in range(len(zones))}
        for dim in range(self.dimensions):
            hi_at: Dict[float, List[int]] = {}
            lo_at: Dict[float, List[int]] = {}
            for index, zone in enumerate(zones):
                hi_at.setdefault(zone.hi[dim], []).append(index)
                lo_at.setdefault(zone.lo[dim], []).append(index)
            for boundary, left_side in hi_at.items():
                right_side = lo_at.get(boundary, [])
                for i in left_side:
                    zone_i = zones[i]
                    for j in right_side:
                        if i == j:
                            continue
                        zone_j = zones[j]
                        if all(
                            self._overlaps(
                                zone_i.lo[other], zone_i.hi[other],
                                zone_j.lo[other], zone_j.hi[other],
                            )
                            for other in range(self.dimensions)
                            if other != dim
                        ):
                            neighbors[i].add(j)
                            neighbors[j].add(i)
        return {index: sorted(adjacent) for index, adjacent in neighbors.items()}

    # ----------------------------------------------------------------- build

    def build_stabilized(self, network: Network,
                         addresses: Optional[Sequence[int]] = None
                         ) -> Dict[int, CanRouting]:
        """Install a stabilised CAN on ``addresses`` (default: every node)."""
        if addresses is None:
            addresses = list(range(network.num_nodes))
        addresses = list(addresses)
        zones = self.partition(len(addresses))
        adjacency = self.neighbor_map(zones)

        routings: Dict[int, CanRouting] = {}
        for index, address in enumerate(addresses):
            routing = CanRouting(
                network.node(address), dimensions=self.dimensions, seed=self.seed
            )
            routing.zones = [zones[index]]
            routings[address] = routing

        for index, address in enumerate(addresses):
            routing = routings[address]
            routing.neighbor_zones = {
                addresses[j]: [zones[j]] for j in adjacency[index]
            }
        self._built_addresses = addresses
        return routings

    # --------------------------------------------------------- owner lookup

    def locate_index(self, count: int, point: Sequence[float]) -> int:
        """Index (in partition order) of the zone containing ``point``.

        Mirrors the recursion of :meth:`partition` without materialising the
        zones, so the experiment harness can place data directly at its owner
        ("fast load") in O(log n) per key.
        """
        if count <= 0:
            raise ValueError("need at least one node")
        zone = Zone.full_space(self.dimensions)
        offset = 0
        depth = 0
        remaining = count
        while remaining > 1:
            dim = depth % self.dimensions
            lower, upper = zone.split(dim)
            first = (remaining + 1) // 2
            if lower.contains(point):
                zone, remaining = lower, first
            else:
                zone, remaining = upper, remaining - first
                offset += first
            depth += 1
        return offset

    def owner_of_key(self, key: int) -> int:
        """Address of the node owning ``key`` in the last built network."""
        if self._built_addresses is None:
            raise RoutingError("owner_of_key() requires build_stabilized() first")
        point = key_to_unit_coordinates(key, self.dimensions)
        index = self.locate_index(len(self._built_addresses), point)
        return self._built_addresses[index]
