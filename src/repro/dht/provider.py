"""Provider: the application-facing DHT interface (paper Table 3).

The Provider ties the routing layer and storage manager together and exposes
the calls PIER's query processor is written against:

=============================================  ===================================
``get(namespace, resourceID) → item``          key-based read (may return many)
``put(namespace, resourceID, instanceID, ...)`` soft-state insert with a lifetime
``renew(...) → bool``                          refresh an item's lifetime
``multicast(namespace, resourceID, item)``     deliver to all nodes of a namespace
``lscan(namespace) → iterator``                scan items stored *locally*
``newData(namespace) → item``                  callback on local arrival of new data
=============================================  ===================================

Every ``put``/``get`` follows the paper's two-step pattern: an overlay
``lookup`` resolves the responsible node, then the item or request is sent to
it *directly* (single IP hop), because "the bandwidth savings of not having a
large message hop along the overlay network" outweigh the small chance of the
mapping changing in between.

One request lane
----------------
Every call is a batch.  ``put_batch`` / ``get_batch`` / ``multicast_batch``
resolve all of their keys through one
:meth:`repro.dht.api.RoutingLayer.lookup_batch` (overlay hops shared between
keys routed the same way) and then send **one message per destination**
carrying every item (or request) that destination owns.  The scalar
``put``/``put_direct``/``renew`` are a put batch of one and ``get`` is a get
batch of one, so they share the batch wire protocols, pending table and
failure handling.  Batch messages are charged by their contents (per key
per hop, per item, per requested id), so a batch of one costs what the item
alone does.  Per-item semantics are exact: every stored item fires its own
``newData`` callback and every requested resourceID receives its own reply
callback.

Failure semantics
-----------------
The DHT gives soft-state guarantees only, but a *request* must never hang
forever: every ``get``/``get_batch`` is tracked as one pending entry from
the moment it is issued until each of its resourceIDs is answered, failed
or cancelled.  Four mechanisms bound that wait:

* **unresolved lookups** — keys whose overlay route dead-ends are reported
  back by the routing layer, and their ids complete with an *empty* item
  list at once, so the caller degrades instead of blocking;
* **transport bounces** — a request sent to a dead owner is reported back by
  the network one round trip later; the Provider retries it once through a
  fresh overlay lookup (the routing layer routes around detected failures)
  and, when retries are exhausted, completes its ids empty;
* **per-request timeouts** — with ``request_timeout_s`` set (churn
  deployments), a timer armed at issue time catches what neither of the
  above can see (a request or reply lost in transit);
* **query-scoped cancellation** — callers may tag requests with a ``scope``
  (the executor uses the query id) and sweep everything still pending with
  :meth:`Provider.cancel_pending` at query teardown.

Puts are not retried: renewal repairs lost soft state.  The exception is a
:meth:`Provider.put_chunk` wave (query fragments, never renewed) whose keys
the overlay cannot route; those fragments move to fallback keys.

Per-scope delivery accounting (issued / completed / failed / pending, with
``issued == completed + failed + pending`` at every instant, and the put
fragments bounced off dead nodes) backs the client's query completeness
report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.dht.api import RoutingLayer
from repro.dht.multicast import MulticastHandler, MulticastService
from repro.dht.naming import hash_key
from repro.dht.softstate import RenewalAgent
from repro.dht.storage import StorageManager, StoredItem
from repro.net.node import Node

#: Default soft-state lifetime (seconds) when the caller does not specify one.
DEFAULT_LIFETIME_S = 300.0
#: Default wire size of an item when the caller does not specify one.
DEFAULT_ITEM_BYTES = 100
#: How often each node sweeps expired soft state out of its storage manager.
DEFAULT_SWEEP_PERIOD_S = 5.0
#: Fallback placements a :meth:`Provider.put_chunk` fragment tries when the
#: overlay cannot route its key (a confirmed-dead node's zone is a hole no
#: live node owns).  Rehash fragments live only as long as their query, so
#: no renewal repairs them; every publisher derives the same fallback keys
#: from the resourceID, so both sides of a join still meet at a live node.
#: Each fallback key lands in the hole again with the hole's share of the
#: key space (a quarter when one of four nodes dies), so a single fallback
#: still loses a visible share of fragments; a second makes that rare.
FRAGMENT_FALLBACKS = 2

#: Callback type for ``get``: receives a list of :class:`DHTItem`.
GetCallback = Callable[[List["DHTItem"]], None]
#: Callback type for ``get_batch``: receives (resource_id, items) per key.
BatchGetCallback = Callable[[Any, List["DHTItem"]], None]
#: Callback type for ``newData``: receives the newly stored :class:`DHTItem`.
NewDataCallback = Callable[["DHTItem"], None]

#: A ``put_batch`` entry: ``(resource_id, value)`` with optional trailing
#: ``instance_id`` and ``item_bytes`` elements.
PutEntry = Sequence


@dataclass(frozen=True)
class DHTItem:
    """Read-only view of a stored item returned by ``get``/``lscan``."""

    namespace: str
    resource_id: Any
    instance_id: int
    value: Any
    publisher: Optional[int] = None
    size_bytes: int = DEFAULT_ITEM_BYTES


@dataclass
class _PendingGet:
    """Origin-side bookkeeping for one issued ``get``/``get_batch`` request.

    ``resource_ids`` holds the ids still outstanding, in issue order (a dict
    used as an ordered set, so retries and failures replay deterministically):
    an id leaves it when its owner answers, when it fails, or when a bounce
    moves it into a retry request.  The entry is released once it is empty.
    ``attempts_left`` bounds retry-after-reroute; ``timer`` is the optional
    per-request timeout, armed at issue time.
    """

    callback: BatchGetCallback
    namespace: str
    resource_ids: Dict[Any, None]
    scope: Any = None
    attempts_left: int = 0
    request_bytes: int = 60
    timer: Any = None


def _new_scope_counters() -> Dict[str, int]:
    # issued == completed + failed + pending at any instant; a cancel sweep
    # releases the whole entry rather than keeping a tally for a dead query.
    return {"issued": 0, "completed": 0, "failed": 0}


class Provider:
    """Per-node Provider instance."""

    SERVICE_NAME = "dht.provider"
    PROTOCOL_PUT_BATCH = "prov.put_batch"
    PROTOCOL_PUT_CHUNK = "prov.put_chunk"
    PROTOCOL_GET_BATCH = "prov.get_batch"
    PROTOCOL_GET_BATCH_REPLY = "prov.get_batch_reply"

    def __init__(self, node: Node, routing: RoutingLayer,
                 sweep_period_s: float = DEFAULT_SWEEP_PERIOD_S,
                 instance_seed: int = 0,
                 request_timeout_s: Optional[float] = None,
                 request_retries: int = 1):
        self.node = node
        self.routing = routing
        self.storage = StorageManager()
        #: Per-request timeout for ``get``/``get_batch`` (``None`` disables
        #: the timer lane; transport bounces still bound dead-owner waits).
        self.request_timeout_s = request_timeout_s
        #: Retries after a reroute before a request completes empty.
        self.request_retries = max(0, request_retries)
        self.multicast_service = MulticastService(node, routing)
        self._new_data_callbacks: Dict[str, List[NewDataCallback]] = {}
        self._pending_gets: Dict[int, _PendingGet] = {}
        self._get_ids = itertools.count(1)
        self._instance_ids = itertools.count(instance_seed * 1_000_003 + 1)
        #: Per-scope (query) get accounting: issued/completed/failed.
        self._scope_counters: Dict[Any, Dict[str, int]] = {}
        #: Put fragments bounced off dead destinations, per namespace.
        self.put_bounces_by_namespace: Dict[str, int] = {}
        node.services[self.SERVICE_NAME] = self

        node.register_handler(self.PROTOCOL_PUT_BATCH, self._on_put_batch)
        node.register_handler(self.PROTOCOL_PUT_CHUNK, self._on_put_chunk)
        node.register_handler(self.PROTOCOL_GET_BATCH, self._on_get_batch)
        node.register_handler(self.PROTOCOL_GET_BATCH_REPLY,
                              self._on_get_batch_reply)
        node.register_bounce_handler(self.PROTOCOL_GET_BATCH,
                                     self._on_get_batch_bounce)
        node.register_bounce_handler(self.PROTOCOL_PUT_BATCH,
                                     self._on_put_batch_bounce)
        node.register_bounce_handler(self.PROTOCOL_PUT_CHUNK,
                                     self._on_put_chunk_bounce)

        # Item migration hooks used by the routing layer on join/leave.
        routing.extract_items = self.storage.extract
        routing.install_items = self.storage.install

        #: Handle of the periodic expiry sweep, cancelled by :meth:`close`.
        self._sweep_timer = None
        if sweep_period_s > 0:
            self._sweep_timer = node.schedule_periodic(sweep_period_s,
                                                       self._sweep)

    # --------------------------------------------------------------- helpers

    @classmethod
    def of(cls, node: Node) -> "Provider":
        """Fetch the Provider installed on ``node``."""
        return node.services[cls.SERVICE_NAME]

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.node.now

    def next_instance_id(self) -> int:
        """A fresh instanceID unique to this node."""
        return next(self._instance_ids)

    def _sweep(self) -> None:
        self.storage.expire_items(self.now)

    # ------------------------------------------------------------------- put

    def put(self, namespace: str, resource_id: Any, instance_id: Optional[int],
            value: Any, lifetime: float = DEFAULT_LIFETIME_S,
            item_bytes: int = DEFAULT_ITEM_BYTES) -> int:
        """Publish an item into the DHT (paper Table 3 ``put``).

        A put batch of one.  Returns the instanceID used (freshly generated
        when ``None`` is passed, matching the paper's "randomly assigned by
        the user application").
        """
        request, instance_id = self._build_put_request(
            namespace, resource_id, instance_id, value, lifetime, item_bytes
        )
        self._route_put_requests(namespace, [request])
        return instance_id

    def _build_put_request(self, namespace: str, resource_id: Any,
                           instance_id: Optional[int], value: Any,
                           lifetime: float, item_bytes: int) -> Tuple[dict, int]:
        if instance_id is None:
            instance_id = self.next_instance_id()
        request = {
            "namespace": namespace,
            "resource_id": resource_id,
            "instance_id": instance_id,
            "value": value,
            "lifetime": lifetime,
            "publisher": self.node.address,
            "size_bytes": item_bytes,
            "key": hash_key(namespace, resource_id),
        }
        return request, instance_id

    def put_direct(self, target: int, namespace: str, resource_id: Any,
                   instance_id: Optional[int], value: Any,
                   lifetime: float = DEFAULT_LIFETIME_S,
                   item_bytes: int = DEFAULT_ITEM_BYTES,
                   charge_lookup: bool = True) -> int:
        """Publish an item onto a *designated* node instead of the key's owner.

        Used for queries that confine their temporary state to a fixed set of
        computation nodes (the paper's Figure 3 experiments with 1/2/8/16
        computation nodes).  When ``charge_lookup`` is true an overlay lookup
        of the item's key is still performed first, so the latency cost of
        resolving a destination matches the ordinary ``put`` path.
        """
        request, instance_id = self._build_put_request(
            namespace, resource_id, instance_id, value, lifetime, item_bytes
        )
        self._route_put_requests(namespace, [request], target=target,
                                 charge_lookup=charge_lookup)
        return instance_id

    def renew(self, namespace: str, resource_id: Any, instance_id: int,
              value: Any, lifetime: float = DEFAULT_LIFETIME_S,
              item_bytes: int = DEFAULT_ITEM_BYTES) -> bool:
        """Refresh an item's lifetime (paper Table 3 ``renew``).

        Implemented as an idempotent re-``put`` of the same triple; returns
        True (best-effort semantics — the DHT gives no stronger guarantee).
        """
        self.put(namespace, resource_id, instance_id, value, lifetime, item_bytes)
        return True

    def _store_request(self, request: dict) -> None:
        item = StoredItem(
            namespace=request["namespace"],
            resource_id=request["resource_id"],
            instance_id=request["instance_id"],
            value=request["value"],
            key=request["key"],
            expires_at=self.now + request["lifetime"],
            stored_at=self.now,
            publisher=request["publisher"],
            size_bytes=request["size_bytes"],
        )
        # ``newData`` fires only for triples not already live; the indexed
        # membership check replaces a retrieve() that materialised every
        # instance of the resource on each put.
        is_new = not self.storage.has_instance(
            item.namespace, item.resource_id, item.instance_id, self.now
        )
        self.storage.store(item)
        if is_new:
            view = self._view(item)
            for callback in self._new_data_callbacks.get(item.namespace, ()):
                callback(view)

    # ------------------------------------------------------------- put_batch

    def _normalize_put_entries(self, namespace: str, entries: Sequence[PutEntry],
                               lifetime: float, item_bytes: int
                               ) -> Tuple[List[dict], List[int]]:
        """Expand ``(resource_id, value[, instance_id[, item_bytes]])`` entries."""
        requests: List[dict] = []
        instance_ids: List[int] = []
        for entry in entries:
            resource_id, value = entry[0], entry[1]
            instance_id = entry[2] if len(entry) > 2 else None
            entry_bytes = entry[3] if len(entry) > 3 else item_bytes
            request, instance_id = self._build_put_request(
                namespace, resource_id, instance_id, value, lifetime, entry_bytes
            )
            requests.append(request)
            instance_ids.append(instance_id)
        return requests, instance_ids

    def put_batch(self, namespace: str, entries: Sequence[PutEntry],
                  lifetime: float = DEFAULT_LIFETIME_S,
                  item_bytes: int = DEFAULT_ITEM_BYTES) -> List[int]:
        """Publish many items with one routed resolution and one message per owner.

        ``entries`` is a sequence of ``(resource_id, value)`` tuples with
        optional trailing ``instance_id`` and ``item_bytes`` elements.
        Returns the instanceIDs used, aligned with ``entries``.  Items whose
        keys share an owner travel in a single ``prov.put_batch`` message
        whose payload is the sum of the item sizes; every stored item still
        fires its own ``newData`` callback on arrival.
        """
        requests, instance_ids = self._normalize_put_entries(
            namespace, entries, lifetime, item_bytes
        )
        self._route_put_requests(namespace, requests)
        return instance_ids

    def put_direct_batch(self, target: int, namespace: str,
                         entries: Sequence[PutEntry],
                         lifetime: float = DEFAULT_LIFETIME_S,
                         item_bytes: int = DEFAULT_ITEM_BYTES,
                         charge_lookup: bool = True) -> List[int]:
        """Batch companion of :meth:`put_direct`: everything goes to ``target``.

        With ``charge_lookup`` the keys are still resolved through the
        overlay first (one batched resolution), so the latency cost matches
        the ordinary ``put_batch`` path; the items themselves are shipped to
        ``target`` in one message per resolution wave.
        """
        requests, instance_ids = self._normalize_put_entries(
            namespace, entries, lifetime, item_bytes
        )
        self._route_put_requests(namespace, requests, target=target,
                                 charge_lookup=charge_lookup)
        return instance_ids

    def _route_put_requests(self, namespace: str, requests: List[dict],
                            target: Optional[int] = None,
                            charge_lookup: bool = True) -> None:
        """The put lane behind every put call: resolve, group, ship.

        Requests go to their keys' owners, or all to ``target`` when one is
        given (resolved first only with ``charge_lookup``).  Keys the overlay
        cannot route count as bounced fragments of ``namespace``.
        """
        if not requests:
            return
        if target is not None and not charge_lookup:
            self._send_put_requests(target, requests)
            return
        requests_by_key: Dict[int, List[dict]] = {}
        for request in requests:
            requests_by_key.setdefault(request["key"], []).append(request)

        def _deliver(owner: int, keys: List[int]) -> None:
            batch = [request for key in keys for request in requests_by_key[key]]
            self._send_put_requests(owner if target is None else target, batch)

        self.routing.lookup_batch(
            list(requests_by_key), _deliver,
            on_unresolved=lambda keys: self._count_unroutable_puts(
                namespace, requests_by_key, keys),
        )

    def _count_unroutable_puts(self, namespace: str,
                               requests_by_key: Dict[int, List[dict]],
                               keys: List[int]) -> None:
        """Put keys the overlay could not route: their fragments are lost.

        Soft-state semantics (renewal repairs them), but the loss must show
        up in the namespace's counter or a query's completeness report would
        read ``complete`` while rehash fragments silently vanished.
        """
        lost = sum(len(requests_by_key[key]) for key in keys)
        if lost:
            self._record_put_bounce(namespace, lost)

    def _send_put_requests(self, destination: int, requests: List[dict]) -> None:
        """Store locally or ship a group of put requests to one destination."""
        if destination == self.node.address:
            for request in requests:
                self._store_request(request)
            return
        total_bytes = sum(request["size_bytes"] for request in requests)
        self.node.send(destination, self.PROTOCOL_PUT_BATCH,
                       payload={"requests": requests},
                       payload_bytes=total_bytes)

    def _on_put_batch(self, node: Node, message) -> None:
        for request in message.payload["requests"]:
            self._store_request(request)

    def _record_put_bounce(self, namespace: str, count: int) -> None:
        self.put_bounces_by_namespace[namespace] = (
            self.put_bounces_by_namespace.get(namespace, 0) + count
        )

    def _on_put_batch_bounce(self, node: Node, message) -> None:
        """A put's destination was dead: its fragments are lost (soft state).

        Publishers do not retry — renewal is the repair mechanism — but the
        loss is counted per namespace so query completeness reports can
        attribute lost temporary fragments to their query.
        """
        by_namespace: Dict[str, int] = {}
        for request in message.payload["requests"]:
            by_namespace[request["namespace"]] = (
                by_namespace.get(request["namespace"], 0) + 1
            )
        for namespace, count in by_namespace.items():
            self._record_put_bounce(namespace, count)

    # ------------------------------------------------------------- put_chunk

    def put_chunk(self, namespace: str, resource_ids: Sequence[Any],
                  values: Sequence[Any],
                  lifetime: float = DEFAULT_LIFETIME_S,
                  item_bytes: int = DEFAULT_ITEM_BYTES,
                  target: Optional[int] = None) -> List[int]:
        """Parallel-array companion of :meth:`put_batch`: one namespace, one
        lifetime, one per-item size — the shape of a rehash wave.

        Items whose keys share an owner travel as *slices* of parallel
        ``resource_ids``/``values``/``instance_ids`` arrays in a single
        ``prov.put_chunk`` message instead of a list of per-item request
        dicts; the receiver expands the slice back into per-item stores, so
        ``newData`` still fires once per stored triple.  Keys are grouped in
        first-occurrence order, matching :meth:`put_batch` delivery order.
        ``target`` confines all items to a designated computation node (keys
        are still resolved through the overlay so latency accounting matches
        the owner-routed path).
        """
        count = len(resource_ids)
        instance_ids = [self.next_instance_id() for _ in range(count)]
        if not count:
            return instance_ids
        keys = [hash_key(namespace, rid) for rid in resource_ids]
        self._route_chunk(namespace, resource_ids, values, instance_ids, keys,
                          range(count), lifetime, item_bytes, target, attempt=0)
        return instance_ids

    def _route_chunk(self, namespace: str, resource_ids: Sequence[Any],
                     values: Sequence[Any], instance_ids: List[int],
                     keys: List[int], indices: Iterable[int], lifetime: float,
                     item_bytes: int, target: Optional[int],
                     attempt: int) -> None:
        """Resolve the owners of ``indices`` and ship one slice per owner.

        Keys the overlay cannot route (their zone belongs to a dead node)
        move to their next fallback key, up to :data:`FRAGMENT_FALLBACKS`
        times; only fragments unroutable at the last fallback count as
        lost.  Items confined to a ``target`` have no fallback.
        """
        indices_by_key: Dict[int, List[int]] = {}
        for i in indices:
            indices_by_key.setdefault(keys[i], []).append(i)

        def _deliver(owner: int, resolved: List[int]) -> None:
            chosen = [i for key in resolved for i in indices_by_key[key]]
            destination = owner if target is None else target
            self._send_put_chunk(destination, namespace, resource_ids, values,
                                 instance_ids, keys, chosen, lifetime,
                                 item_bytes)

        def _unresolved(lost_keys: List[int]) -> None:
            lost = [i for key in lost_keys for i in indices_by_key[key]]
            if target is not None or attempt == FRAGMENT_FALLBACKS:
                self._record_put_bounce(namespace, len(lost))
                return
            fallback = list(keys)
            for i in lost:
                fallback[i] = hash_key(namespace,
                                       ("fallback", attempt + 1, resource_ids[i]))
            self._route_chunk(namespace, resource_ids, values, instance_ids,
                              fallback, lost, lifetime, item_bytes, None,
                              attempt + 1)

        self.routing.lookup_batch(list(indices_by_key), _deliver,
                                  on_unresolved=_unresolved)

    def _send_put_chunk(self, destination: int, namespace: str,
                        resource_ids: Sequence[Any], values: Sequence[Any],
                        instance_ids: List[int], keys: List[int],
                        indices: List[int], lifetime: float,
                        item_bytes: int) -> None:
        payload = {
            "namespace": namespace,
            "resource_ids": [resource_ids[i] for i in indices],
            "values": [values[i] for i in indices],
            "instance_ids": [instance_ids[i] for i in indices],
            "keys": [keys[i] for i in indices],
            "lifetime": lifetime,
            "publisher": self.node.address,
            "item_bytes": item_bytes,
        }
        if destination == self.node.address:
            self._store_chunk(payload)
            return
        self.node.send(destination, self.PROTOCOL_PUT_CHUNK, payload=payload,
                       payload_bytes=item_bytes * len(indices))

    def _store_chunk(self, payload: dict) -> None:
        expires_at = self.now + payload["lifetime"]
        stored_at = self.now
        namespace = payload["namespace"]
        publisher = payload["publisher"]
        item_bytes = payload["item_bytes"]
        callbacks = self._new_data_callbacks.get(namespace, ())
        for resource_id, value, instance_id, key in zip(
                payload["resource_ids"], payload["values"],
                payload["instance_ids"], payload["keys"]):
            item = StoredItem(
                namespace=namespace,
                resource_id=resource_id,
                instance_id=instance_id,
                value=value,
                key=key,
                expires_at=expires_at,
                stored_at=stored_at,
                publisher=publisher,
                size_bytes=item_bytes,
            )
            is_new = not self.storage.has_instance(
                namespace, resource_id, instance_id, self.now
            )
            self.storage.store(item)
            if is_new and callbacks:
                view = self._view(item)
                for callback in callbacks:
                    callback(view)

    def _on_put_chunk(self, node: Node, message) -> None:
        self._store_chunk(message.payload)

    def _on_put_chunk_bounce(self, node: Node, message) -> None:
        payload = message.payload
        self._record_put_bounce(payload["namespace"],
                                len(payload["resource_ids"]))

    # ------------------------------------------------------------------- get

    def get(self, namespace: str, resource_id: Any, callback: GetCallback,
            request_bytes: int = 60, scope: Any = None) -> None:
        """Fetch all items with the given namespace/resourceID (``get``).

        A get batch of one (see :meth:`get_batch` for the failure handling
        and the ``scope`` accounting); ``callback(items)`` fires once.
        """
        self._issue_get(namespace, (resource_id,),
                        lambda _rid, items: callback(items), request_bytes,
                        scope, attempts_left=None)

    def get_batch(self, namespace: str, resource_ids: Sequence[Any],
                  callback: BatchGetCallback, request_bytes: int = 60,
                  scope: Any = None) -> None:
        """Fetch the items of many resourceIDs with one request per owner.

        ``callback(resource_id, items)`` fires once per distinct resourceID.
        IDs owned by the same node share a single ``prov.get_batch`` request
        and a single reply; locally-owned IDs resolve synchronously.

        The request is tracked from issue time until every id is answered,
        failed or cancelled.  Ids whose routed lookups dead-end complete
        empty as soon as the routing layer reports them unresolved; a
        request bounced off a dead owner (or, with ``request_timeout_s``
        set, timed out) is retried through a fresh lookup up to
        ``request_retries`` times and then completes its ids empty —
        callers degrade, they never hang.  ``scope`` tags the request for
        :meth:`cancel_pending` and the per-scope delivery accounting
        (queries pass their query id).
        """
        self._issue_get(namespace, resource_ids, callback, request_bytes,
                        scope, attempts_left=None)

    def _issue_get(self, namespace: str, resource_ids: Iterable[Any],
                   callback: BatchGetCallback, request_bytes: int, scope: Any,
                   attempts_left: Optional[int]) -> None:
        """The get lane behind :meth:`get`, :meth:`get_batch` and retries.

        ``attempts_left`` is ``None`` for a fresh request (counted as issued,
        with the full retry budget) and the remaining budget for a retry.
        """
        outstanding = dict.fromkeys(resource_ids)
        if not outstanding:
            return
        if attempts_left is None:
            attempts_left = self.request_retries
            self._count(scope, "issued", len(outstanding))
        request_id = next(self._get_ids)
        entry = _PendingGet(
            callback=callback, namespace=namespace, resource_ids=outstanding,
            scope=scope, attempts_left=attempts_left,
            request_bytes=request_bytes,
        )
        self._pending_gets[request_id] = entry
        rids_by_key: Dict[int, List[Any]] = {}
        for resource_id in outstanding:
            key = hash_key(namespace, resource_id)
            rids_by_key.setdefault(key, []).append(resource_id)

        def _ask(owner: int, keys: List[int]) -> None:
            if self._pending_gets.get(request_id) is not entry:
                return  # timed out or cancelled while the lookup was in flight
            rids = [rid for key in keys for rid in rids_by_key[key]]
            if owner == self.node.address:
                self._answer(request_id, entry, {
                    rid: self.get_local(namespace, rid) for rid in rids
                })
                return
            self.node.send(
                owner,
                self.PROTOCOL_GET_BATCH,
                payload={
                    "namespace": namespace,
                    "resource_ids": rids,
                    "origin": self.node.address,
                    "request_id": request_id,
                },
                payload_bytes=request_bytes + 8 * (len(rids) - 1),
            )

        def _unresolved(keys: List[int]) -> None:
            if self._pending_gets.get(request_id) is not entry:
                return
            # The overlay could not route these keys at all (dead-end): fail
            # their ids immediately instead of leaving the caller waiting.
            self._fail(entry, self._take(
                request_id, entry,
                [rid for key in keys for rid in rids_by_key[key]]))

        self.routing.lookup_batch(list(rids_by_key), _ask,
                                  on_unresolved=_unresolved)
        if self._pending_gets.get(request_id) is entry:
            # Not answered by locally-owned keys alone: bound the wait.
            self._arm_timeout(entry, request_id)

    def get_local(self, namespace: str, resource_id: Any) -> List[DHTItem]:
        """Items for ``(namespace, resourceID)`` stored on this node."""
        return [
            self._view(item)
            for item in self.storage.retrieve(namespace, resource_id, self.now)
        ]

    def _on_get_batch(self, node: Node, message) -> None:
        payload = message.payload
        namespace = payload["namespace"]
        results = [
            {"resource_id": rid, "items": self.get_local(namespace, rid)}
            for rid in payload["resource_ids"]
        ]
        reply_bytes = sum(
            item.size_bytes for result in results for item in result["items"]
        ) or 40
        node.send(
            payload["origin"],
            self.PROTOCOL_GET_BATCH_REPLY,
            payload={"request_id": payload["request_id"], "results": results},
            payload_bytes=reply_bytes,
        )

    def _on_get_batch_reply(self, node: Node, message) -> None:
        payload = message.payload
        request_id = payload["request_id"]
        entry = self._pending_gets.get(request_id)
        if entry is None:
            return  # already failed/cancelled; drop the late reply
        self._answer(request_id, entry, {
            result["resource_id"]: result["items"]
            for result in payload["results"]
        })

    # ------------------------------------------------- pending-get lifecycle

    def _count(self, scope: Any, event: str, amount: int = 1) -> None:
        """Bump one per-scope accounting counter (no-op for unscoped calls)."""
        if scope is None:
            return
        counters = self._scope_counters.get(scope)
        if counters is None:
            counters = self._scope_counters[scope] = _new_scope_counters()
        counters[event] += amount

    def _arm_timeout(self, entry: _PendingGet, request_id: int) -> None:
        if self.request_timeout_s is None:
            return
        entry.timer = self.node.schedule(
            self.request_timeout_s, self._on_get_timeout, request_id
        )

    @staticmethod
    def _disarm(entry: _PendingGet) -> None:
        if entry.timer is not None:
            entry.timer.cancel()
            entry.timer = None

    def _take(self, request_id: int, entry: _PendingGet,
              resource_ids: Iterable[Any]) -> List[Any]:
        """Remove ``resource_ids`` from the entry's outstanding ids.

        Returns the ones that were still outstanding; the entry is released
        (and its timer cancelled) once nothing is left outstanding.
        """
        outstanding = entry.resource_ids
        taken = [rid for rid in resource_ids if rid in outstanding]
        for rid in taken:
            del outstanding[rid]
        if not outstanding:
            del self._pending_gets[request_id]
            self._disarm(entry)
        return taken

    def _answer(self, request_id: int, entry: _PendingGet,
                results: Dict[Any, List[DHTItem]]) -> None:
        """Deliver an owner's answers for the ids still outstanding."""
        answered = self._take(request_id, entry, results)
        self._count(entry.scope, "completed", len(answered))
        for resource_id in answered:
            entry.callback(resource_id, results[resource_id])

    def _fail(self, entry: _PendingGet, resource_ids: List[Any]) -> None:
        """Complete unreachable ids with empty results (degrade)."""
        self._count(entry.scope, "failed", len(resource_ids))
        for resource_id in resource_ids:
            entry.callback(resource_id, [])

    def _on_get_timeout(self, request_id: int) -> None:
        entry = self._pending_gets.get(request_id)
        if entry is not None:
            entry.timer = None  # this is the timer firing
            self._retry_or_fail(request_id, entry, list(entry.resource_ids))

    def _on_get_batch_bounce(self, node: Node, message) -> None:
        request_id = message.payload["request_id"]
        entry = self._pending_gets.get(request_id)
        if entry is not None:
            self._retry_or_fail(request_id, entry,
                                message.payload["resource_ids"])

    def _retry_or_fail(self, request_id: int, entry: _PendingGet,
                       resource_ids: List[Any]) -> None:
        """These ids' owner is unreachable: reroute them or complete empty."""
        resource_ids = self._take(request_id, entry, resource_ids)
        if not resource_ids:
            return
        if entry.attempts_left > 0:
            # Retry through a fresh overlay resolution: the routing layer has
            # marked the bounced hop dead, so the new lookup reroutes.
            self._issue_get(entry.namespace, resource_ids, entry.callback,
                            entry.request_bytes, entry.scope,
                            attempts_left=entry.attempts_left - 1)
            return
        self._fail(entry, resource_ids)

    def cancel_pending(self, scope: Any) -> int:
        """Drop every pending get tagged with ``scope`` without calling back.

        Swept at query teardown so cancelled queries do not accumulate
        callbacks (or fire them into dead dataflows).  Requests whose
        lookups are still routing are dropped too: their owners' answers
        find no entry.  Also releases the scope's accounting entry; returns
        the number of resourceIDs dropped.
        """
        stale = [request_id for request_id, entry in self._pending_gets.items()
                 if entry.scope == scope]
        dropped = 0
        for request_id in stale:
            entry = self._pending_gets.pop(request_id)
            self._disarm(entry)
            dropped += len(entry.resource_ids)
        self._scope_counters.pop(scope, None)
        return dropped

    def pending_get_count(self, scope: Any = None) -> int:
        """Number of resourceIDs awaiting an answer (optionally for one scope)."""
        return sum(len(entry.resource_ids)
                   for entry in self._pending_gets.values()
                   if scope is None or entry.scope == scope)

    def scope_report(self, scope: Any) -> Dict[str, int]:
        """Accounting snapshot for one scope, including the pending count."""
        report = dict(self._scope_counters.get(scope) or _new_scope_counters())
        report["pending"] = self.pending_get_count(scope)
        return report

    # ------------------------------------------------------------- local ops

    def lscan(self, namespace: str) -> Iterator[DHTItem]:
        """Iterate over the items of ``namespace`` stored locally (``lscan``)."""
        for item in self.storage.scan(namespace, self.now):
            yield self._view(item)

    def on_new_data(self, namespace: str, callback: NewDataCallback) -> None:
        """Register a ``newData`` callback for a namespace (paper Table 3)."""
        self._new_data_callbacks.setdefault(namespace, []).append(callback)

    def off_new_data(self, namespace: str, callback: NewDataCallback) -> bool:
        """Unregister a previously registered ``newData`` callback.

        Queries are soft state: when one finishes or is cancelled, its probes
        must come off so the namespace stops invoking dead dataflows (and so
        long simulations do not accumulate callbacks).  Returns whether the
        callback was found.
        """
        callbacks = self._new_data_callbacks.get(namespace)
        if not callbacks or callback not in callbacks:
            return False
        callbacks.remove(callback)
        if not callbacks:
            del self._new_data_callbacks[namespace]
        return True

    def new_data_callback_count(self, namespace: str) -> int:
        """Number of live ``newData`` callbacks for ``namespace`` (tests/ops)."""
        return len(self._new_data_callbacks.get(namespace, ()))

    def purge_namespace(self, namespace: str) -> int:
        """Drop every locally stored item of ``namespace``; returns the count.

        Used by query teardown to release temporary rehash/filter/partial
        state immediately instead of waiting for soft-state expiry.  The
        namespace's put-bounce counter is released with it.
        """
        self.put_bounces_by_namespace.pop(namespace, None)
        return self.storage.purge_namespace(namespace)

    # -------------------------------------------------------------- multicast

    def multicast(self, namespace: str, resource_id: Any, item: Any,
                  payload_bytes: int = 200) -> int:
        """Deliver ``item`` to every node serving ``namespace`` (``multicast``)."""
        return self.multicast_service.multicast(
            namespace, resource_id, item, payload_bytes=payload_bytes
        )

    def multicast_batch(self, entries: Sequence[Sequence],
                        payload_bytes: int = 200) -> int:
        """Deliver several (namespace, resourceID, item) entries in one flood.

        Each entry may carry an optional fourth element with its own wire
        size; ``payload_bytes`` is the per-entry default.  The single flood
        is charged the sum of the entry sizes.
        """
        if not entries:
            raise ValueError("multicast_batch needs at least one entry")
        normalized = [
            (entry[0], entry[1], entry[2],
             entry[3] if len(entry) > 3 else payload_bytes)
            for entry in entries
        ]
        return self.multicast_service.multicast_batch(
            [(namespace, resource_id, item)
             for namespace, resource_id, item, _bytes in normalized],
            payload_bytes=sum(entry_bytes for _ns, _rid, _item, entry_bytes
                              in normalized),
        )

    def on_multicast(self, namespace: str, handler: MulticastHandler) -> None:
        """Register a handler invoked when a multicast for ``namespace`` arrives."""
        self.multicast_service.subscribe(namespace, handler)

    def off_multicast(self, namespace: str, handler: MulticastHandler) -> bool:
        """Unregister a handler added by :meth:`on_multicast`.

        Returns whether the handler was still registered.  Every
        ``on_multicast`` needs a matching ``off_multicast`` on the query
        teardown path, or the group subscription (and everything the
        handler closes over) outlives the query.
        """
        return self.multicast_service.unsubscribe(namespace, handler)

    # ----------------------------------------------------------------- admin

    def close(self) -> None:
        """Release node-level resources on shutdown/departure.

        Cancels the periodic storage sweep so a drained node (graceful
        leave, cluster shutdown) does not keep a live timer — on the real
        transport that timer would hold the event loop open.
        """
        if self._sweep_timer is not None:
            self._sweep_timer.cancel()
            self._sweep_timer = None

    def rebind_routing(self, routing: RoutingLayer) -> None:
        """Point this Provider at a rebuilt routing layer (live membership).

        When a real node folds a join/leave into its overlay it rebuilds
        the deterministic routing tables over the new address list and
        rebinds the fresh layer onto the same node; this swaps the
        Provider's (and its multicast service's) routing reference and
        re-wires the item-migration hooks onto the new layer.  Pending
        gets keep their bookkeeping — their replies, bounces and timeout
        timers all resolve through the node, not the routing layer.
        """
        self.routing = routing
        self.multicast_service.routing = routing
        routing.extract_items = self.storage.extract
        routing.install_items = self.storage.install

    def make_renewal_agent(self, refresh_period: float) -> RenewalAgent:
        """Create (but do not start) a renewal agent bound to this Provider."""
        return RenewalAgent(provider=self, refresh_period=refresh_period)

    def handle_node_failure(self) -> int:
        """Model this node's process death (called when the node fails).

        All locally stored soft state is dropped and every in-flight get this
        node originated is forgotten (their timers cancelled) — a failed
        process has no callbacks to deliver to.  Returns the number of stored
        items dropped.
        """
        for entry in self._pending_gets.values():
            self._disarm(entry)
        self._pending_gets.clear()
        self._scope_counters.clear()
        self.put_bounces_by_namespace.clear()
        return self.storage.clear()

    def _view(self, item: StoredItem) -> DHTItem:
        return DHTItem(
            namespace=item.namespace,
            resource_id=item.resource_id,
            instance_id=item.instance_id,
            value=item.value,
            publisher=item.publisher,
            size_bytes=item.size_bytes,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Provider(node={self.node.address}, items={len(self.storage)})"
