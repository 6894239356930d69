"""Span tracer for the benchmark's traced run.

The tracer patches public entry points of the PIER layers *from outside the
package* (nothing under ``src/`` knows it exists) and records one span per
call: its layer, start, end and parent (the span that was open when it
began).  Spans are folded as they close: a span's duration minus the time
its children covered is added to its layer's self time, and the whole
duration is charged to the parent as child time.  Keeping the open spans on
a stack and folding on close gives the same self times as storing every
span and post-processing them, without holding hundreds of thousands of
span records per query in memory.

Layers and the calls that open their spans:

* ``sim`` — ``Simulator.run``: the event loop and network delivery;
* ``net.send`` — ``SimulatedNetwork.send`` (link admission, coalescing);
* ``dht.route`` — CAN/Chord ``lookup``, ``lookup_batch``, and deliveries of
  ``can.*``/``chord.*``/``dht.*`` messages;
* ``dht.provider`` — ``Provider`` puts and gets, ``get_local``, and
  deliveries of ``prov.*`` messages;
* ``dht.storage`` — ``StorageManager`` reads, writes, scans and expiry;
* ``dht.multicast`` — ``MulticastService`` floods and ``mc.*`` deliveries;
* ``core.executor`` — ``QueryExecutor.submit``/``finish``, ``pier.*``
  deliveries, and the handlers registered through ``on_new_data`` and
  ``on_multicast``;
* ``core.plan`` — ``PierClient.plan`` (parse, optimize, lower);
* ``sketches`` — the HyperLogLog, KLL and top-k sketch methods;
* ``net.wire`` — frame encoding and ``FrameDecoder.feed`` in the client;
* ``remote.rpc`` / ``remote.pump`` — the client's gateway RPCs and its
  result-stream pumping, which is mostly waiting on the socket.

The benchmark opens a root ``op`` span around each timed operation; its self
time is whatever no layer claimed.

Callbacks a layer hands to another layer (lookup completions, get replies,
timers armed through ``Node.schedule``) run in the layer that handed them
over, so a Provider's lookup callback is charged to the Provider even though
the routing layer invokes it.  ``newData`` and multicast handlers are the
executor's dataflow entry points and are charged to ``core.executor``.

Install the tracer *before* building a deployment: several layers bind
handlers at construction time.  :meth:`Tracer.uninstall` restores every
patched attribute.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.client import PierClient
from repro.core.executor import QueryExecutor
from repro.dht.api import RoutingLayer
from repro.dht.can import CanRouting
from repro.dht.chord import ChordRouting
from repro.dht.multicast import MulticastService
from repro.dht.provider import Provider
from repro.dht.storage import StorageManager
from repro.net.network import SimulatedNetwork
from repro.net.node import Node
from repro.net.simulator import Simulator
from repro.net.wire import FrameDecoder
from repro.sketches.hll import HyperLogLog
from repro.sketches.kll import KLLSketch
from repro.sketches.topk import TopKSketch
import repro.remote as remote_module

#: Message-protocol prefix -> layer that handles the delivery.
_PROTOCOL_LAYERS = {
    "can": "dht.route",
    "chord": "dht.route",
    "dht": "dht.route",
    "prov": "dht.provider",
    "mc": "dht.multicast",
    "pier": "core.executor",
}

_SKETCH_METHODS = ("add", "add_hash", "merge", "estimate", "copy",
                   "to_payload", "payload_bound", "point", "quantile", "rank")


class Tracer:
    """Per-layer self time and work counters, gathered by wrapping calls."""

    def __init__(self) -> None:
        #: Totals over everything traced, set-up and checks included.
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        #: Totals over the spans of :meth:`operation` calls only.
        self.op_self_time: Dict[str, float] = defaultdict(float)
        self.op_counts: Dict[str, int] = defaultdict(int)
        self.spans = 0
        #: Open spans, innermost last: ``[layer, start, child_time]``.
        self._stack: List[list] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        #: (provider id, namespace, original handler) -> wrappers handed on.
        self._handler_wrappers: Dict[tuple, List[Callable]] = defaultdict(list)

    # ----------------------------------------------------------------- spans

    def operation(self, fn: Callable[[], Any]) -> Any:
        """Run one benchmark operation as the root ``op`` span.

        What the operation's spans add to the totals is also added to
        :attr:`op_self_time` and :attr:`op_counts`, which therefore leave
        out set-up and the checks that run between operations.
        """
        self_before = dict(self.self_time)
        counts_before = dict(self.counts)
        try:
            return self.call("op", fn)
        finally:
            for layer, value in self.self_time.items():
                self.op_self_time[layer] += value - self_before.get(layer, 0.0)
            for name, value in self.counts.items():
                self.op_counts[name] += value - counts_before.get(name, 0)

    def current_layer(self) -> Optional[str]:
        """Layer of the innermost open span, if any."""
        return self._stack[-1][0] if self._stack else None

    def call(self, layer: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span of ``layer``."""
        stack = self._stack
        frame = [layer, time.perf_counter(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - frame[1]
            stack.pop()
            self.self_time[layer] += duration - frame[2]
            self.spans += 1
            if stack:
                stack[-1][2] += duration

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """A function that runs ``fn`` inside a span of ``layer``."""
        call = self.call

        def traced(*args: Any, **kwargs: Any) -> Any:
            return call(layer, fn, *args, **kwargs)

        return traced

    def inherit(self, fn: Optional[Callable]) -> Optional[Callable]:
        """Wrap a callback to run in the layer that is handing it over."""
        layer = self.current_layer()
        if fn is None or layer is None:
            return fn
        return self.wrap(layer, fn)

    # -------------------------------------------------------------- patching

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _span_method(self, owner: Any, name: str, layer: str,
                     count: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.name`` by a spanned version (``count`` sees args)."""
        original = owner.__dict__[name]
        call = self.call

        def traced(*args: Any, **kwargs: Any) -> Any:
            if count is not None:
                count(*args, **kwargs)
            return call(layer, original, *args, **kwargs)

        self._patch(owner, name, traced)

    def uninstall(self) -> None:
        """Restore every patched attribute (in reverse order)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        self._handler_wrappers.clear()

    def install(self) -> "Tracer":
        """Patch the layers' public entry points; returns ``self``."""
        self._span_method(Simulator, "run", "sim")
        self._install_network()
        self._install_routing()
        self._install_provider()
        self._install_storage()
        self._span_method(QueryExecutor, "submit", "core.executor")
        self._span_method(QueryExecutor, "finish", "core.executor")
        self._span_method(PierClient, "plan", "core.plan")
        for cls in (HyperLogLog, KLLSketch, TopKSketch):
            for name in _SKETCH_METHODS:
                if callable(cls.__dict__.get(name)):
                    self._span_method(cls, name, "sketches")
        self._install_remote()
        return self

    def _install_network(self) -> None:
        counts = self.counts
        def count_send(_network: Any, _message: Any) -> None:
            counts["net.sent"] += 1

        self._span_method(SimulatedNetwork, "send", "net.send", count_send)

        original_deliver = Node.deliver
        layers: Dict[str, str] = {}
        call = self.call

        def deliver(node: Node, message: Any) -> None:
            protocol = message.protocol
            layer = layers.get(protocol)
            if layer is None:
                layer = layers[protocol] = _PROTOCOL_LAYERS.get(
                    protocol.split(".", 1)[0], "net.node")
            if protocol.endswith(("route", "route_batch")):
                counts["dht.route.hops"] += 1
            call(layer, original_deliver, node, message)

        self._patch(Node, "deliver", deliver)

        original_schedule = Node.schedule
        original_periodic = Node.schedule_periodic
        inherit = self.inherit

        def schedule(node: Node, delay: float, callback: Callable, *args: Any):
            return original_schedule(node, delay, inherit(callback), *args)

        def schedule_periodic(node: Node, period: float, callback: Callable,
                              *args: Any, initial_delay: Optional[float] = None):
            return original_periodic(node, period, inherit(callback), *args,
                                     initial_delay=initial_delay)

        self._patch(Node, "schedule", schedule)
        self._patch(Node, "schedule_periodic", schedule_periodic)

    def _install_routing(self) -> None:
        counts = self.counts
        inherit = self.inherit
        call = self.call
        for cls in (CanRouting, ChordRouting):
            original_lookup = cls.__dict__["lookup"]

            def lookup(routing: RoutingLayer, key: int, callback: Callable,
                       *args: Any, _original: Callable = original_lookup,
                       **kwargs: Any) -> None:
                counts["dht.route.keys"] += 1
                return call("dht.route", _original, routing, key,
                            inherit(callback), *args, **kwargs)

            self._patch(cls, "lookup", lookup)

        original_batch = RoutingLayer.lookup_batch

        def lookup_batch(routing: RoutingLayer, keys: Any, callback: Callable,
                         *args: Any, on_unresolved: Optional[Callable] = None,
                         **kwargs: Any) -> None:
            keys = list(keys)
            counts["dht.route.keys"] += len(keys)
            return call("dht.route", original_batch, routing, keys,
                        inherit(callback), *args,
                        on_unresolved=inherit(on_unresolved), **kwargs)

        self._patch(RoutingLayer, "lookup_batch", lookup_batch)

    def _install_provider(self) -> None:
        counts = self.counts
        inherit = self.inherit
        call = self.call

        def count_one_put(*_args: Any, **_kwargs: Any) -> None:
            counts["dht.provider.items_put"] += 1

        def items_counter(position: int) -> Callable[..., None]:
            # Counts the item sequence passed at ``position`` (after self).
            def count(_provider: Any, *args: Any, **_kwargs: Any) -> None:
                counts["dht.provider.items_put"] += len(args[position])

            return count

        for name in ("put", "put_direct"):
            self._span_method(Provider, name, "dht.provider", count_one_put)
        for name, position in (("put_batch", 1), ("put_direct_batch", 2),
                               ("put_chunk", 1)):
            self._span_method(Provider, name, "dht.provider",
                              items_counter(position))

        original_get = Provider.get
        original_get_batch = Provider.get_batch
        original_get_local = Provider.get_local

        def get(provider: Provider, namespace: str, resource_id: Any,
                callback: Callable, *args: Any, **kwargs: Any) -> Any:
            counts["dht.provider.keys_got"] += 1
            return call("dht.provider", original_get, provider, namespace,
                        resource_id, inherit(callback), *args, **kwargs)

        def get_batch(provider: Provider, namespace: str, resource_ids: Any,
                      callback: Callable, *args: Any, **kwargs: Any) -> Any:
            resource_ids = list(resource_ids)
            counts["dht.provider.keys_got"] += len(resource_ids)
            return call("dht.provider", original_get_batch, provider,
                        namespace, resource_ids, inherit(callback),
                        *args, **kwargs)

        def get_local(provider: Provider, namespace: str,
                      resource_id: Any) -> Any:
            items = call("dht.provider", original_get_local, provider,
                         namespace, resource_id)
            counts["dht.provider.get_local_calls"] += 1
            counts["dht.provider.get_local_items"] += len(items)
            return items

        self._patch(Provider, "get", get)
        self._patch(Provider, "get_batch", get_batch)
        self._patch(Provider, "get_local", get_local)

        # The executor's dataflow entry points: handlers registered for
        # newData and multicast arrivals.  The unregister calls must see the
        # wrapper that was actually registered.
        wrappers = self._handler_wrappers

        def counted_handler(handler: Callable) -> Callable:
            def handle(*args: Any, **kwargs: Any) -> Any:
                counts["core.executor.callbacks"] += 1
                return call("core.executor", handler, *args, **kwargs)

            return handle

        for on_name, off_name in (("on_new_data", "off_new_data"),
                                  ("on_multicast", "off_multicast")):
            original_on = Provider.__dict__[on_name]
            original_off = Provider.__dict__[off_name]

            def on(provider: Provider, namespace: str, handler: Callable,
                   _original: Callable = original_on) -> None:
                wrapped = counted_handler(handler)
                wrappers[(id(provider), namespace, handler)].append(wrapped)
                _original(provider, namespace, wrapped)

            def off(provider: Provider, namespace: str, handler: Callable,
                    _original: Callable = original_off) -> bool:
                registered = wrappers.get((id(provider), namespace, handler))
                if not registered:
                    return _original(provider, namespace, handler)
                wrapped = registered.pop(0)
                if not registered:
                    del wrappers[(id(provider), namespace, handler)]
                return _original(provider, namespace, wrapped)

            self._patch(Provider, on_name, on)
            self._patch(Provider, off_name, off)

        def count_flood(_service: Any, *args: Any, **_kwargs: Any) -> None:
            counts["dht.multicast.floods"] += 1

        self._span_method(MulticastService, "multicast", "dht.multicast",
                          count_flood)
        self._span_method(MulticastService, "multicast_batch",
                          "dht.multicast", count_flood)

    def _install_storage(self) -> None:
        counts = self.counts
        def count_store(*_args: Any) -> None:
            counts["dht.storage.items_stored"] += 1

        self._span_method(StorageManager, "store", "dht.storage", count_store)
        original_store_batch = StorageManager.store_batch
        original_retrieve = StorageManager.retrieve
        original_scan = StorageManager.scan
        call = self.call

        def store_batch(storage: StorageManager, items: Any) -> None:
            items = list(items)
            counts["dht.storage.items_stored"] += len(items)
            call("dht.storage", original_store_batch, storage, items)

        def retrieve(storage: StorageManager, namespace: str, resource_id: Any,
                     now: float) -> Any:
            items = call("dht.storage", original_retrieve, storage, namespace,
                         resource_id, now)
            counts["dht.storage.items_scanned"] += len(items)
            return items

        def scan(storage: StorageManager, namespace: str, now: float) -> Any:
            # Only the generator's own steps are storage time; the consumer
            # runs between them in its own layer.
            iterator = original_scan(storage, namespace, now)
            sentinel = object()
            while True:
                item = call("dht.storage", next, iterator, sentinel)
                if item is sentinel:
                    return
                counts["dht.storage.items_scanned"] += 1
                yield item

        self._patch(StorageManager, "store_batch", store_batch)
        self._patch(StorageManager, "retrieve", retrieve)
        self._patch(StorageManager, "scan", scan)
        for name in ("has_instance", "remove", "count", "purge_namespace",
                     "expire_items"):
            self._span_method(StorageManager, name, "dht.storage")

    def _install_remote(self) -> None:
        counts = self.counts
        original_feed = FrameDecoder.feed
        original_encode = remote_module.encode_frame
        call = self.call

        def feed(decoder: FrameDecoder, data: bytes) -> Any:
            frames = call("net.wire", original_feed, decoder, data)
            counts["wire.frames"] += len(frames)
            counts["wire.bytes"] += len(data)
            return frames

        def count_rpc(*_args: Any, **_kwargs: Any) -> None:
            counts["remote.rpc_calls"] += 1

        self._patch(FrameDecoder, "feed", feed)
        self._patch(remote_module, "encode_frame",
                    self.wrap("net.wire", original_encode))
        self._span_method(remote_module.GatewayConnection, "rpc", "remote.rpc",
                          count_rpc)
        self._span_method(remote_module.GatewayConnection, "pump",
                          "remote.pump")
        self._span_method(remote_module.RemotePier, "pump", "remote.pump")
