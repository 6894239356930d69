"""Tests for the batched message path: DHT batch APIs and network coalescing.

The contract under test: batched operations are *semantically identical* to
the same items issued one scalar call at a time (each a batch of one) —
same stored items, same ``newData`` callbacks, same ``get`` results — while
collapsing per-item messages into per-destination messages.  Covered for
both CAN and Chord, including a node failing mid-batch.  ``put_chunk`` (one
namespace, lifetime and item size per wave, shipped as parallel arrays) is
held to the same contract.
"""

import math

import pytest

from repro.dht.can import CanNetworkBuilder
from repro.dht.chord import ChordNetworkBuilder
from repro.dht.naming import hash_key
from repro.dht.provider import Provider
from repro.net.network import Network
from repro.net.topology import FullMeshTopology


def build_network(dht="can", num_nodes=16, latency=0.02,
                  coalesce_window_s=0.0, capacity=math.inf):
    network = Network(
        FullMeshTopology(num_nodes, latency_s=latency,
                         capacity_bytes_per_s=capacity),
        coalesce_window_s=coalesce_window_s,
    )
    if dht == "can":
        builder = CanNetworkBuilder(dimensions=2)
    else:
        builder = ChordNetworkBuilder()
    routings = builder.build_stabilized(network)
    providers = {
        address: Provider(network.node(address), routings[address],
                          sweep_period_s=0.0, instance_seed=address)
        for address in range(num_nodes)
    }
    return network, providers, builder


ENTRIES = [(f"key-{i}", {"v": i}) for i in range(20)]


def collect_stored(providers, namespace):
    stored = {}
    for provider in providers.values():
        for resource_id, _value in ENTRIES:
            for item in provider.get_local(namespace, resource_id):
                stored.setdefault(resource_id, []).append(item.value)
    return stored


# ----------------------------------------------------------- put_batch


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_put_batch_equals_sequential_puts(dht):
    """Batched puts land the same items at the same owners as scalar puts."""
    net_a, prov_a, _ = build_network(dht)
    prov_a[0].put_batch("t", ENTRIES, item_bytes=64)
    net_a.run_until_idle()

    net_b, prov_b, _ = build_network(dht)
    for resource_id, value in ENTRIES:
        prov_b[0].put("t", resource_id, None, value, item_bytes=64)
    net_b.run_until_idle()

    stored_batched = collect_stored(prov_a, "t")
    stored_scalar = collect_stored(prov_b, "t")
    assert stored_batched == stored_scalar
    assert len(stored_batched) == len(ENTRIES)


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_put_batch_items_land_at_key_owners(dht):
    network, providers, builder = build_network(dht)
    providers[3].put_batch("t", ENTRIES)
    network.run_until_idle()
    for resource_id, value in ENTRIES:
        owner = builder.owner_of_key(hash_key("t", resource_id))
        values = [item.value for item in providers[owner].get_local("t", resource_id)]
        assert values == [value]


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_put_batch_fires_new_data_per_item(dht):
    """Every item of a batch fires its own newData callback on its owner."""
    network, providers, _builder = build_network(dht)
    arrivals = []
    for provider in providers.values():
        provider.on_new_data("t", lambda item: arrivals.append(item.resource_id))
    providers[0].put_batch("t", ENTRIES)
    network.run_until_idle()
    assert sorted(arrivals) == sorted(rid for rid, _v in ENTRIES)


def test_put_batch_returns_aligned_instance_ids():
    network, providers, _builder = build_network()
    ids = providers[0].put_batch("t", ENTRIES)
    assert len(ids) == len(ENTRIES)
    assert len(set(ids)) == len(ids)
    # Explicit instance ids in entries are honoured.
    ids2 = providers[0].put_batch("t", [("k", "v", 777)])
    assert ids2 == [777]


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_put_batch_uses_fewer_messages_than_scalar_puts(dht):
    net_a, prov_a, _ = build_network(dht)
    prov_a[0].put_batch("t", ENTRIES)
    net_a.run_until_idle()

    net_b, prov_b, _ = build_network(dht)
    for resource_id, value in ENTRIES:
        prov_b[0].put("t", resource_id, None, value)
    net_b.run_until_idle()

    assert net_a.stats.messages_sent < net_b.stats.messages_sent
    # The put traffic itself is one message per destination, not per item;
    # each scalar put is a batch of one.
    batched_puts = net_a.stats.protocol_messages.get("prov.put_batch", 0)
    scalar_puts = net_b.stats.protocol_messages.get("prov.put_batch", 0)
    assert 0 < batched_puts < scalar_puts


# ----------------------------------------------------------- put_chunk


def test_put_chunk_splits_items_across_owners():
    network, providers, builder = build_network(num_nodes=12)
    resource_ids = [f"r{i}" for i in range(24)]
    values = [{"v": i} for i in range(24)]
    instance_ids = providers[0].put_chunk("t", resource_ids, values,
                                          item_bytes=64)
    assert len(instance_ids) == len(set(instance_ids)) == 24
    network.run_until_idle()
    for resource_id, value in zip(resource_ids, values):
        owner = builder.owner_of_key(hash_key("t", resource_id))
        items = providers[owner].get_local("t", resource_id)
        assert [item.value for item in items] == [value]
    total = sum(len(list(provider.lscan("t")))
                for provider in providers.values())
    assert total == 24


def test_put_chunk_fires_new_data_per_item():
    network, providers, _builder = build_network(num_nodes=6)
    arrivals = []
    for provider in providers.values():
        provider.on_new_data("t", lambda item: arrivals.append(item.resource_id))
    providers[2].put_chunk("t", ["x", "y", "z"], [1, 2, 3])
    network.run_until_idle()
    assert sorted(arrivals) == ["x", "y", "z"]


def test_put_chunk_empty_is_a_noop():
    network, providers, _builder = build_network(num_nodes=4)
    assert providers[0].put_chunk("t", [], []) == []
    network.run_until_idle()
    assert all(list(provider.lscan("t")) == []
               for provider in providers.values())


def test_put_chunk_target_confines_items_to_computation_node():
    network, providers, _builder = build_network(num_nodes=12)
    providers[0].put_chunk("t", ["p", "q"], [10, 11], target=5)
    network.run_until_idle()
    assert [item.value for item in providers[5].get_local("t", "p")] == [10]
    assert [item.value for item in providers[5].get_local("t", "q")] == [11]
    for address, provider in providers.items():
        if address != 5:
            assert provider.get_local("t", "p") == []
            assert provider.get_local("t", "q") == []


def test_put_chunk_matches_put_batch_storage_state():
    """Shipping a wave as parallel arrays is a pure encoding change: after
    the dust settles, per-owner storage is identical to scalar puts."""
    resource_ids = [f"k{i}" for i in range(16)]
    values = [i * 10 for i in range(16)]

    def final_state(put):
        network, providers, _builder = build_network(num_nodes=12)
        put(providers[0], resource_ids, values)
        network.run_until_idle()
        return {
            address: sorted((item.resource_id, item.value)
                            for item in provider.lscan("t"))
            for address, provider in providers.items()
        }

    def chunk_put(provider, ids, vals):
        provider.put_chunk("t", ids, vals)

    def scalar_put(provider, ids, vals):
        for resource_id, value in zip(ids, vals):
            provider.put("t", resource_id, None, value)

    assert final_state(chunk_put) == final_state(scalar_put)


def test_put_chunk_unroutable_keys_fall_back_to_one_live_owner():
    """Fragments keyed into a dead node's zone are not lost: every publisher
    moves them to the same fallback key, so both sides of a join meet."""
    network, providers, builder = build_network(num_nodes=8)
    victim = 5
    ids = [f"k{i}" for i in range(200)
           if builder.owner_of_key(hash_key("t", f"k{i}")) == victim]
    assert ids, "need keys owned by the victim"
    network.fail_node(victim)
    for address, provider in providers.items():
        if address != victim:
            provider.routing.mark_neighbor_dead(victim)
    providers[0].put_chunk("t", ids, ["left"] * len(ids))
    providers[1].put_chunk("t", ids, ["right"] * len(ids))
    network.run_until_idle()
    placed = {}
    for address, provider in providers.items():
        if address != victim:
            for item in provider.lscan("t"):
                placed.setdefault(item.resource_id, []).append((address, item.value))
    assert sorted(placed) == sorted(ids)
    for copies in placed.values():
        assert len({address for address, _value in copies}) == 1
        assert sorted(value for _address, value in copies) == ["left", "right"]
    assert providers[0].put_bounces_by_namespace == {}
    assert providers[1].put_bounces_by_namespace == {}


# ------------------------------------------------------ mid-batch failure


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_put_batch_survives_mid_batch_node_failure(dht):
    """A destination dying mid-batch loses only its own items.

    The batch is issued, then one owner node fails before delivery; items
    routed to live owners must still be stored and fire newData, and the
    simulation must drain without errors.
    """
    network, providers, builder = build_network(dht)
    owners = {rid: builder.owner_of_key(hash_key("t", rid)) for rid, _v in ENTRIES}
    publisher = 0
    victim = next(owner for owner in owners.values() if owner != publisher)

    arrivals = []
    for provider in providers.values():
        provider.on_new_data("t", lambda item: arrivals.append(item.resource_id))

    providers[publisher].put_batch("t", ENTRIES)
    network.fail_node(victim)
    network.run_until_idle()

    survivors = sorted(rid for rid, owner in owners.items() if owner != victim)
    if dht == "can":
        # CAN's greedy geometry routes around the dead node, so every item
        # not owned by the victim still lands and fires newData.
        assert sorted(arrivals) == survivors
    else:
        # A dead Chord successor breaks the ring until stabilisation, so
        # items routed through it may be lost in transit (soft-state
        # semantics; renewal repairs them) — but nothing may arrive at the
        # victim, every arrival must be a survivor, and the publisher's
        # locally-owned items never cross the network at all.
        assert set(arrivals) <= set(survivors)
        local = [rid for rid, owner in owners.items() if owner == publisher]
        assert set(local) <= set(arrivals)
    for resource_id, owner in owners.items():
        items = providers[owner].get_local("t", resource_id)
        if owner == victim:
            assert items == []
        elif dht == "can":
            assert len(items) == 1
        else:
            assert len(items) == (1 if resource_id in arrivals else 0)


@pytest.mark.parametrize("dht", ["can", "chord"])
def test_unroutable_batch_entries_release_pending_state(dht):
    """Keys that become unroutable are reported unresolved, freeing origin state.

    A dropped entry must not leave the origin's batch bookkeeping (and its
    captured item payloads) pinned forever — the unresolved reply decrements
    the pending counter even though no items can be delivered.
    """
    network, providers, builder = build_network(dht, num_nodes=2)
    publisher = 0
    other = 1
    remote_entries = [
        (rid, value) for rid, value in ENTRIES
        if builder.owner_of_key(hash_key("t", rid)) == other
    ]
    assert remote_entries, "need at least one remotely-owned key"
    providers[publisher].put_batch("t", remote_entries)
    network.fail_node(other)
    network.run_until_idle()
    # The only possible hop is dead: items are lost (soft-state semantics)
    # but the origin's pending batch state must be fully released.
    assert providers[publisher].routing._pending_batch_lookups == {}
    for rid, _value in remote_entries:
        assert providers[other].get_local("t", rid) == []


# ------------------------------------------------------------- get_batch


@pytest.mark.parametrize("dht", ["can", "chord"])
@pytest.mark.parametrize("one_call_per_id", [True, False])
def test_get_batch_returns_per_id_results(dht, one_call_per_id):
    """``get_batch`` answers every id; so do scalar ``get`` calls, one per id."""
    network, providers, _builder = build_network(dht)
    providers[1].put_batch("t", ENTRIES)
    network.run_until_idle()

    results = {}
    resource_ids = [rid for rid, _v in ENTRIES] + ["missing"]
    if one_call_per_id:
        for resource_id in resource_ids:
            providers[0].get(
                "t", resource_id,
                lambda items, rid=resource_id: results.__setitem__(rid, items))
    else:
        providers[0].get_batch("t", resource_ids,
                               lambda rid, items: results.__setitem__(rid, items))
    network.run_until_idle()

    assert set(results) == {rid for rid, _v in ENTRIES} | {"missing"}
    assert results["missing"] == []
    for resource_id, value in ENTRIES:
        assert [item.value for item in results[resource_id]] == [value]


def test_get_batch_groups_requests_by_owner():
    network, providers, _builder = build_network("can")
    providers[1].put_batch("t", ENTRIES)
    network.run_until_idle()
    network.stats.reset()

    results = {}
    providers[0].get_batch("t", [rid for rid, _v in ENTRIES],
                           lambda rid, items: results.__setitem__(rid, items))
    network.run_until_idle()

    # Requests are grouped per owner as resolutions arrive.  An owner can be
    # reached by more than one route sub-batch (one request per reply wave),
    # so the count may slightly exceed the distinct-owner floor — but it must
    # stay far below one request per resourceID.
    requests = network.stats.protocol_messages.get("prov.get_batch", 0)
    assert 0 < requests < len(ENTRIES) * 0.75
    assert len(results) == len(ENTRIES)


# ------------------------------------------------------- multicast_batch


def test_multicast_batch_delivers_every_entry_everywhere():
    network, providers, _builder = build_network("can")
    received = {address: [] for address in providers}
    for address, provider in providers.items():
        for namespace in ("ns-a", "ns-b"):
            provider.on_multicast(
                namespace,
                lambda ns, rid, item, origin, address=address:
                    received[address].append((ns, rid, item)),
            )
    providers[0].multicast_batch(
        [("ns-a", "r1", "alpha"), ("ns-b", "r2", "beta")], payload_bytes=100
    )
    network.run_until_idle()
    expected = [("ns-a", "r1", "alpha"), ("ns-b", "r2", "beta")]
    for address in providers:
        assert received[address] == expected


def test_multicast_batch_floods_once_not_per_entry():
    net_a, prov_a, _ = build_network("can")
    for provider in prov_a.values():
        provider.on_multicast("ns", lambda *args: None)
    prov_a[0].multicast_batch([("ns", i, i) for i in range(5)])
    net_a.run_until_idle()

    net_b, prov_b, _ = build_network("can")
    for provider in prov_b.values():
        provider.on_multicast("ns", lambda *args: None)
    for i in range(5):
        prov_b[0].multicast("ns", i, i)
    net_b.run_until_idle()

    flood_batched = net_a.stats.protocol_messages.get("mc.flood", 0)
    flood_scalar = net_b.stats.protocol_messages.get("mc.flood", 0)
    assert flood_batched * 5 == flood_scalar


# ------------------------------------------------- network-level coalescing


def test_zero_window_coalescing_preserves_delivery_semantics():
    """Same-instant sends to one destination arrive once each, in order."""
    network_plain = Network(FullMeshTopology(4, latency_s=0.05))
    network_coal = Network(FullMeshTopology(4, latency_s=0.05),
                           coalesce_window_s=0.0)
    for network in (network_plain, network_coal):
        log = []
        network.node(1).register_handler(
            "test.proto", lambda node, msg: log.append(msg.payload))
        for i in range(10):
            network.node(0).send(1, "test.proto", payload=i, payload_bytes=100)
        network.run_until_idle()
        assert log == list(range(10))
    # Identical byte accounting in both modes.
    assert (network_coal.stats.inbound_bytes[1]
            == network_plain.stats.inbound_bytes[1])
    # ...but far fewer events in the coalesced network.
    assert (network_coal.simulator.events_processed
            < network_plain.simulator.events_processed)
    assert network_coal.messages_coalesced == 9


def test_positive_window_coalesces_across_sources():
    """With a window, staggered sends from many sources share delivery events."""
    network = Network(FullMeshTopology(6, latency_s=0.05),
                      coalesce_window_s=0.010)
    log = []
    network.node(5).register_handler(
        "test.proto", lambda node, msg: log.append(msg.src))
    for src in range(4):
        network.simulator.schedule(
            src * 0.002,
            lambda src=src: network.node(src).send(5, "test.proto",
                                                   payload_bytes=50))
    network.run_until_idle()
    assert sorted(log) == [0, 1, 2, 3]
    assert network.messages_coalesced == 3
    assert network.batches_flushed == 1


def test_coalescing_drops_and_bounces_per_message_on_dead_node():
    network = Network(FullMeshTopology(4, latency_s=0.05),
                      coalesce_window_s=0.0)
    bounced = []
    network.node(0).register_bounce_handler(
        "test.proto", lambda node, msg: bounced.append(msg.payload))
    for i in range(3):
        network.node(0).send(2, "test.proto", payload=i, payload_bytes=10)
    network.fail_node(2)
    network.run_until_idle()
    assert bounced == [0, 1, 2]
    assert network.stats.messages_dropped == 3


# ------------------------------------------------ simulator ready-lane path


def test_zero_delay_events_fire_in_fifo_order_after_heap_events():
    from repro.net.simulator import Simulator

    sim = Simulator()
    order = []

    def spawn():
        order.append("heap")
        sim.schedule(0.0, order.append, "ready-1")
        sim.schedule(0.0, order.append, "ready-2")

    sim.schedule(1.0, spawn)
    sim.schedule(1.0, order.append, "heap-later")
    sim.run_until_idle()
    # Heap events at the same timestamp predate ready-lane events.
    assert order == ["heap", "heap-later", "ready-1", "ready-2"]


def test_ready_lane_events_survive_max_events_interruption():
    from repro.net.simulator import Simulator

    sim = Simulator()
    order = []

    def spawn():
        order.append("first")
        for label in ("a", "b", "c"):
            sim.schedule(0.0, order.append, label)

    sim.schedule(1.0, spawn)
    sim.run(max_events=2)
    assert order == ["first", "a"]
    sim.run_until_idle()
    assert order == ["first", "a", "b", "c"]


def test_ready_lane_events_can_be_cancelled():
    from repro.net.simulator import Simulator

    sim = Simulator()
    fired = []

    def spawn():
        handle = sim.schedule(0.0, fired.append, "cancelled")
        sim.schedule(0.0, fired.append, "kept")
        handle.cancel()

    sim.schedule(1.0, spawn)
    sim.run_until_idle()
    assert fired == ["kept"]
