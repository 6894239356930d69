"""Unit tests for the storage manager and soft-state renewal."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.dht.storage import StorageManager, StoredItem
from repro.exceptions import StorageError


def make_item(namespace="ns", resource="r1", instance=1, value="v", expires=100.0,
              key=0, publisher=None, size=50):
    return StoredItem(
        namespace=namespace, resource_id=resource, instance_id=instance,
        value=value, key=key, expires_at=expires, publisher=publisher,
        size_bytes=size,
    )


# ---------------------------------------------------------------- store/get


def test_store_and_retrieve():
    storage = StorageManager()
    storage.store(make_item(value="hello"))
    items = storage.retrieve("ns", "r1", now=0.0)
    assert len(items) == 1
    assert items[0].value == "hello"


def test_retrieve_returns_all_instances_of_same_resource():
    storage = StorageManager()
    storage.store(make_item(instance=1, value="a"))
    storage.store(make_item(instance=2, value="b"))
    values = {item.value for item in storage.retrieve("ns", "r1", now=0.0)}
    assert values == {"a", "b"}


def test_store_same_triple_overwrites():
    storage = StorageManager()
    storage.store(make_item(instance=1, value="old"))
    storage.store(make_item(instance=1, value="new"))
    items = storage.retrieve("ns", "r1", now=0.0)
    assert len(items) == 1
    assert items[0].value == "new"


def test_retrieve_unknown_resource_is_empty():
    storage = StorageManager()
    assert storage.retrieve("ns", "missing", now=0.0) == []


def test_store_rejects_non_items():
    storage = StorageManager()
    with pytest.raises(StorageError):
        storage.store({"not": "an item"})


# -------------------------------------------------------------------- remove


def test_remove_specific_instance():
    storage = StorageManager()
    storage.store(make_item(instance=1))
    storage.store(make_item(instance=2))
    assert storage.remove("ns", "r1", instance_id=1) == 1
    assert len(storage.retrieve("ns", "r1", now=0.0)) == 1


def test_remove_all_instances_of_resource():
    storage = StorageManager()
    storage.store(make_item(instance=1))
    storage.store(make_item(instance=2))
    assert storage.remove("ns", "r1") == 2
    assert storage.retrieve("ns", "r1", now=0.0) == []


def test_remove_missing_returns_zero():
    storage = StorageManager()
    assert storage.remove("ns", "nothing") == 0


# ---------------------------------------------------------------------- scan


def test_scan_iterates_only_requested_namespace():
    storage = StorageManager()
    storage.store(make_item(namespace="a", resource="x", instance=1))
    storage.store(make_item(namespace="b", resource="y", instance=2))
    assert {item.namespace for item in storage.scan("a", now=0.0)} == {"a"}
    assert storage.count("a") == 1
    assert storage.namespaces() == ["a", "b"]


def test_scan_skips_and_purges_expired_items():
    storage = StorageManager()
    storage.store(make_item(resource="fresh", instance=1, expires=100.0))
    storage.store(make_item(resource="stale", instance=2, expires=10.0))
    live = list(storage.scan("ns", now=50.0))
    assert [item.resource_id for item in live] == ["fresh"]
    assert len(storage) == 1  # the stale item was dropped during the scan


# ----------------------------------------------------------------- soft state


def test_expire_items_drops_only_expired():
    storage = StorageManager()
    storage.store(make_item(resource="a", instance=1, expires=10.0))
    storage.store(make_item(resource="b", instance=2, expires=100.0))
    assert storage.expire_items(now=50.0) == 1
    assert len(storage) == 1


def test_retrieve_hides_expired_items():
    storage = StorageManager()
    storage.store(make_item(expires=5.0))
    assert storage.retrieve("ns", "r1", now=10.0) == []


def test_item_not_expired_exactly_at_deadline():
    item = make_item(expires=5.0)
    assert not item.is_expired(5.0)
    assert item.is_expired(5.0001)


# ----------------------------------------------------------------- migration


def test_extract_and_install_move_items_by_key_predicate():
    storage = StorageManager()
    storage.store(make_item(resource="low", instance=1, key=10))
    storage.store(make_item(resource="high", instance=2, key=1000))
    moved = storage.extract(lambda key: key >= 500)
    assert [item.resource_id for item in moved] == ["high"]
    assert len(storage) == 1

    other = StorageManager()
    other.install(moved)
    assert other.retrieve("ns", "high", now=0.0)


def test_clear_drops_everything():
    storage = StorageManager()
    storage.store(make_item(instance=1))
    storage.store(make_item(instance=2, resource="other"))
    assert storage.clear() == 2
    assert len(storage) == 0
    assert storage.namespaces() == []


# ------------------------------------------------------------- expiry heap


def test_count_uses_index_without_materializing(monkeypatch):
    storage = StorageManager()
    for i in range(5):
        storage.store(make_item(resource=f"r{i}", instance=i, expires=10.0 + i))
    # count() must not iterate items: poison scan to prove it is unused.
    monkeypatch.setattr(storage, "scan",
                        lambda *a, **k: (_ for _ in ()).throw(AssertionError))
    assert storage.count("ns") == 5
    assert storage.count("ns", now=12.5) == 2   # expires 13.0 and 14.0 survive
    assert storage.count("missing", now=0.0) == 0


def test_expiry_work_proportional_to_expired_not_store_size():
    storage = StorageManager()
    for i in range(200):
        storage.store(make_item(resource=f"live{i}", instance=i, expires=1000.0))
    storage.store(make_item(resource="stale", instance=999, expires=1.0))
    assert storage.expire_items(now=5.0) == 1
    assert len(storage) == 200
    # Nothing left to expire: repeated sweeps pop nothing.
    assert storage.expire_items(now=5.0) == 0


def test_renewal_keeps_item_past_original_deadline():
    storage = StorageManager()
    storage.store(make_item(instance=1, expires=10.0))
    storage.store(make_item(instance=1, expires=50.0))  # renewal overwrite
    assert storage.expire_items(now=20.0) == 0          # old heap entry is stale
    assert len(storage.retrieve("ns", "r1", now=20.0)) == 1
    assert storage.expire_items(now=60.0) == 1


def test_shortened_lifetime_expires_at_new_deadline():
    storage = StorageManager()
    storage.store(make_item(instance=1, expires=50.0))
    storage.store(make_item(instance=1, expires=10.0))
    assert storage.retrieve("ns", "r1", now=20.0) == []


def test_heap_compaction_preserves_expiry_behaviour():
    storage = StorageManager()
    for i in range(300):
        storage.store(make_item(resource=f"r{i}", instance=i, expires=100.0))
    for i in range(250):
        storage.remove("ns", f"r{i}")
    # Trigger the lazy compaction path and verify expiry still works.
    storage.expire_items(now=0.0)
    assert len(storage) == 50
    assert storage.expire_items(now=200.0) == 50
    assert len(storage) == 0


def test_store_batch_matches_sequential_stores():
    batched = StorageManager()
    sequential = StorageManager()
    items = [make_item(namespace=f"n{i % 2}", resource=f"r{i % 3}", instance=i,
                       expires=10.0 * (i + 1)) for i in range(12)]
    batched.store_batch(items)
    for item in items:
        sequential.store(make_item(namespace=item.namespace,
                                   resource=item.resource_id,
                                   instance=item.instance_id,
                                   expires=item.expires_at))
    assert len(batched) == len(sequential)
    assert batched.namespaces() == sequential.namespaces()
    for namespace in batched.namespaces():
        assert batched.count(namespace) == sequential.count(namespace)
    batched.expire_items(now=45.0)
    sequential.expire_items(now=45.0)
    assert len(batched) == len(sequential)


def test_has_instance_checks_exact_live_triple():
    storage = StorageManager()
    storage.store(make_item(instance=1, expires=10.0))
    assert storage.has_instance("ns", "r1", 1, now=5.0)
    assert not storage.has_instance("ns", "r1", 2, now=5.0)
    assert not storage.has_instance("ns", "r1", 1, now=11.0)  # expired


# ------------------------------------------------------------- determinism

#: Stores string-keyed items one by one and in a batch, then prints the
#: order in which ``scan`` and ``retrieve`` hand them back.
_ORDER_PROBE = """
import json
from repro.dht.storage import StorageManager, StoredItem

def item(resource, instance):
    return StoredItem(namespace="ns", resource_id=resource,
                      instance_id=instance, value=None, key=0,
                      expires_at=100.0)

storage = StorageManager()
for i in range(40):
    storage.store(item(f"r{i}", i))
storage.store_batch([item(f"b{i}", 100 + i) for i in range(40)])
for i in range(20):
    storage.store(item("shared", 200 + i))
print(json.dumps({
    "scan": [[it.resource_id, it.instance_id] for it in storage.scan("ns", 0.0)],
    "retrieve": [it.instance_id for it in storage.retrieve("ns", "shared", 0.0)],
}))
"""


def _probe_order(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    output = subprocess.run([sys.executable, "-c", _ORDER_PROBE], env=env,
                            check=True, capture_output=True, text=True).stdout
    return json.loads(output)


def test_scan_and_retrieve_order_does_not_depend_on_hash_seed():
    """Items come back in insertion order whatever ``PYTHONHASHSEED`` is, so
    everything downstream of a scan (put order, route fan-out, float sums)
    replays identically across interpreter runs."""
    first, second = _probe_order(1), _probe_order(2)
    assert first == second
    assert [rid for rid, _iid in first["scan"][:2]] == ["r0", "r1"]
    assert first["retrieve"] == list(range(200, 220))
