"""The layers: which public entry points carry spans, and the per-layer
metrics computed from those spans and from the program's own counters.

Span names are ``family/Owner.method``; a family is one row of the
ledger.  Every name in :data:`LAYER_METRICS` appears in BENCHMARK.json's
``per_layer`` list, in this order.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from bench.spans import NameTotals, Patches, SpanRecorder

Units = Optional[Callable[[tuple, Any], int]]


def _probes(args: tuple, result: Any) -> int:
    return result.probes


def _probes_sum(args: tuple, result: Any) -> int:
    return sum(lookup.probes for lookup in result)


def _int_result(args: tuple, result: Any) -> int:
    return int(result)


def _items(args: tuple, result: Any) -> int:
    return len(args[1])


def _batch(args: tuple, result: Any) -> int:
    return len(args[2])


#: (module, class or None for a module attribute, attribute, family, units)
TARGETS: Tuple[Tuple[str, Optional[str], str, str, Units], ...] = (
    ("repro.bloom.arrays", "LRUBloomFilterArray", "query", "bloom.probe", _probes),
    ("repro.bloom.arrays", "LRUBloomFilterArray", "probe_batch", "bloom.probe", _probes_sum),
    ("repro.bloom.arrays", "BloomFilterArray", "query", "bloom.probe", _probes),
    ("repro.bloom.arrays", "BloomFilterArray", "query_into", "bloom.probe", _int_result),
    ("repro.bloom.arrays", "BloomFilterArray", "probe_batch", "bloom.probe", _probes_sum),
    ("repro.bloom.bloom_filter", "BloomFilter", "contains_many", "bloom.probe", _items),
    ("repro.bloom.arrays", "LRUBloomFilterArray", "record", "bloom.update", None),
    ("repro.bloom.arrays", "BloomFilterArray", "replace_replica", "bloom.update", None),
    ("repro.bloom.counting", "CountingBloomFilter", "add", "bloom.update", None),
    ("repro.bloom.counting", "CountingBloomFilter", "remove", "bloom.update", None),
    ("repro.core.cluster", "GHBACluster", "query", "core.query", None),
    ("repro.core.server", "MetadataServer", "probe_lru", "core.server.probe", None),
    ("repro.core.server", "MetadataServer", "probe_segment", "core.server.probe", None),
    ("repro.core.server", "MetadataServer", "verify_and_fetch", "core.server.probe", None),
    ("repro.core.group", "Group", "multicast_query", "core.group.multicast", None),
    ("repro.core.cluster", "GHBACluster", "verify_batch", "core.verify_batch", _batch),
    ("repro.core.cluster", "GHBACluster", "apply_mutation_batch", "core.apply_mutation_batch", _batch),
    ("repro.core.cluster", "GHBACluster", "insert_file", "core.mutate", None),
    ("repro.core.cluster", "GHBACluster", "delete_file", "core.mutate", None),
    ("repro.core.cluster", "GHBACluster", "rename_subtree", "core.mutate", None),
    ("repro.core.cluster", "GHBACluster", "synchronize_replicas", "core.sync", None),
    ("repro.core.cluster", "GHBACluster", "add_server", "core.reconfig", None),
    ("repro.core.cluster", "GHBACluster", "remove_server", "core.reconfig", None),
    ("repro.metadata.store", "MetadataStore", "get", "metadata.store", None),
    ("repro.metadata.store", "MetadataStore", "put", "metadata.store", None),
    ("repro.metadata.store", "MetadataStore", "remove", "metadata.store", None),
    ("repro.gateway.client", "MetadataClient", "lookup_tick", "gateway", None),
    ("repro.gateway.client", "MetadataClient", "create", "gateway", None),
    ("repro.gateway.client", "MetadataClient", "delete", "gateway", None),
    ("repro.gateway.client", "MetadataClient", "rename", "gateway", None),
    ("repro.gateway.admission", "FairAdmissionController", "submit_tick", "gateway.admission", None),
    ("repro.gateway.admission", "FairAdmissionController", "pump", "gateway.admission", None),
    ("repro.gateway.cache", "GatewayCache", "get", "gateway.cache", None),
    ("repro.gateway.cache", "GatewayCache", "put", "gateway.cache", None),
    ("repro.gateway.cache", "GatewayCache", "put_negative", "gateway.cache", None),
    ("repro.gateway.cache", "GatewayCache", "peek", "gateway.cache", None),
    ("repro.gateway.cache", "GatewayCache", "pin", "gateway.cache", None),
    ("repro.gateway.cache", "GatewayCache", "invalidate", "gateway.cache", None),
    ("repro.gateway.cache", "GatewayCache", "invalidate_subtree", "gateway.cache", None),
    ("repro.gateway.hotspot", "HotspotDetector", "observe", "gateway.hotspot", None),
    ("repro.gateway.hotspot", "HotspotDetector", "is_hot", "gateway.hotspot", None),
    ("repro.gateway.hotspot", "HotspotDetector", "hot_keys", "gateway.hotspot", None),
    # ``coalesce`` is a function the client module imported by name.
    ("repro.gateway.client", None, "coalesce", "gateway.coalesce", None),
    ("repro.gateway.coalesce", "HomeBatcher", "plan", "gateway.coalesce", None),
    ("repro.gateway.client", "MetadataClient", "maybe_flush", "gateway.writeback", None),
    ("repro.gateway.client", "MetadataClient", "flush_barrier", "gateway.writeback", None),
    ("repro.gateway.writeback", "MutationBuffer", "enqueue", "gateway.writeback", None),
    ("repro.gateway.writeback", "MutationBuffer", "get", "gateway.writeback", None),
    ("repro.gateway.writeback", "MutationBuffer", "drain_home", "gateway.writeback", None),
    ("repro.gateway.writeback", "MutationBuffer", "drain_paths", "gateway.writeback", None),
    ("repro.gateway.writeback", "MutationBuffer", "settle", "gateway.writeback", None),
    ("repro.net.tcp", "TcpTransport", "request", "net.tcp.request", None),
    # The codec as the transport calls it (names imported into repro.net.tcp).
    ("repro.net.tcp", None, "encode_body", "net.codec", None),
    ("repro.net.tcp", None, "decode_body", "net.codec", None),
    # The wire workload's client call lives in the benchmark itself.
    ("bench.workloads.wire", None, "run_tick", "driver", None),
)


def install(recorder: SpanRecorder) -> Patches:
    """Wrap every target; the returned patches undo it exactly."""
    patches = Patches()
    for module_name, class_name, attr, family, units in TARGETS:
        owner = importlib.import_module(module_name)
        label = attr
        if class_name is not None:
            owner = getattr(owner, class_name)
            label = f"{class_name}.{attr}"
        name = f"{family}/{label}"
        patches.replace(
            owner, attr, lambda fn, name=name, units=units: recorder.wrap(name, fn, units)
        )
    return patches


def family_of(span_name: str) -> str:
    return span_name.split("/", 1)[0]


def by_family(totals: Dict[str, NameTotals]) -> Dict[str, NameTotals]:
    families: Dict[str, NameTotals] = {}
    for name, item in totals.items():
        family = family_of(name)
        old = families.get(family, NameTotals(0, 0.0, 0.0, 0))
        families[family] = NameTotals(
            old.calls + item.calls,
            old.self_s + item.self_s,
            old.total_s + item.total_s,
            old.units + item.units,
        )
    return families


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    #: The end-to-end metric(s) and workload it is predicted to move.
    moves: str
    on: str


#: The ledger's vocabulary.  ``moves``/``on`` are the predictions written
#: down before the first measurement (bench/README.md has the table).
LAYER_METRICS: Tuple[LayerMetric, ...] = (
    LayerMetric("bloom.self_us_per_op", "us", "lower", "ops_per_s call_p50_us cpu_us_per_op", "fleet_zipf_lookup gw_cold_scan"),
    LayerMetric("bloom.probes_per_op", "count", "lower", "ops_per_s", "fleet_zipf_lookup"),
    LayerMetric("bloom.l1_hit_ratio", "ratio", "higher", "ops_per_s call_p50_us", "fleet_zipf_lookup"),
    LayerMetric("bloom.false_forwards_per_kop", "1/kop", "lower", "ops_per_s", "fleet_churn"),
    LayerMetric("bloom.update_self_us_per_op", "us", "lower", "call_p99_us ops_per_s", "fleet_churn"),
    LayerMetric("bloom.filter_bytes_per_mds", "bytes", "lower", "peak_rss_mb setup_s", "all"),
    LayerMetric("core.query.self_us_per_op", "us", "lower", "ops_per_s call_p50_us cpu_us_per_op", "fleet_zipf_lookup gw_cold_scan"),
    LayerMetric("core.query.calls_per_op", "count", "lower", "ops_per_s", "gw_cold_scan"),
    LayerMetric("core.level_share.L1", "ratio", "higher", "ops_per_s call_p50_us", "fleet_zipf_lookup"),
    LayerMetric("core.level_share.L2", "ratio", "higher", "ops_per_s", "fleet_zipf_lookup"),
    LayerMetric("core.level_share.L3", "ratio", "lower", "ops_per_s call_p99_us", "fleet_zipf_lookup"),
    LayerMetric("core.level_share.L4", "ratio", "lower", "call_p99_us", "fleet_churn gw_cold_scan"),
    LayerMetric("core.messages_per_op", "count", "lower", "ops_per_s", "fleet_zipf_lookup"),
    LayerMetric("core.virtual_latency_mean_ms", "ms", "lower", "none (model output, golden-style)", "fleet_zipf_lookup"),
    LayerMetric("core.server.probe_self_us_per_op", "us", "lower", "ops_per_s call_p50_us cpu_us_per_op", "fleet_zipf_lookup"),
    LayerMetric("core.group.multicast_self_us_per_op", "us", "lower", "ops_per_s call_p99_us", "fleet_zipf_lookup"),
    LayerMetric("core.verify_batch.self_us_per_op", "us", "lower", "ops_per_s", "gw_hot_lookup"),
    LayerMetric("core.verify_batch.keys_per_call", "count", "higher", "ops_per_s", "gw_hot_lookup"),
    LayerMetric("core.apply_mutation_batch.self_us_per_op", "us", "lower", "ops_per_s call_p99_us", "gw_write_mix"),
    LayerMetric("core.apply_mutation_batch.mutations_per_call", "count", "higher", "ops_per_s", "gw_write_mix"),
    LayerMetric("core.apply_mutation_batch.conflicts", "count", "lower", "ops_per_s", "gw_write_mix"),
    LayerMetric("core.mutate.self_us_per_op", "us", "lower", "ops_per_s call_p99_us", "fleet_churn"),
    LayerMetric("core.sync.us_per_call", "us", "lower", "call_p99_us ops_per_s", "fleet_churn"),
    LayerMetric("core.sync.bytes_shipped", "bytes", "lower", "call_p99_us", "fleet_churn"),
    LayerMetric("core.reconfig.us_per_call", "us", "lower", "call_p99_us ops_per_s", "fleet_churn"),
    LayerMetric("core.reconfig.migrated_replicas", "count", "lower", "call_p99_us", "fleet_churn"),
    LayerMetric("core.reconfig.messages", "count", "lower", "call_p99_us", "fleet_churn"),
    LayerMetric("metadata.store.self_us_per_op", "us", "lower", "ops_per_s", "fleet_churn gw_cold_scan"),
    LayerMetric("metadata.store.gets_per_op", "count", "lower", "ops_per_s", "fleet_zipf_lookup"),
    LayerMetric("gateway.self_us_per_op", "us", "lower", "ops_per_s call_p50_us", "gw_hot_lookup"),
    LayerMetric("gateway.admission.self_us_per_op", "us", "lower", "ops_per_s call_p50_us", "gw_hot_lookup"),
    LayerMetric("gateway.admission.shed", "count", "lower", "failed", "gw_hot_lookup"),
    LayerMetric("gateway.admission.queued", "count", "lower", "failed call_p99_us", "gw_hot_lookup"),
    LayerMetric("gateway.cache.self_us_per_op", "us", "lower", "ops_per_s call_p99_us", "gw_cold_scan"),
    LayerMetric("gateway.cache.hit_ratio", "ratio", "higher", "ops_per_s", "gw_hot_lookup gw_cold_scan"),
    LayerMetric("gateway.cache.evictions_per_kop", "1/kop", "lower", "ops_per_s call_p99_us", "gw_cold_scan"),
    LayerMetric("gateway.hotspot.self_us_per_op", "us", "lower", "ops_per_s call_p50_us", "gw_hot_lookup"),
    LayerMetric("gateway.hotspot.pins", "count", "lower", "ops_per_s", "gw_hot_lookup"),
    LayerMetric("gateway.coalesce.self_us_per_op", "us", "lower", "ops_per_s call_p50_us", "gw_hot_lookup"),
    LayerMetric("gateway.coalesce.coalesced_per_kop", "1/kop", "higher", "ops_per_s", "gw_hot_lookup"),
    LayerMetric("gateway.backend_queries_per_op", "count", "lower", "ops_per_s call_p99_us", "gw_cold_scan"),
    LayerMetric("gateway.backend_mutations_per_mutation", "count", "lower", "ops_per_s", "gw_write_mix"),
    LayerMetric("gateway.writeback.self_us_per_op", "us", "lower", "ops_per_s call_p99_us", "gw_write_mix"),
    LayerMetric("gateway.writeback.mutations_per_flush", "count", "higher", "ops_per_s", "gw_write_mix"),
    LayerMetric("gateway.writeback.absorbed", "count", "higher", "ops_per_s", "gw_write_mix"),
    LayerMetric("gateway.writeback.lost", "count", "lower", "failed", "gw_write_mix"),
    LayerMetric("gateway.stale_reads", "count", "lower", "failed", "gw_write_mix"),
    LayerMetric("net.codec.encode_us_per_frame", "us", "lower", "ops_per_s cpu_us_per_op", "wire_mixed"),
    LayerMetric("net.codec.decode_us_per_frame", "us", "lower", "ops_per_s cpu_us_per_op", "wire_mixed"),
    LayerMetric("net.codec.bytes_per_frame", "bytes", "lower", "ops_per_s", "wire_mixed"),
    LayerMetric("net.tcp.request_self_us_per_rpc", "us", "lower", "ops_per_s call_p50_us cpu_us_per_op", "wire_mixed"),
    LayerMetric("net.tcp.ping_rtt_p50_us", "us", "lower", "call_p50_us", "wire_mixed"),
    LayerMetric("net.tcp.rpcs_per_op", "count", "lower", "ops_per_s call_p50_us", "wire_mixed"),
    LayerMetric("net.tcp.bytes_per_op", "bytes", "lower", "ops_per_s", "wire_mixed"),
    LayerMetric("net.tcp.retries", "count", "lower", "failed call_p99_us", "wire_mixed"),
    LayerMetric("net.tcp.backpressure_stalls", "count", "lower", "call_p99_us", "wire_mixed"),
    LayerMetric("net.tcp.queue_high_water", "count", "lower", "call_p99_us", "wire_mixed"),
    LayerMetric("prototype.node.inproc_rtt_p50_us", "us", "lower", "call_p50_us", "wire_mixed"),
    LayerMetric("prototype.node.server_cpu_us_per_rpc", "us", "lower", "cpu_us_per_op", "wire_mixed"),
    LayerMetric("net.wire_overhead_share", "ratio", "lower", "ops_per_s call_p50_us", "wire_mixed"),
    LayerMetric("driver.self_us_per_op", "us", "lower", "none (the benchmark's own loop)", "all"),
    LayerMetric("trace_overhead_share", "ratio", "lower", "none (cost of the wrappers)", "all"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_values(
    totals: Dict[str, NameTotals],
    counters: Dict[str, float],
    ops: int,
    driver_self_s: float,
    trace_overhead_share: float,
) -> Dict[str, float]:
    """Every per-layer metric of one traced pass, by name.

    ``totals`` are span totals by full span name, ``counters`` the
    timed-phase counter deltas, gauges and probe results of the pass.  A
    layer that is not on the workload's path reads 0.
    """
    families = by_family(totals)
    none = NameTotals(0, 0.0, 0.0, 0)

    def family(name: str) -> NameTotals:
        return families.get(name, none)

    def self_us_per_op(name: str) -> float:
        return _ratio(family(name).self_s * 1e6, ops)

    def us_per_call(name: str) -> float:
        item = family(name)
        return _ratio(item.total_s * 1e6, item.calls)

    def counter(name: str) -> float:
        return float(counters.get(name, 0.0))

    kop = ops / 1000.0
    queries = counter("queries")
    l4 = counter("queries.L4") + counter("queries.L4-negative")
    store_gets = totals.get("metadata.store/MetadataStore.get", none).calls
    values = {
        "bloom.self_us_per_op": self_us_per_op("bloom.probe"),
        "bloom.probes_per_op": _ratio(family("bloom.probe").units, ops),
        "bloom.l1_hit_ratio": _ratio(counter("l1_hits"), counter("l1_probes")),
        "bloom.false_forwards_per_kop": _ratio(counter("false_forwards"), kop),
        "bloom.update_self_us_per_op": self_us_per_op("bloom.update"),
        "bloom.filter_bytes_per_mds": counter("filter_bytes_per_mds"),
        "core.query.self_us_per_op": self_us_per_op("core.query"),
        "core.query.calls_per_op": _ratio(family("core.query").calls, ops),
        "core.level_share.L1": _ratio(counter("queries.L1"), queries),
        "core.level_share.L2": _ratio(counter("queries.L2"), queries),
        "core.level_share.L3": _ratio(counter("queries.L3"), queries),
        "core.level_share.L4": _ratio(l4, queries),
        "core.messages_per_op": _ratio(counter("messages"), ops),
        "core.virtual_latency_mean_ms": _ratio(counter("virtual_latency_sum_ms"), queries),
        "core.server.probe_self_us_per_op": self_us_per_op("core.server.probe"),
        "core.group.multicast_self_us_per_op": self_us_per_op("core.group.multicast"),
        "core.verify_batch.self_us_per_op": self_us_per_op("core.verify_batch"),
        "core.verify_batch.keys_per_call": _ratio(
            family("core.verify_batch").units, family("core.verify_batch").calls
        ),
        "core.apply_mutation_batch.self_us_per_op": self_us_per_op("core.apply_mutation_batch"),
        "core.apply_mutation_batch.mutations_per_call": _ratio(
            family("core.apply_mutation_batch").units,
            family("core.apply_mutation_batch").calls,
        ),
        "core.apply_mutation_batch.conflicts": counter("wb_conflicts"),
        "core.mutate.self_us_per_op": self_us_per_op("core.mutate"),
        "core.sync.us_per_call": us_per_call("core.sync"),
        "core.sync.bytes_shipped": counter("sync_bytes"),
        "core.reconfig.us_per_call": us_per_call("core.reconfig"),
        "core.reconfig.migrated_replicas": counter("reconfig_replicas"),
        "core.reconfig.messages": counter("reconfig_messages"),
        "metadata.store.self_us_per_op": self_us_per_op("metadata.store"),
        "metadata.store.gets_per_op": _ratio(store_gets, ops),
        "gateway.self_us_per_op": self_us_per_op("gateway"),
        "gateway.admission.self_us_per_op": self_us_per_op("gateway.admission"),
        "gateway.admission.shed": counter("admission_shed"),
        "gateway.admission.queued": counter("admission_queued"),
        "gateway.cache.self_us_per_op": self_us_per_op("gateway.cache"),
        "gateway.cache.hit_ratio": _ratio(counter("cache_hits"), counter("cache_probes")),
        "gateway.cache.evictions_per_kop": _ratio(counter("cache_evictions"), kop),
        "gateway.hotspot.self_us_per_op": self_us_per_op("gateway.hotspot"),
        "gateway.hotspot.pins": counter("hotspot_pins"),
        "gateway.coalesce.self_us_per_op": self_us_per_op("gateway.coalesce"),
        "gateway.coalesce.coalesced_per_kop": _ratio(counter("coalesced"), kop),
        "gateway.backend_queries_per_op": _ratio(counter("backend_queries"), ops),
        "gateway.backend_mutations_per_mutation": _ratio(
            counter("backend_mutations"), counter("mutations")
        ),
        "gateway.writeback.self_us_per_op": self_us_per_op("gateway.writeback"),
        "gateway.writeback.mutations_per_flush": _ratio(
            counter("wb_flushed"), counter("wb_flush_batches")
        ),
        "gateway.writeback.absorbed": counter("wb_absorbed"),
        "gateway.writeback.lost": counter("wb_lost"),
        "gateway.stale_reads": counter("stale_reads"),
        "net.codec.encode_us_per_frame": counter("codec_encode_us_per_frame"),
        "net.codec.decode_us_per_frame": counter("codec_decode_us_per_frame"),
        "net.codec.bytes_per_frame": counter("codec_bytes_per_frame"),
        "net.tcp.request_self_us_per_rpc": _ratio(
            family("net.tcp.request").self_s * 1e6, family("net.tcp.request").calls
        ),
        "net.tcp.ping_rtt_p50_us": counter("ping_rtt_p50_us"),
        "net.tcp.rpcs_per_op": _ratio(counter("rpcs"), ops),
        "net.tcp.bytes_per_op": _ratio(counter("tcp_bytes"), ops),
        "net.tcp.retries": counter("tcp_retries"),
        "net.tcp.backpressure_stalls": counter("tcp_backpressure_stalls"),
        "net.tcp.queue_high_water": counter("tcp_queue_high_water"),
        "prototype.node.inproc_rtt_p50_us": counter("inproc_rtt_p50_us"),
        "prototype.node.server_cpu_us_per_rpc": _ratio(
            counter("children_cpu_s") * 1e6, counter("rpcs")
        ),
        "net.wire_overhead_share": counter("wire_overhead_share"),
        "driver.self_us_per_op": _ratio(driver_self_s * 1e6, ops),
        "trace_overhead_share": trace_overhead_share,
    }
    assert list(values) == [metric.name for metric in LAYER_METRICS]
    return values
