"""The six workloads, in the order BENCHMARK.json lists them."""

from bench.workloads.fleet import FleetChurn, FleetZipfLookup
from bench.workloads.gateway import GatewayColdScan, GatewayHotLookup, GatewayWriteMix
from bench.workloads.wire import WireMixed

WORKLOADS = {
    workload.name: workload
    for workload in (
        FleetZipfLookup(),
        FleetChurn(),
        GatewayHotLookup(),
        GatewayColdScan(),
        GatewayWriteMix(),
        WireMixed(),
    )
}
