"""The on-the-wire workload: real MDS processes over loopback TCP.

``net.codec`` + ``net.tcp`` + ``prototype.node`` do all the work and
``gateway`` / ``core.cluster`` none.  One closed-loop client on one
``TcpTransport`` (one pooled connection per peer), and all three
processes on one CPU.  An RPC hops over five threads in three processes,
one runnable at a time; left to the scheduler, each hop wakes an idle
virtual CPU, which costs more than the hop's own work and as much as the
host pleases (a tick took 2.0-2.3 ms against 1.2-1.4 ms on one CPU).  For
the same reason there is no second client: on the two cores of the
reference box it measures the host's scheduler, not the program.
Loopback only: the numbers say nothing about a real network.
"""

from __future__ import annotations

import os
import shutil
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Set, Tuple

from repro.core.config import GHBAConfig
from repro.core.server import MetadataServer
from repro.metadata.attributes import FileMetadata
from repro.net.codec import decode_frame, encode_frame
from repro.net.supervisor import ProcessSupervisor
from repro.net.tcp import PortMap, TcpTransport
from repro.prototype.messages import Message, MessageKind
from repro.prototype.node import MDSNode
from repro.prototype.transport import InProcessTransport

from bench.stats import percentile
from bench.workloads.base import (
    CpuMarks,
    Timed,
    Verdict,
    Workload,
    hp_generator,
    new_rng,
    scaled,
    shuffled_kinds,
)

MDS_PROCESSES = 2
LOOKUP_TICK = 8
MUTATION_TICK = 4
#: Files the two MDS processes hold between them: the first of the HP
#: population.  The per-RPC work on this path (filter probe, dict
#: lookup) does not depend on the population, and creating 20 000
#: records over the wire would be ~5 s of set-up in every pass.
WIRE_FILES = 4_000
#: Paths that may be mutated.
MUTABLE = 1_000
#: Mutation origins: the client's, and the populate phase's.
CLIENT_ORIGIN = 0
DRIVER_ORIGIN = 1000
CLIENT_SENDER = -1
DRIVER_SENDER = -100
#: Mutations per RPC outside the timed phase (populate, restore).
BULK_BATCH = 64
RPC_TIMEOUT_S = 10.0
PROBE_MESSAGES = 300


def home_of(path: str) -> int:
    """Cross-process deterministic placement (built-in hash is salted)."""
    return zlib.crc32(path.encode("utf-8")) % MDS_PROCESSES


def record_for(path: str, index: int) -> FileMetadata:
    return FileMetadata(path=path, inode=index + 1, size=index % 4096)


def home_server(node_id: int, paths: List[str]) -> MetadataServer:
    """An MDS holding exactly the files ``home_of`` places on ``node_id``."""
    server = MetadataServer(node_id, GHBAConfig())
    server.insert_many(
        [record_for(path, index) for index, path in enumerate(paths) if home_of(path) == node_id]
    )
    return server


def by_home(paths: List[str]) -> List[Tuple[int, List[str]]]:
    grouped: Dict[int, List[str]] = {}
    for path in paths:
        grouped.setdefault(home_of(path), []).append(path)
    return sorted(grouped.items())


def verify_message(sender: int, paths: List[str]) -> Message:
    return Message(kind=MessageKind.VERIFY_BATCH, sender=sender, payload={"paths": paths})


@dataclass
class ClientState:
    """The client's view: its version stream and the mutable files."""

    exists: Dict[str, bool]
    version: int = 0
    acked: int = 0
    rpcs: int = 0
    lookups: int = 0
    mutations: int = 0


@dataclass
class Wire:
    supervisor: ProcessSupervisor
    transport: TcpTransport
    workdir: Path
    pids: List[int]
    index_of: Dict[str, int]
    #: CPUs this process could run on before ``build`` confined it.
    cpus: Set[int]
    client: ClientState = field(default_factory=lambda: ClientState({}))


def run_tick(transport: TcpTransport, state: ClientState, index_of, op: list) -> list:
    """One client call: a lookup tick or a mutation tick, every RPC of it."""
    replies = []
    if op[0] == "l":
        for home, paths in by_home(op[1]):
            reply = transport.request(home, verify_message(CLIENT_SENDER, paths))
            state.rpcs += 1
            state.lookups += len(paths)
            replies.append(reply.payload)
        return replies
    grouped: Dict[int, List[dict]] = {}
    for path in op[1]:
        state.version += 1
        if state.exists[path]:
            mutation = {"version": state.version, "op": "delete", "path": path, "record": None}
        else:
            mutation = {
                "version": state.version,
                "op": "create",
                "path": path,
                "record": record_for(path, index_of[path]),
            }
        state.exists[path] = not state.exists[path]
        grouped.setdefault(home_of(path), []).append(mutation)
    for home, mutations in sorted(grouped.items()):
        reply = transport.request(
            home,
            Message(
                kind=MessageKind.MUTATE_BATCH,
                sender=CLIENT_SENDER,
                payload={"origin": CLIENT_ORIGIN, "acked": state.acked, "mutations": mutations},
            ),
        )
        state.rpcs += 1
        state.mutations += len(mutations)
        replies.append(reply.payload)
    # Synchronous flush: everything issued so far is settled.
    state.acked = state.version
    return replies


class WireMixed(Workload):
    name = "wire_mixed"
    why = (
        "2 MDS processes over loopback TCP, one closed-loop client, one pooled "
        "connection per peer, 80 % VERIFY_BATCH and 20 % MUTATE_BATCH ticks: "
        "codec, tcp and the node do all the work, gateway and core none"
    )
    required = ("net.tcp.request", "net.codec")
    absent = ("gateway", "core.query", "core.mutate", "gateway.cache")
    op_unit = "looked-up or mutated path"
    forks = False
    # Request ids grow from execution to execution and change varint
    # widths, so byte counts differ by a few bytes.
    unstable_counters = ("tcp_bytes", "tcp_backpressure_stalls", "tcp_retries")
    background_threads = ("tcp-transport",)

    #: Sized by the call count, not by the clock: a tick is ~1.5 ms, and
    #: an execution has to time >= 1 000 of them for its p99 to rest on
    #: ten samples.
    TICKS_PER_SECOND = 1_540
    WARMUP_SHARE = 0.1
    LOOKUP_SHARE = 0.8
    MUTABLE_SHARE = 0.25

    def generate(self, seed: int, seconds: float) -> Dict[str, Any]:
        paths = hp_generator(seed).paths[:WIRE_FILES]
        count = scaled(self.TICKS_PER_SECOND, seconds, minimum=20)
        warmup = max(2, int(count * self.WARMUP_SHARE))
        mutable, immutable = paths[:MUTABLE], paths[MUTABLE:]
        rng = new_rng(seed, self.name)

        def lookup_tick() -> list:
            return [
                "l",
                [
                    rng.choice(mutable if rng.random() < self.MUTABLE_SHARE else immutable)
                    for _ in range(LOOKUP_TICK)
                ],
            ]

        warmups = [lookup_tick() for _ in range(warmup)]
        kinds = shuffled_kinds(rng, count, {"l": self.LOOKUP_SHARE, "m": 1.0 - self.LOOKUP_SHARE})
        schedule = [
            lookup_tick() if kind == "l" else ["m", rng.sample(mutable, MUTATION_TICK)]
            for kind in kinds
        ]
        return {"paths": paths, "warmup": warmups, "schedule": schedule}

    def build(self, inputs: Dict[str, Any], seed: int, workdir) -> Wire:
        workdir = Path(workdir)
        cpus = os.sched_getaffinity(0)
        # Inherited by the MDS processes launched below.
        os.sched_setaffinity(0, {min(cpus)})
        portmap = PortMap.reserve(range(MDS_PROCESSES))
        supervisor = ProcessSupervisor(portmap, GHBAConfig(), workdir)
        transport = TcpTransport(
            portmap,
            default_timeout_s=RPC_TIMEOUT_S,
            connect_attempts=3,
            connect_backoff_s=0.05,
        )
        paths = inputs["paths"]
        system = Wire(
            supervisor,
            transport,
            workdir,
            pids=[],
            index_of={path: index for index, path in enumerate(paths)},
            cpus=cpus,
        )
        try:
            for node_id in range(MDS_PROCESSES):
                system.pids.append(supervisor.launch_mds(node_id).pid)
            supervisor.wait_ready(transport, list(range(MDS_PROCESSES)), timeout_s=30.0)
            self._populate(transport, paths)
            system.client = ClientState({path: True for path in paths[:MUTABLE]})
        except BaseException:
            self.close(system)
            raise
        return system

    @staticmethod
    def _populate(transport: TcpTransport, paths: List[str]) -> None:
        grouped: Dict[int, List[dict]] = {}
        for index, path in enumerate(paths):
            grouped.setdefault(home_of(path), []).append(
                {
                    "version": index + 1,
                    "op": "create",
                    "path": path,
                    "record": record_for(path, index),
                }
            )
        for home, mutations in sorted(grouped.items()):
            for start in range(0, len(mutations), BULK_BATCH):
                reply = transport.request(
                    home,
                    Message(
                        kind=MessageKind.MUTATE_BATCH,
                        sender=DRIVER_SENDER,
                        payload={
                            "origin": DRIVER_ORIGIN,
                            "acked": 0,
                            "mutations": mutations[start : start + BULK_BATCH],
                        },
                    ),
                )
                if any(not outcome["applied"] for outcome in reply.payload["outcomes"]):
                    raise RuntimeError("populate mutation rejected")

    def warm_up(self, system: Wire, inputs: Dict[str, Any]) -> None:
        for op in inputs["warmup"]:
            run_tick(system.transport, system.client, system.index_of, op)

    def timed(self, system: Wire, inputs: Dict[str, Any]) -> Timed:
        # Looked up per execution, not bound at import: the traced pass
        # replaces this module's ``run_tick`` with a span-recording wrapper.
        tick = run_tick
        transport, state, index_of = system.transport, system.client, system.index_of
        schedule = inputs["schedule"]
        latencies: List[float] = []
        results: List[Any] = []
        clock = time.perf_counter
        cpu = CpuMarks(len(schedule))
        begin = clock()
        for index, op in enumerate(schedule):
            start = clock()
            replies = tick(transport, state, index_of, op)
            latencies.append(clock() - start)
            results.append(replies)
            cpu.after_call(index)
        wall = clock() - begin
        ops = sum(len(op[1]) for op in schedule)
        return Timed(latencies, results, ops, wall, cpu.chunks())

    def check(self, system: Wire, inputs: Dict[str, Any], timed: Timed) -> Verdict:
        verdict = Verdict()
        expected = {path: True for path in inputs["paths"]}
        for op, replies in zip(inputs["schedule"], timed.results):
            if op[0] == "l":
                found: Dict[str, bool] = {}
                for payload in replies:
                    found.update(payload.get("found", {}))
                for path in op[1]:
                    verdict.attempted += 1
                    if path not in found or bool(found[path]) != expected[path]:
                        verdict.fail(
                            f"lookup {path}: found={found.get(path)}, oracle {expected[path]}"
                        )
                verdict.stream.append(("l", [bool(found.get(path)) for path in op[1]]))
            else:
                outcomes = [o for payload in replies for o in payload.get("outcomes", [])]
                applied = {o["path"]: bool(o["applied"]) for o in outcomes}
                for path in op[1]:
                    verdict.attempted += 1
                    if not applied.get(path):
                        verdict.fail(f"mutation of {path} not acknowledged as applied")
                    else:
                        expected[path] = not expected[path]
                verdict.stream.append(("m", [applied.get(path, False) for path in op[1]]))
        # The lost-acknowledgement oracle: re-read every path over the wire.
        verdict.attempted += 1
        wrong = []
        for home, paths in by_home(inputs["paths"]):
            for start in range(0, len(paths), 128):
                chunk = paths[start : start + 128]
                reply = system.transport.request(home, verify_message(DRIVER_SENDER, chunk))
                found = reply.payload["found"]
                wrong.extend(p for p in chunk if bool(found.get(p)) != expected[p])
        if wrong:
            verdict.fail(f"final re-read differs from the oracle at {sorted(wrong)[:3]}")
        return verdict

    def restore(self, system: Wire, inputs: Dict[str, Any]) -> None:
        """Re-create what the execution left deleted, so that the next
        one meets the namespace this one met."""
        state = system.client
        deleted = [path for path, exists in state.exists.items() if not exists]
        for start in range(0, len(deleted), BULK_BATCH):
            run_tick(
                system.transport, state, system.index_of, ["m", deleted[start : start + BULK_BATCH]]
            )

    def counters(self, system: Wire) -> Dict[str, float]:
        stats = system.transport.stats()
        return {
            "rpcs": system.client.rpcs,
            "wire_lookups": system.client.lookups,
            "wire_mutations": system.client.mutations,
            "tcp_bytes": stats["bytes_in"] + stats["bytes_out"],
            "tcp_retries": system.transport.retries,
            "tcp_backpressure_stalls": stats["backpressure_stalls"],
        }

    def gauges(self, system: Wire) -> Dict[str, float]:
        return {"tcp_queue_high_water": system.transport.stats()["queue_high_water"]}

    def child_pids(self, system: Wire) -> List[int]:
        return list(system.pids)

    def probe(self, system: Wire, inputs: Dict[str, Any]) -> Dict[str, float]:
        """Three phases over one message list (home 0's VERIFY_BATCH
        requests): TCP round trips, the same messages to an
        in-process MDSNode, and the codec alone — plus the PING floor."""
        batches = [
            paths
            for op in inputs["schedule"]
            if op[0] == "l"
            for home, paths in by_home(op[1])
            if home == 0
        ][:PROBE_MESSAGES]
        clock = time.perf_counter

        def round_trips(transport, build) -> Tuple[List[float], List[Message]]:
            samples, replies = [], []
            for paths in batches:
                message = build(paths)
                start = clock()
                reply = transport.request(0, message)
                samples.append(clock() - start)
                replies.append(reply)
            return samples, replies

        tcp_rtt, replies = round_trips(system.transport, lambda p: verify_message(DRIVER_SENDER, p))
        ping_rtt, _ = round_trips(
            system.transport,
            lambda p: Message(kind=MessageKind.PING, sender=DRIVER_SENDER, payload={}),
        )
        inproc = InProcessTransport(default_timeout_s=RPC_TIMEOUT_S)
        node = MDSNode(0, GHBAConfig(), inproc, server=home_server(0, inputs["paths"]))
        node.start()
        try:
            inproc_rtt, _ = round_trips(inproc, lambda p: verify_message(DRIVER_SENDER, p))
        finally:
            node.stop()
        frames, encode_s, decode_s, frame_bytes = 0, 0.0, 0.0, 0
        for paths, reply in zip(batches, replies):
            request = verify_message(DRIVER_SENDER, paths)
            for message, expects_reply in ((request, True), (reply, False)):
                start = clock()
                frame = encode_frame(message, expects_reply)
                middle = clock()
                decode_frame(frame)
                end = clock()
                frames += 1
                encode_s += middle - start
                decode_s += end - middle
                frame_bytes += len(frame)
        tcp_p50 = percentile(tcp_rtt, 50)
        inproc_p50 = percentile(inproc_rtt, 50)
        return {
            "probe_messages": len(batches),
            "codec_encode_us_per_frame": encode_s / frames * 1e6,
            "codec_decode_us_per_frame": decode_s / frames * 1e6,
            "codec_bytes_per_frame": frame_bytes / frames,
            "tcp_rtt_p50_us": tcp_p50 * 1e6,
            "ping_rtt_p50_us": percentile(ping_rtt, 50) * 1e6,
            "inproc_rtt_p50_us": inproc_p50 * 1e6,
            "wire_overhead_share": 1.0 - inproc_p50 / tcp_p50,
        }

    def close(self, system: Wire) -> None:
        try:
            system.supervisor.stop_all(system.transport)
        finally:
            system.transport.close()
            shutil.rmtree(system.workdir, ignore_errors=True)
            os.sched_setaffinity(0, system.cpus)
