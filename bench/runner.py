"""Passes and runs.

A *pass* builds one workload's system from the seed in a fresh child
interpreter and *executes* a fixed op list against it one or more times:
warm up, time every call, check every answer.  A *run* is ``PASSES``
untraced passes of ``REPLAYS`` executions (end-to-end metrics, see
``run_end_to_end``) or one untraced plus one traced pass of one
execution each (per-layer metrics).
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Sequence

from bench import OUT_DIR, ROOT
from bench.stats import percentile, samples_beyond

#: End-to-end metrics, as BENCHMARK.json lists them.
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("call_p50_us", "us"),
    ("call_p99_us", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)
PASS_TIMEOUT_S = 170
#: Spans written to ``bench/out/<workload>.spans.jsonl`` per thread (the
#: ledger is computed from every span recorded, not from the file).
SPANS_FILE_LIMIT = 50_000


class BenchError(Exception):
    """A run that must not report numbers (wrong answer, digest
    mismatch, a span family that saw no calls, a dead child)."""


def _children_cpu_s(pids: List[int]) -> float:
    """user+sys CPU seconds of live child processes, from /proc."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0.0
    for pid in pids:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            # comm may contain spaces; the fields after ')' are fixed.
            fields = handle.read().rsplit(b")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / ticks
    return total


def _peak_rss_kib(pid: object = "self") -> int:
    """Peak resident set of a live process (``VmHWM``).

    Not ``ru_maxrss``: that figure survives ``exec``, so a small pass
    spawned by a large parent would report the parent's peak.
    """
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


def _digest(stream: List[Any], counters: Dict[str, float], unstable: Sequence[str]) -> str:
    """sha256 over the ordered answer stream plus the final counters."""
    stable = {k: v for k, v in counters.items() if k not in unstable}
    payload = json.dumps([stream, stable], sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def call_metrics(latencies_s: Sequence[float], ops: int) -> Dict[str, float]:
    """Throughput and latency percentiles from per-call samples.

    A closed-loop client's wall time is the time it spends inside calls;
    the benchmark's own loop between calls is left out.
    """
    return {
        "ops_per_s": ops / sum(latencies_s),
        "call_p50_us": percentile(latencies_s, 50) * 1e6,
        "call_p99_us": percentile(latencies_s, 99) * 1e6,
    }


def execute(workload, system: Any, inputs: Dict[str, Any], recorder=None):
    """One execution of a workload's op list against a built system:
    warm up, time, check.  Returns its JSON-able report and the raw
    ``Timed`` (spans are recorded in the timed phase only)."""
    start = time.perf_counter()
    workload.warm_up(system, inputs)
    warmup_s = time.perf_counter() - start
    pids = workload.child_pids(system)
    before = workload.counters(system)
    children_before = _children_cpu_s(pids)
    if recorder is not None:
        recorder.enabled = True
    timed = workload.timed(system, inputs)
    if recorder is not None:
        recorder.enabled = False
    children_cpu_s = _children_cpu_s(pids) - children_before
    after = workload.counters(system)
    counters = {key: after[key] - before.get(key, 0) for key in after}
    verdict = workload.check(system, inputs, timed)
    digest = _digest(verdict.stream, counters, workload.unstable_counters)
    counters.update(workload.gauges(system))
    counters["children_cpu_s"] = children_cpu_s
    children_rss = max((_peak_rss_kib(pid) for pid in pids), default=0)
    report = {
        "ops": timed.ops,
        "calls": len(timed.latencies_s),
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "examples": verdict.examples,
        "digest": digest,
        "counters": counters,
        "warmup_s": warmup_s,
        "latencies_ns": [int(sample * 1e9) for sample in timed.latencies_s],
        "cpu_chunks_ns": [int(chunk * 1e9) for chunk in timed.cpu_chunks_s],
        "children_cpu_s": children_cpu_s,
        "peak_rss_mb": (_peak_rss_kib() + children_rss) / 1024.0,
    }
    return report, timed


def _execute_in_fork(workload, system: Any, inputs: Dict[str, Any]) -> Dict[str, Any]:
    """``execute`` in a forked copy of this process; its report."""
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload, _ = execute(workload, system, inputs)
            except BaseException:
                payload = {"error": traceback.format_exc()}
            with os.fdopen(write_fd, "w", encoding="utf-8") as pipe:
                json.dump(payload, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, encoding="utf-8") as pipe:
            text = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        raise BenchError(f"{workload.name}: forked execution died (wait status {status})")
    report = json.loads(text)
    if "error" in report:
        raise BenchError(f"{workload.name}: forked execution failed\n{report['error']}")
    return report


def run_pass(
    workload_name: str, seed: int, seconds: float, traced: bool, replays: int
) -> Dict[str, Any]:
    """Execute one pass in this process; returns its JSON-able report.

    The pass builds the system once and executes the op list ``replays``
    times: in forked copies of the built system, or - a workload that
    cannot fork - in place, undoing each execution afterwards.  A traced
    pass executes once, in place, with the span wrappers on.
    """
    from bench import layers
    from bench.spans import SpanRecorder, merge_totals, root_seconds, self_times
    from bench.workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    inputs = workload.generate(seed, seconds)
    recorder = SpanRecorder()
    # Wrappers go in before the system exists, so nothing it builds can
    # hold a reference to an unwrapped entry point.
    patches = layers.install(recorder) if traced else None
    workdir = OUT_DIR / f"work-{workload_name}-{os.getpid()}"
    system = None
    executions: List[Dict[str, Any]] = []
    try:
        start = time.perf_counter()
        system = workload.build(inputs, seed, workdir)
        build_s = time.perf_counter() - start
        if traced:
            execution, timed = execute(workload, system, inputs, recorder)
            execution["counters"].update(workload.probe(system, inputs))
            executions.append(execution)
        else:
            for _ in range(replays):
                if workload.forks:
                    executions.append(_execute_in_fork(workload, system, inputs))
                else:
                    executions.append(execute(workload, system, inputs)[0])
                    workload.restore(system, inputs)
    finally:
        if system is not None:
            workload.close(system)
        if patches is not None:
            patches.remove()
    report: Dict[str, Any] = {
        "workload": workload_name,
        "seed": seed,
        "traced": traced,
        "build_s": build_s,
        "executions": executions,
    }
    if traced:
        threads = recorder.threads()
        totals = merge_totals(self_times(spans) for _, spans in threads)
        clients = [
            spans
            for thread, spans in threads
            if not thread.startswith(workload.background_threads)
        ]
        client_wall = timed.wall_s * max(1, len(clients))
        covered = sum(root_seconds(spans) for spans in clients)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        origin = min((spans[0].start for _, spans in threads if spans), default=0.0)
        report["spans_file"] = str(OUT_DIR / f"{workload_name}.spans.jsonl")
        report["spans"] = sum(len(spans) for _, spans in threads)
        report["spans_written"] = recorder.write_jsonl(
            report["spans_file"], origin, SPANS_FILE_LIMIT
        )
        report["span_totals"] = {
            name: {"calls": t.calls, "self_s": t.self_s, "total_s": t.total_s, "units": t.units}
            for name, t in sorted(totals.items())
        }
        # What the named spans do not cover is the benchmark's own loop;
        # so is the self time of spans around benchmark code (wire ticks).
        in_driver = sum(
            item.self_s for name, item in totals.items() if layers.family_of(name) == "driver"
        )
        report["driver_self_s"] = (client_wall - covered) + in_driver
        report["client_wall_s"] = client_wall
        report["covered_share"] = covered / client_wall
    return report


def spawn_pass(
    workload: str, seed: int, seconds: float, traced: bool, replays: int = 1
) -> Dict[str, Any]:
    """Run one pass in a fresh interpreter (``PYTHONHASHSEED=0``)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = [
        sys.executable,
        "-m",
        "bench",
        "pass",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        repr(seconds),
        "--trace",
        "1" if traced else "0",
        "--replays",
        str(replays),
    ]
    # Its own session, so that a pass that hangs or dies can be removed
    # together with the MDS processes it launched.
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        _kill_session(proc)
        raise BenchError(f"{workload}: pass exceeded {PASS_TIMEOUT_S}s") from exc
    if proc.returncode != 0:
        _kill_session(proc)
        raise BenchError(f"{workload}: pass exited {proc.returncode}\n{stderr.strip()[-2000:]}")
    return json.loads(stdout.splitlines()[-1])


def _kill_session(proc: subprocess.Popen) -> None:
    """SIGKILL whatever is left of a failed pass's process group."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _check_executions(workload: str, executions: List[Dict[str, Any]]) -> None:
    for report in executions:
        if report["failed"]:
            raise BenchError(
                f"{workload}: {report['failed']} of {report['attempted']} answers "
                f"disagree with the oracle, e.g. {report['examples']}"
            )
    digests = {report["digest"] for report in executions}
    if len(digests) != 1:
        raise BenchError(f"{workload}: executions disagree on the digest: {sorted(digests)}")
    counts = {(report["ops"], report["calls"], report["attempted"]) for report in executions}
    if len(counts) != 1:
        raise BenchError(f"{workload}: executions disagree on counts: {sorted(counts)}")


def _fastest(executions: List[Dict[str, Any]], key: str) -> List[int]:
    """Element by element, the smallest value any execution recorded."""
    return [min(samples) for samples in zip(*(report[key] for report in executions))]


def run_end_to_end(
    workload: str, seed: int, seconds: float, passes: int, replays: int
) -> Dict[str, Any]:
    """``passes`` untraced passes of ``replays`` executions, made into one run.

    Every execution replays identical calls against identical state with
    one closed-loop client, so call *i* is the same work in each.  Its
    latency is taken as the fastest of its executions, and throughput and
    percentiles are computed from those: interference from outside the
    program (this box's speed moves by 1.4x within seconds, in bursts
    that hit a tenth to a half of the calls) only ever adds time, while a
    cost the program itself incurs - an eviction scan, a flush - shows in
    every execution.  CPU time is folded the same way, chunk of calls by
    chunk of calls.  Set-up time and memory are medians of the passes.
    """
    reports = [
        spawn_pass(workload, seed, seconds, traced=False, replays=replays)
        for _ in range(passes)
    ]
    executions = [execution for report in reports for execution in report["executions"]]
    _check_executions(workload, executions)
    first = executions[0]
    ops = first["ops"]
    latencies_s = [sample / 1e9 for sample in _fastest(executions, "latencies_ns")]
    cpu_s = sum(_fastest(executions, "cpu_chunks_ns")) / 1e9 + min(
        execution["children_cpu_s"] for execution in executions
    )
    metrics = call_metrics(latencies_s, ops)
    metrics["cpu_us_per_op"] = cpu_s / ops * 1e6
    metrics["peak_rss_mb"] = median(
        max(execution["peak_rss_mb"] for execution in report["executions"]) for report in reports
    )
    # Warm-up belongs to set-up: it is where lazily built state gets built.
    metrics["setup_s"] = median(
        report["build_s"] + median(execution["warmup_s"] for execution in report["executions"])
        for report in reports
    )
    each = [
        call_metrics([ns / 1e9 for ns in execution["latencies_ns"]], ops)
        for execution in executions
    ]
    per_execution = {name: [values[name] for values in each] for name in each[0]}
    return {
        "workload": workload,
        "seed": seed,
        "passes": passes,
        "replays": replays,
        "ops": ops,
        "calls": first["calls"],
        "beyond_p99": samples_beyond(first["calls"], 99),
        "attempted": first["attempted"],
        "failed": 0,
        "failed_share": 0.0,
        "digest": first["digest"],
        "counters": first["counters"],
        "metrics": {name: metrics[name] for name, _ in END_TO_END},
        "per_execution": per_execution,
    }


def run_traced(
    workload: str,
    seed: int,
    seconds: float,
    untraced_ops_per_s: Optional[float] = None,
    strict: bool = True,
) -> Dict[str, Any]:
    """One traced pass of one execution (after an untraced one, unless a
    single untraced execution's rate is given): the per-layer metrics,
    the ledger and the tracing overhead.

    ``strict`` fails the run when a span family the workload is predicted
    to move recorded no call; a ``--quick`` run is too short for that
    (leases never expire in under a virtual second) and only lists them.
    """
    from bench import layers
    from bench.spans import NameTotals
    from bench.workloads import WORKLOADS

    def rate(execution: Dict[str, Any]) -> float:
        latencies_s = [ns / 1e9 for ns in execution["latencies_ns"]]
        return call_metrics(latencies_s, execution["ops"])["ops_per_s"]

    executions = []
    if untraced_ops_per_s is None:
        executions += spawn_pass(workload, seed, seconds, traced=False)["executions"]
        untraced_ops_per_s = rate(executions[0])
    report = spawn_pass(workload, seed, seconds, traced=True)
    (traced,) = report["executions"]
    _check_executions(workload, executions + [traced])
    totals = {name: NameTotals(**item) for name, item in report["span_totals"].items()}
    families = layers.by_family(totals)
    spec = WORKLOADS[workload]
    called = {name for name, item in families.items() if item.calls}
    silent = [name for name in spec.required if name not in called]
    if silent and strict:
        raise BenchError(f"{workload}: span families saw zero calls: {silent}")
    present = [name for name in spec.absent if name in called]
    if present:
        raise BenchError(f"{workload}: layers predicted off the path were called: {present}")
    overhead = 1.0 - rate(traced) / untraced_ops_per_s
    values = layers.layer_values(
        totals, traced["counters"], traced["ops"], report["driver_self_s"], overhead
    )
    ledger = {
        name: item.self_s / report["client_wall_s"] for name, item in sorted(families.items())
    }
    ledger["driver"] = report["driver_self_s"] / report["client_wall_s"]
    return {
        "workload": workload,
        "seed": seed,
        "ops": traced["ops"],
        "calls": traced["calls"],
        "attempted": traced["attempted"],
        "failed": 0,
        "digest": traced["digest"],
        "spans": report["spans"],
        "spans_written": report["spans_written"],
        "spans_file": report["spans_file"],
        "covered_share": report["covered_share"],
        "family_calls": {name: item.calls for name, item in sorted(families.items())},
        "silent_families": silent,
        "counters": traced["counters"],
        "ledger": ledger,
        "metrics": values,
    }


def run_metadata(seed: int, seconds: float) -> Dict[str, Any]:
    import platform

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=5,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "git_rev": rev,
        "seed": seed,
        "seconds": seconds,
        "transport": "loopback TCP (wire_mixed); everything else in-process",
    }


def out_path(name: str) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUT_DIR / name
