"""The three workloads: ``campaign``, ``serve`` and ``churn``.

Each runner sets up several times and keeps the median set-up time,
then measures for at least ``seconds`` and at least a fixed number of
samples, checks the program's outputs, and fills a :class:`Report`:
end-to-end metrics measured untraced, and - in a traced run - per-layer
metrics from a second, traced pass over the same inputs on a fresh
system, whose verdicts must match the untraced pass exactly.
"""

from __future__ import annotations

import gc
import json
import select
import signal
import statistics
import subprocess
import sys
import time
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import VerifAI
from repro.datalake.persistence import save_lake
from repro.obs.metrics import get_registry
from repro.serve.protocol import parse_object
from repro.text.tokenize import analyze_cache_clear
from repro.workloads import build_lake

import harness
import inputs
from harness import (
    Result, SpeedProbe, beyond, median, nearest_rank,
    ratio,
)
from layers import LayerTracer, install_program_layers
from openloop import HttpConnection, OpenLoop, Sample

#: set-ups per run; the median is reported
SETUP_REPEATS = 5
#: samples each run takes at least; the verdict digest and accuracy
#: cover exactly the first ones, so they repeat whatever the run length
MIN_ROUNDS = 200      # campaign rounds
MIN_REQUESTS = 1000   # served requests
MIN_READS = 2000      # churn reads
#: the tail percentile each workload reports.  Churn reads keep p99:
#: it lies deep among the reads that re-seal an index.  A run has a few
#: hundred campaign rounds, enough for p90.  Served requests report p90
#: too: on a shared 2-core host their p99 moved by a quarter between
#: runs of six seeds where their p90 moved by under a tenth
TAIL_ROUNDS = 90.0
TAIL_REQUESTS = 90.0
TAIL_READS = 99.0
#: seconds between host-speed readings in the churn loop
PROBE_EVERY = 0.05
#: offered load for ``serve``.  About 150 req/s is half of what two
#: quiet cores sustain, but when neighbours slow the host that rate
#: built a backlog of a second and more in some runs; at 100 req/s the
#: server keeps up through the slow stretches
SERVE_RATE = 100.0
SERVE_CONNECTIONS = 2
SERVE_CONCURRENCY = 2
#: reads checked against a freshly built system after churn
CHURN_RECHECK_READS = 20
#: unique served bodies re-verified in process after serve
SERVE_RECHECK_BODIES = 30
#: accuracy below this means the verdicts are broken, not just noisy
#: (observed: campaign ~0.71, churn ~0.74, serve ~0.41 - most served
#: "the C of S is V" claims come back NOT_RELATED)
ACCURACY_FLOOR = 0.25

LAUNCHER = Path(__file__).resolve().parent / "serve_launcher.py"


@dataclass
class Report:
    """Everything a run prints."""

    result: Result = field(default_factory=Result)
    identity: Dict[str, object] = field(default_factory=dict)
    detail: Dict[str, object] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _timings(
    report: Report, setup_s: float, rate: float, samples: Sequence[float],
    q: float,
) -> None:
    """setup_s, objects_per_s, latency_p50_ms and latency_tail_ms (the
    tail at percentile ``q``)."""
    if beyond(len(samples), q) < harness.MIN_BEYOND:
        raise RuntimeError(f"{len(samples)} samples cannot carry p{q:g}")
    report.detail.update({
        "latency_samples": len(samples),
        "latency_tail_percentile": q,
    })
    metric = report.result.metric
    metric("setup_s", setup_s, "s")
    metric("objects_per_s", rate, "objects/s")
    metric("latency_p50_ms", _ms(median(samples)), "ms")
    metric("latency_tail_ms", _ms(nearest_rank(samples, q)), "ms")


@dataclass
class _Setups:
    """Seconds of each set-up, its parts, and the host's slowdown
    around it."""

    seconds: List[float] = field(default_factory=list)
    parts: List[Dict[str, float]] = field(default_factory=list)
    slowdowns: List[float] = field(default_factory=list)

    def median_s(self) -> float:
        """Median set-up seconds, each divided by its slowdown."""
        return median([t / k for t, k in zip(self.seconds, self.slowdowns)])

    def part_medians(self) -> Dict[str, float]:
        """Median seconds of each part, as measured."""
        return {
            name: median([parts[name] for parts in self.parts])
            for name in self.parts[0]
        }


def _setups(
    make: Callable[[], Tuple[object, Dict[str, float]]], probe: SpeedProbe
) -> Tuple[object, _Setups]:
    """Run ``make`` SETUP_REPEATS times from cold process caches; return
    the last product and the timings, with the host speed read on
    either side of every set-up."""
    setups, product = _Setups(), None
    before = probe.burst()
    for _ in range(SETUP_REPEATS):
        product = None
        gc.collect()
        analyze_cache_clear()
        start = time.perf_counter()
        product, parts = make()
        setups.seconds.append(time.perf_counter() - start)
        setups.parts.append(parts)
        after = probe.burst()
        setups.slowdowns.append((before + after) / 2)
        before = after
    return product, setups


def _build_system():
    start = time.perf_counter()
    bundle = build_lake(inputs.lake_config())
    built = time.perf_counter()
    system = VerifAI(bundle.lake).build_indexes()
    return bundle, system, {
        "datalake.build_s": built - start,
        "indexer.build_s": time.perf_counter() - built,
    }


def _check_repeat(report: Report, key: str, value: str, store) -> None:
    earlier = store.check(key, value)
    report.result.check(
        earlier is None,
        f"verdict digest {value} differs from {earlier} recorded for "
        f"the same inputs ({key})",
    )


def _registry_ratio(before, after, name: str) -> float:
    hits = harness.counter_delta(before, after, f"{name}.hits")
    misses = harness.counter_delta(before, after, f"{name}.misses")
    return ratio(hits, hits + misses)


def _layer_metrics(
    stats: Dict[str, Dict[str, float]], ops: int
) -> Dict[str, float]:
    """Per-op self seconds, calls and work items of the wrapped calls."""
    def per_op(name: str, key: str) -> float:
        return ratio(stats.get(name, {}).get(key, 0.0), ops)

    return {
        "index.seal_s": per_op("index.seal", "self_s"),
        "index.seal_calls": per_op("index.seal", "calls"),
        "indexer.search_s": per_op("indexer.search", "self_s"),
        "indexer.search_calls": per_op("indexer.search", "calls"),
        "indexer.search_batch_s": per_op("indexer.search_batch", "self_s"),
        "indexer.search_batch_queries": per_op(
            "indexer.search_batch", "items"
        ),
        "batch.prefill_s": per_op("batch.prefill", "self_s"),
        "batch.run_s": per_op("batch.run", "self_s"),
        "indexer.update_s": per_op("indexer.update", "self_s"),
        "indexer.updates": per_op("indexer.update", "calls"),
        "datalake.update_s": per_op("datalake.update", "self_s"),
        "datalake.instance_s": per_op("datalake.instance", "self_s"),
        "verifier.verify_pool_s": per_op("verifier.verify_pool", "self_s"),
        "verifier.pairs": per_op("verifier.verify_pool", "items"),
        "verify.agent_s": per_op("verify.agent", "self_s"),
        "verify.agent_calls": per_op("verify.agent", "calls"),
        "llm.chat_s": per_op("llm.chat", "self_s"),
        "llm.chat_calls": per_op("llm.chat", "calls"),
        "pipeline.verify_s": per_op("pipeline.verify", "self_s"),
        "pipeline.update_s": per_op("pipeline.update", "self_s"),
    }


def _cache_ratios(before, after) -> Dict[str, float]:
    return {
        "indexer.payload_cache.hit_ratio": _registry_ratio(
            before, after, "indexer.payload_cache"
        ),
        "text.analyze_cache.hit_ratio": _registry_ratio(
            before, after, "text.analyze_cache"
        ),
        "verifier.cache.hit_ratio": _registry_ratio(
            before, after, "verifier.cache"
        ),
    }


# ======================================================================
# campaign
# ======================================================================
@dataclass
class _CampaignPass:
    walls: List[float] = field(default_factory=list)
    objects: int = 0
    verdicts: List[list] = field(default_factory=list)
    correct: int = 0
    judged: int = 0
    failed: int = 0
    dedup_hits: int = 0
    retrievals: int = 0
    batch_failed: int = 0
    batch_retries: int = 0
    #: provenance records written and left open, over every system used
    records: int = 0
    open_records: int = 0
    #: systems built (untimed) after the object supply ran out
    restarts: int = 0
    #: when each round started
    starts: List[float] = field(default_factory=list)


def _campaign_pass(
    holder: Dict[str, VerifAI], data: inputs.CampaignInputs,
    seconds: float, probe: SpeedProbe, rounds: Optional[int] = None,
) -> _CampaignPass:
    """Verify round after round (one ``verify_batch`` each) with
    ``holder["system"]`` until ``seconds`` and MIN_ROUNDS have passed,
    or exactly ``rounds``; read the host speed before each round.

    When every round has been verified once, a fresh system (built
    outside the timed region) replaces the one in ``holder`` and starts
    over from the first round, so each verified object is still new to
    the system verifying it."""
    system = holder.pop("system")
    out = _CampaignPass()
    elapsed = 0.0
    index = 0
    while True:
        if rounds is not None:
            if index >= rounds:
                break
        elif index >= MIN_ROUNDS and elapsed >= seconds:
            break
        position = index % len(data.rounds)
        if index and not position:
            out.records += len(system.provenance)
            out.open_records += len(system.provenance.open_records())
            system = None
            gc.collect()
            _, system, _ = _build_system()
            out.restarts += 1
        objs = data.rounds[position]
        probe.read()
        start = time.perf_counter()
        out.starts.append(start)
        batch = system.verify_batch(objs)
        wall = time.perf_counter() - start
        elapsed += wall
        out.walls.append(wall)
        out.objects += len(objs)
        for report, gold in zip(batch.reports, data.gold[position]):
            if index < MIN_ROUNDS:
                out.verdicts.append([
                    report.object_id, report.final_verdict.name,
                    report.status,
                ])
                out.judged += 1
                out.correct += report.final_verdict.name == gold
            out.failed += not report.ok
        stats = batch.stats
        out.dedup_hits += stats.retrieval_cache_hits
        out.retrievals += stats.retrieval_cache_hits + stats.unique_retrievals
        out.batch_failed += stats.failed
        out.batch_retries += stats.retries
        index += 1
    out.records += len(system.provenance)
    out.open_records += len(system.provenance.open_records())
    holder["system"] = system
    return out


def run_campaign(seed: int, seconds: float, trace: bool, store) -> Report:
    report = Report()
    result = report.result
    first = build_lake(inputs.lake_config())
    data = inputs.campaign_inputs(first, seed)
    del first

    def make():
        bundle, system, parts = _build_system()
        for objs in data.warmup:
            system.verify_batch(objs)
        return system, parts

    probe = SpeedProbe()
    system, setups = _setups(make, probe)
    report.identity.update({
        "lake": inputs.lake_identity(system.lake),
        "round_objects": inputs.ROUND_TUPLES + inputs.ROUND_CLAIMS,
        "rounds_available": len(data.rounds),
        "objects_available": data.objects,
        "claim_share": inputs.ROUND_CLAIMS / (
            inputs.ROUND_TUPLES + inputs.ROUND_CLAIMS
        ),
        "mix_digest": data.digest,
    })
    phase = seconds / 2 if trace else seconds
    holder = {"system": system}
    del system
    gc.collect()
    untraced = _campaign_pass(holder, data, phase, probe)
    result.attempted += untraced.objects
    result.failed += untraced.failed
    result.check(
        len(untraced.walls) >= MIN_ROUNDS,
        f"only {len(untraced.walls)} rounds of inputs, need {MIN_ROUNDS}",
    )
    accuracy = ratio(untraced.correct, untraced.judged)
    digest = harness.digest(untraced.verdicts)
    result.check(
        accuracy >= ACCURACY_FLOOR,
        f"campaign accuracy {accuracy:.4f} below {ACCURACY_FLOOR}",
    )
    result.check(
        untraced.open_records == 0,
        f"{untraced.open_records} provenance records left open",
    )
    _check_repeat(report, f"campaign/{seed}/{data.digest}", digest, store)
    report.detail.update({
        "rounds": len(untraced.walls),
        "objects": untraced.objects,
        "verdict_digest": digest,
        "failed_share": ratio(untraced.failed, untraced.objects),
        "supply_restarts": untraced.restarts,
    })

    # round times divided by the host's slowdown in their second (see
    # harness.SpeedProbe); the detail line keeps the measured rate
    slowdowns = probe.slowdowns_at(untraced.starts)
    walls = [w / k for w, k in zip(untraced.walls, slowdowns)]
    report.detail.update({
        "host_slowdown": median(slowdowns),
        "measured_objects_per_s": untraced.objects / sum(untraced.walls),
    })
    _timings(
        report, setups.median_s(), untraced.objects / sum(walls), walls,
        TAIL_ROUNDS,
    )
    result.metric("accuracy", accuracy, "fraction")
    result.metric("peak_rss_mb", harness.peak_rss_mb(), "MiB")

    if not trace:
        return report
    # traced pass: the same rounds on a fresh system
    holder.clear()
    gc.collect()
    analyze_cache_clear()
    _, fresh, _ = _build_system()
    for objs in data.warmup:
        fresh.verify_batch(objs)
    holder["system"] = fresh
    del fresh
    tracer = LayerTracer()
    install_program_layers(tracer)
    before = get_registry().snapshot()
    traced_probe = SpeedProbe()
    try:
        traced = _campaign_pass(
            holder, data, phase, traced_probe, rounds=len(untraced.walls)
        )
    finally:
        tracer.uninstall()
    after = get_registry().snapshot()
    traced_digest = harness.digest(traced.verdicts)
    result.check(
        traced_digest == digest,
        f"traced verdict digest {traced_digest} != untraced {digest}",
    )
    wall = sum(traced.walls)
    stats = tracer.stats()
    # index builds after a supply restart run outside the timed rounds
    covered = tracer.root_seconds() - stats.get(
        "indexer.build", {}
    ).get("total_s", 0.0)
    report.layers.update(setups.part_medians())
    report.layers.update(_layer_metrics(stats, traced.objects))
    report.layers.update(_cache_ratios(before, after))
    report.layers.update({
        "batch.dedup_ratio": ratio(traced.dedup_hits, traced.retrievals),
        "batch.failed": traced.batch_failed,
        "batch.retries": traced.batch_retries,
        "provenance.records": traced.records,
        "provenance.open_records": traced.open_records,
        "obs.trace_overhead_ratio": sum(
            w / k for w, k in zip(
                traced.walls, traced_probe.slowdowns_at(traced.starts)
            )
        ) / sum(walls),
        "obs.attributed_share": ratio(covered, wall),
        "ops": traced.objects,
    })
    return report


# ======================================================================
# churn
# ======================================================================
@dataclass
class _ChurnPass:
    reads: List[float] = field(default_factory=list)
    writes: List[float] = field(default_factory=list)
    #: when each read / write started
    read_starts: List[float] = field(default_factory=list)
    write_starts: List[float] = field(default_factory=list)
    ops: List[inputs.ChurnOp] = field(default_factory=list)
    verdicts: List[list] = field(default_factory=list)
    correct: int = 0
    failed: int = 0


def _churn_pass(
    system: VerifAI, seed: int, seconds: float, probe: SpeedProbe,
    count: Optional[int] = None,
) -> Tuple[_ChurnPass, inputs.ChurnStream]:
    """One closed-loop client: the next operation only after the last
    returned, until ``seconds`` and MIN_READS have passed, or exactly
    ``count`` ops; read the host speed every PROBE_EVERY seconds."""
    out = _ChurnPass()
    stream = inputs.ChurnStream(system.lake, seed)
    begin = last_read = time.perf_counter()
    probe.read()
    while True:
        now = time.perf_counter()
        if count is not None:
            if len(out.ops) >= count:
                break
        elif len(out.reads) >= MIN_READS and now - begin >= seconds:
            break
        if now - last_read >= PROBE_EVERY:
            probe.read()
            last_read = time.perf_counter()
        op = stream.next()
        out.ops.append(op)
        if op.kind == "write":
            start = time.perf_counter()
            system.update_instance(op.instance)
            out.writes.append(time.perf_counter() - start)
            out.write_starts.append(start)
            continue
        start = time.perf_counter()
        verified = system.verify(op.obj)
        out.reads.append(time.perf_counter() - start)
        out.read_starts.append(start)
        out.failed += not verified.ok
        if len(out.verdicts) < MIN_READS:
            out.verdicts.append([
                op.obj.object_id, verified.final_verdict.name,
                verified.status,
            ])
            out.correct += verified.final_verdict.name == op.gold
    return out, stream


def _churn_warmup(system: VerifAI, seed: int) -> None:
    """A few reads (no writes) from a stream of another seed."""
    stream = inputs.ChurnStream(system.lake, seed + 1_000_003)
    done = 0
    while done < 24:
        op = stream.next()
        if op.kind == "read":
            system.verify(op.obj)
            done += 1


def run_churn(seed: int, seconds: float, trace: bool, store) -> Report:
    report = Report()
    result = report.result

    def make():
        bundle, system, parts = _build_system()
        _churn_warmup(system, seed)
        return system, parts

    probe = SpeedProbe()
    system, setups = _setups(make, probe)
    report.identity.update({
        "lake": inputs.lake_identity(system.lake),
        "write_share": 1 / inputs.WRITE_EVERY,
    })
    phase = seconds / 2 if trace else seconds
    gc.collect()
    untraced, stream = _churn_pass(system, seed, phase, probe)
    ops = len(untraced.ops)
    result.attempted += ops
    result.failed += untraced.failed
    accuracy = ratio(untraced.correct, len(untraced.verdicts))
    digest = harness.digest(untraced.verdicts)
    prefix = untraced.ops[:_ops_to_reads(untraced.ops, MIN_READS)]
    mix = inputs.ops_digest(prefix)
    report.identity.update({
        "ops": ops,
        "reads": len(untraced.reads),
        "writes": len(untraced.writes),
        "mix_digest": mix,
    })
    result.check(
        accuracy >= ACCURACY_FLOOR,
        f"churn accuracy {accuracy:.4f} below {ACCURACY_FLOOR}",
    )
    _check_repeat(report, f"churn/{seed}/{mix}", digest, store)
    # mutation == rebuild: the live system and one built from scratch
    # over the mutated lake must agree on the next reads
    rebuilt = VerifAI(system.lake).build_indexes()
    mismatched = 0
    checked = 0
    while checked < CHURN_RECHECK_READS:
        op = stream.next()
        if op.kind != "read":
            continue
        checked += 1
        live, cold = system.verify(op.obj), rebuilt.verify(op.obj)
        mismatched += (
            live.final_verdict is not cold.final_verdict
            or live.evidence_ids != cold.evidence_ids
        )
    result.check(
        mismatched == 0,
        f"{mismatched}/{checked} reads differ between the mutated system "
        "and one rebuilt from the same lake",
    )
    del rebuilt
    open_records = len(system.provenance.open_records())
    result.check(
        open_records == 0, f"{open_records} provenance records left open"
    )
    # operation times divided by the host's slowdown in their second
    # (see harness.SpeedProbe); the detail line keeps the measured rate
    busy = sum(untraced.reads) + sum(untraced.writes)
    read_slowdowns = probe.slowdowns_at(untraced.read_starts)
    reads = [t / k for t, k in zip(untraced.reads, read_slowdowns)]
    writes = [
        t / k for t, k in zip(
            untraced.writes, probe.slowdowns_at(untraced.write_starts)
        )
    ]
    report.detail.update({
        "verdict_digest": digest,
        "failed_share": ratio(untraced.failed, ops),
        "write_p50_ms": _ms(median(writes)),
        "write_p90_ms": _ms(nearest_rank(writes, 90)),
        "host_slowdown": median(read_slowdowns),
        "measured_objects_per_s": len(reads) / busy,
    })
    # reads verified per second of program time, writes included
    _timings(
        report, setups.median_s(), len(reads) / (sum(reads) + sum(writes)),
        reads, TAIL_READS,
    )
    result.metric("accuracy", accuracy, "fraction")
    result.metric("peak_rss_mb", harness.peak_rss_mb(), "MiB")

    if not trace:
        return report
    del system
    gc.collect()
    analyze_cache_clear()
    _, fresh, _ = _build_system()
    _churn_warmup(fresh, seed)
    tracer = LayerTracer()
    install_program_layers(tracer)
    before = get_registry().snapshot()
    try:
        traced_probe = SpeedProbe()
        traced, _ = _churn_pass(fresh, seed, phase, traced_probe, count=ops)
    finally:
        tracer.uninstall()
    after = get_registry().snapshot()
    traced_digest = harness.digest(traced.verdicts)
    result.check(
        traced_digest == digest,
        f"traced verdict digest {traced_digest} != untraced {digest}",
    )
    traced_busy = sum(traced.reads) + sum(traced.writes)
    report.layers.update(setups.part_medians())
    report.layers.update(_layer_metrics(tracer.stats(), ops))
    report.layers.update(_cache_ratios(before, after))
    report.layers.update({
        "provenance.records": len(fresh.provenance),
        "provenance.open_records": len(fresh.provenance.open_records()),
        "churn.write_p50_ms": _ms(median(traced.writes)),
        "churn.write_p90_ms": _ms(nearest_rank(traced.writes, 90)),
        "obs.trace_overhead_ratio": _normalized_busy(traced_probe, traced)
        / _normalized_busy(probe, untraced),
        "obs.attributed_share": ratio(tracer.root_seconds(), traced_busy),
        "ops": ops,
    })
    return report


def _normalized_busy(probe: SpeedProbe, run: _ChurnPass) -> float:
    """Seconds the pass spent in the program, each operation divided by
    the host's slowdown in its second."""
    times = run.reads + run.writes
    starts = run.read_starts + run.write_starts
    return sum(t / k for t, k in zip(times, probe.slowdowns_at(starts)))


def _ops_to_reads(ops: Sequence[inputs.ChurnOp], reads: int) -> int:
    """Length of the shortest prefix of ``ops`` holding ``reads`` reads."""
    seen = 0
    for index, op in enumerate(ops):
        seen += op.kind == "read"
        if seen >= reads:
            return index + 1
    return len(ops)


# ======================================================================
# serve
# ======================================================================
class ServerProcess:
    """``repro serve`` in a child process started by the launcher."""

    def __init__(self, lake_path: Path, name: str, trace: bool) -> None:
        self.stats_path = harness.WORK / f"{name}.stats.json"
        self.log_path = harness.WORK / f"{name}.log"
        self.stats_path.unlink(missing_ok=True)
        command = [
            sys.executable, "-u", str(LAUNCHER),
            "--stats", str(self.stats_path),
        ]
        if trace:
            command.append("--trace")
        command += [
            "--", "--lake", str(lake_path), "--port", "0",
            "--concurrency", str(SERVE_CONCURRENCY),
        ]
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            command, cwd=harness.ROOT, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        self.host, self.port = "", 0

    def wait_ready(self, timeout: float = 120.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if line.startswith("serving ") and "http://" in line:
                    address = line.split("http://", 1)[1].split()[0]
                    self.host, port = address.rsplit(":", 1)
                    self.port = int(port)
                    break
            elif self.proc.poll() is not None:
                break
        if not self.port:
            self.stop()
            raise RuntimeError(
                f"server did not start: {self.log_path.read_text()[-2000:]}"
            )
        connection = self.connection()
        try:
            status, _ = connection.request("GET", "/healthz")
        finally:
            connection.close()
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")

    def connection(self) -> HttpConnection:
        return HttpConnection(self.host, self.port)

    def end_setup(self, timeout: float = 30.0) -> None:
        """Tell the launcher set-up is over; wait until it has noted it."""
        marker = self.stats_path.with_suffix(".setup")
        marker.unlink(missing_ok=True)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while not marker.exists():
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("server did not acknowledge end of set-up")
            time.sleep(0.01)

    def stop(self) -> Dict[str, object]:
        """Interrupt the server, wait for it, return the launcher stats."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self._log.close()
        try:
            return json.loads(self.stats_path.read_text())
        except FileNotFoundError:
            return {}


def _metrics_scrape(connection: HttpConnection) -> Dict[str, float]:
    """Counters of ``GET /metrics`` keyed by dotted instrument name."""
    status, body = connection.request("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    values = {}
    for line in body.decode("utf-8").splitlines():
        if line.startswith("#") or "{" in line or not line.strip():
            continue
        name, value = line.split()
        values[name] = float(value)
    return values


def _prom_ratio(before, after, name: str) -> float:
    flat = "repro_" + name.replace(".", "_")
    hits = harness.counter_delta(before, after, f"{flat}_hits")
    misses = harness.counter_delta(before, after, f"{flat}_misses")
    return ratio(hits, hits + misses)


@dataclass
class _ServePass:
    samples: List[Sample]
    objects: int = 0
    failed: int = 0
    shed: int = 0
    verdicts: List[list] = field(default_factory=list)
    #: object kind -> [right, judged] over distinct bodies
    judged: Dict[str, List[int]] = field(default_factory=dict)
    dedup_hits: int = 0
    retrievals: int = 0
    batch_failed: int = 0
    batch_retries: int = 0
    trace_ids: List[Tuple[int, str]] = field(default_factory=list)
    #: repeats of a body whose verdicts differ from its first answer
    inconsistent: int = 0

    @property
    def accuracy(self) -> float:
        """Mean over object kinds of each kind's accuracy, so the share
        of claims a seed happens to draw into batches does not move it
        (served claims are far harder than tuples)."""
        return statistics.mean(
            ratio(right, judged) for right, judged in self.judged.values()
        )


def _send(connection: HttpConnection, request) -> Tuple[int, bytes]:
    return connection.request(request.method, request.path, request.body)


def _serve_pass(
    server: ServerProcess, data: inputs.ServeInputs, gold: inputs.ServeGold
) -> _ServePass:
    loop = OpenLoop(
        SERVE_RATE, SERVE_CONNECTIONS, server.connection, _send
    )
    out = _ServePass(loop.run(data.requests))
    first_verdicts: Dict[bytes, List[str]] = {}
    for sample in out.samples:
        request = data.requests[sample.index]
        payload = json.loads(request.body)
        bodies = payload.get("objects", [payload])
        golds = gold.verdicts(payload)
        if sample.status != 200:
            out.failed += len(golds)
            out.shed += sample.status == 429
            continue
        body = json.loads(sample.body)
        reports = body["reports"] if "reports" in body else [body]
        out.objects += len(reports)
        out.trace_ids.append((sample.index, body["trace_id"]))
        if "stats" in body:
            stats = body["stats"]
            out.dedup_hits += stats["retrieval_cache_hits"]
            out.retrievals += (
                stats["retrieval_cache_hits"] + stats["unique_retrievals"]
            )
            out.batch_failed += stats["failed"]
            out.batch_retries += stats["retries"]
        verdicts = [reply["verdict"] for reply in reports]
        first = first_verdicts.setdefault(request.body, verdicts)
        if first is not verdicts and first != verdicts:
            out.inconsistent += 1
        for reply, expected, asked in zip(reports, golds, bodies):
            out.failed += reply["status"] != "OK"
            if sample.index < MIN_REQUESTS:
                out.verdicts.append(
                    [sample.index, reply["verdict"], reply["status"]]
                )
            # accuracy counts each distinct body once, over the whole
            # schedule (its length is fixed by --seconds)
            if first is verdicts and expected is not None:
                tally = out.judged.setdefault(asked["kind"], [0, 0])
                tally[0] += reply["verdict"] == expected
                tally[1] += 1
    return out


def _warm(server: ServerProcess, requests) -> None:
    connection = server.connection()
    try:
        for request in requests:
            status, _ = _send(connection, request)
            if status != 200:
                raise RuntimeError(f"warm-up request answered {status}")
    finally:
        connection.close()


def _server_side(
    server: ServerProcess, run: _ServePass, limit: int = 200
) -> Dict[str, float]:
    """Root-span durations from /trace and queue waits from
    /debug/events for the last ``limit`` served requests."""
    connection = server.connection()
    dispatch, outside = [], []
    try:
        by_index = {s.index: s for s in run.samples}
        for index, trace_id in run.trace_ids[-limit:]:
            status, body = connection.request(
                "GET", "/trace/" + urllib.parse.quote(trace_id)
            )
            if status != 200:
                raise RuntimeError(f"/trace/{trace_id} answered {status}")
            spans = json.loads(body)["spans"]
            root = next(s for s in spans if not s.get("parent_id"))
            seconds = root["duration"]
            dispatch.append(seconds)
            outside.append(by_index[index].service - seconds)
        status, body = connection.request(
            "GET", "/debug/events?kind=admission.admitted"
        )
        if status != 200:
            raise RuntimeError(f"/debug/events answered {status}")
        waits = [
            event["fields"]["queue_wait_seconds"]
            for event in json.loads(body)["events"]
        ]
    finally:
        connection.close()
    return {
        "serve.dispatch_s": median(dispatch),
        "serve.outside_s": median(outside),
        "serve.queue_wait_s": sum(waits) / len(waits) if waits else 0.0,
    }


def _route_p99(run: _ServePass, data: inputs.ServeInputs, path: str):
    values = [
        s.latency for s in run.samples
        if data.requests[s.index].path == path
    ]
    return _ms(nearest_rank(values, 99)) if values else 0.0


def run_serve(seed: int, seconds: float, trace: bool, store) -> Report:
    report = Report()
    result = report.result
    harness.WORK.mkdir(parents=True, exist_ok=True)
    lake_path = harness.WORK / f"serve-lake-{seed}.json"
    phase = seconds / 2 if trace else seconds
    count = max(MIN_REQUESTS, 10 * round(SERVE_RATE * phase / 10))
    bundle = build_lake(inputs.lake_config())
    data = inputs.serve_inputs(bundle.lake, seed, count)
    gold = inputs.ServeGold(bundle.lake)
    state = {}

    def make():
        start = time.perf_counter()
        save_lake(build_lake(inputs.lake_config()).lake, str(lake_path))
        built = time.perf_counter()
        server = ServerProcess(lake_path, "serve", trace=False)
        try:
            server.wait_ready()
            _warm(server, data.warmup)
        except BaseException:
            server.stop()
            raise
        if "server" in state:
            state["server"].stop()
        state["server"] = server
        return server, {
            "datalake.build_s": built - start,
            "serve.ready_s": time.perf_counter() - built,
        }

    probe = SpeedProbe()
    try:
        server, setups = _setups(make, probe)
    except BaseException:
        if "server" in state:
            state["server"].stop()
        raise
    report.identity.update({
        "lake": inputs.lake_identity(bundle.lake),
        "requests": len(data.requests),
        "unique_bodies": data.unique,
        "rate_per_s": SERVE_RATE,
        "connections": SERVE_CONNECTIONS,
        "mix_digest": data.digest,
    })
    try:
        connection = server.connection()
        before = _metrics_scrape(connection)
        connection.close()
        untraced = _serve_pass(server, data, gold)
        connection = server.connection()
        after = _metrics_scrape(connection)
        connection.close()
        side = _server_side(server, untraced)
    finally:
        stats = server.stop()
    _check_serve(report, untraced, stats, seed, data, store)
    first_due = min(s.due for s in untraced.samples)
    last_done = max(s.done for s in untraced.samples)
    samples = untraced.samples
    latencies = [s.latency for s in samples]
    report.detail.update({
        "failed_share": ratio(untraced.failed, untraced.objects
                              + untraced.failed),
        "latency_p99_ms": _ms(nearest_rank(latencies, 99)),
        "late_p99_ms": _ms(nearest_rank([s.late for s in samples], 99)),
        "shed": untraced.shed,
        "dispatch_p50_ms": _ms(side["serve.dispatch_s"]),
    })
    # at a fixed offered rate objects_per_s falls only when the server
    # falls behind
    # latencies stay as measured: dividing them by the host slowdown read
    # around the requests spread them more between runs, not less
    _timings(
        report, setups.median_s(),
        untraced.objects / (last_done - first_due), latencies,
        TAIL_REQUESTS,
    )
    result.metric(
        "accuracy", untraced.accuracy, "fraction"
    )
    result.metric("peak_rss_mb", float(stats.get("peak_rss_mb", 0.0)), "MiB")
    _recheck_in_process(report, bundle, data, untraced)

    if not trace:
        return report
    traced_server = ServerProcess(lake_path, "serve-traced", trace=True)
    try:
        traced_server.wait_ready()
        _warm(traced_server, data.warmup)
        connection = traced_server.connection()
        t_before = _metrics_scrape(connection)
        connection.close()
        traced_server.end_setup()
        traced = _serve_pass(traced_server, data, gold)
        connection = traced_server.connection()
        t_after = _metrics_scrape(connection)
        connection.close()
        t_side = _server_side(traced_server, traced)
    finally:
        t_stats = traced_server.stop()
    traced_digest = harness.digest(traced.verdicts)
    result.check(
        traced_digest == report.detail["verdict_digest"],
        f"traced verdict digest {traced_digest} != untraced "
        f"{report.detail['verdict_digest']}",
    )
    requests = len(traced.samples)
    service = sum(s.service for s in traced.samples)
    report.layers.update(setups.part_medians())
    report.layers.update(_layer_metrics(t_stats.get("layers", {}), requests))
    report.layers["indexer.build_s"] = (
        t_stats.get("setup_layers", {})
        .get("indexer.build", {}).get("total_s", 0.0)
    )
    report.layers.update({
        "indexer.payload_cache.hit_ratio": _prom_ratio(
            t_before, t_after, "indexer.payload_cache"
        ),
        "text.analyze_cache.hit_ratio": _prom_ratio(
            t_before, t_after, "text.analyze_cache"
        ),
        "verifier.cache.hit_ratio": _prom_ratio(
            t_before, t_after, "verifier.cache"
        ),
        "batch.dedup_ratio": ratio(traced.dedup_hits, traced.retrievals),
        "batch.failed": traced.batch_failed,
        "batch.retries": traced.batch_retries,
        "provenance.records": t_stats.get("provenance_records", 0),
        "provenance.open_records": t_stats.get("open_records", 0),
        "serve.route.verify_p99_ms": _route_p99(traced, data, "/verify"),
        "serve.route.verify-batch_p99_ms": _route_p99(
            traced, data, "/verify-batch"
        ),
        "serve.shed": traced.shed,
        "loadgen.late_p99_ms": _ms(
            nearest_rank([s.late for s in traced.samples], 99)
        ),
        "obs.trace_overhead_ratio": service / sum(
            s.service for s in untraced.samples
        ),
        "obs.attributed_share": ratio(
            t_stats.get("root_seconds", 0.0), service
        ),
        "ops": requests,
    })
    report.layers.update(t_side)
    report.detail["verifier_cache_hit_ratio_untraced"] = _prom_ratio(
        before, after, "verifier.cache"
    )
    return report


def _check_serve(report, run, stats, seed, data, store) -> None:
    result = report.result
    result.attempted += run.objects + run.failed
    result.failed += run.failed
    accuracy = run.accuracy
    digest = harness.digest(run.verdicts)
    report.detail["verdict_digest"] = digest
    result.check(
        len(run.samples) == len(data.requests),
        f"{len(run.samples)} of {len(data.requests)} requests completed",
    )
    result.check(
        accuracy >= ACCURACY_FLOOR,
        f"serve accuracy {accuracy:.4f} below {ACCURACY_FLOOR}",
    )
    result.check(
        run.inconsistent == 0,
        f"{run.inconsistent} repeated bodies got other verdicts than "
        "their first answer",
    )
    result.check(
        stats.get("exit_code") == 0, f"server exited with {stats!r}"
    )
    result.check(
        stats.get("open_records", 1) == 0,
        f"{stats.get('open_records')} provenance records left open",
    )
    _check_repeat(report, f"serve/{seed}/{data.digest}", digest, store)


def _recheck_in_process(report, bundle, data, run) -> None:
    """Served verdicts must equal an in-process ``VerifAI.verify`` of
    the same bodies on a system of its own."""
    system = VerifAI(bundle.lake).build_indexes()
    served = {}
    for sample in run.samples:
        if sample.status == 200 and len(served) < SERVE_RECHECK_BODIES:
            request = data.requests[sample.index]
            if request.path == "/verify" and request.body not in served:
                served[request.body] = json.loads(sample.body)["verdict"]
    mismatched = 0
    for body, verdict in served.items():
        obj = parse_object(json.loads(body), bundle.lake, "recheck")
        mismatched += system.verify(obj).final_verdict.name != verdict
    report.result.check(
        mismatched == 0,
        f"{mismatched}/{len(served)} served verdicts differ from "
        "in-process verification",
    )


WORKLOADS = {
    "campaign": run_campaign,
    "serve": run_serve,
    "churn": run_churn,
}
