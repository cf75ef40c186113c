"""Unit tests of the benchmark harness itself.

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import harness

harness.use_program_sources()

import inputs  # noqa: E402  (needs the program's sources on the path)
from harness import (  # noqa: E402
    DigestStore,
    SpeedProbe,
    beyond,
    nearest_rank,
)
from layers import LayerTracer  # noqa: E402
from openloop import OpenLoop  # noqa: E402

from repro.workloads import build_lake  # noqa: E402


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def test_nearest_rank_picks_the_smallest_sample_covering_q():
    values = [float(v) for v in range(1, 101)]  # 1..100
    assert nearest_rank(values, 50) == 50.0
    assert nearest_rank(values, 99) == 99.0
    assert nearest_rank(values, 100) == 100.0
    assert nearest_rank([5.0], 99) == 5.0
    # order of the input does not matter
    assert nearest_rank(list(reversed(values)), 90) == 90.0
    # ceil(0.5 * 3) = 2nd smallest
    assert nearest_rank([3.0, 1.0, 2.0], 50) == 2.0


def test_nearest_rank_rejects_bad_input():
    import pytest

    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 101)


def test_beyond_counts_samples_above_the_nearest_rank():
    assert beyond(1000, 99) == 10
    assert beyond(999, 99) == 9
    assert beyond(100, 90) == 10
    assert beyond(99, 90) == 9
    assert beyond(10000, 99.9) == 10
    values = [float(v) for v in range(1000)]
    q99 = nearest_rank(values, 99)
    assert sum(v > q99 for v in values) == beyond(1000, 99)


def test_every_reported_tail_keeps_ten_samples_beyond():
    import workloads

    pairs = [
        (workloads.MIN_ROUNDS, workloads.TAIL_ROUNDS),
        (workloads.MIN_READS, workloads.TAIL_READS),
        (workloads.MIN_REQUESTS, workloads.TAIL_REQUESTS),
    ]
    for samples, q in pairs:
        assert beyond(samples, q) >= harness.MIN_BEYOND


# ----------------------------------------------------------------------
# due-time latency under a fake clock
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_open_loop_times_requests_from_their_due_time():
    clock = FakeClock()
    service = [0.01, 0.5, 0.01, 0.01, 0.01, 0.01, 0.01]

    def send(connection, request):
        clock.now += service[request]
        return 200, b""

    loop = OpenLoop(
        rate=10.0, connections=1, connect=lambda: None, send=send,
        clock=clock, sleep=clock.sleep, lead=0.0,
    )
    samples = loop.run(list(range(len(service))))
    latency = [round(s.latency, 6) for s in samples]
    late = [round(s.late, 6) for s in samples]
    # request 1 stalls for 0.5 s; requests 2..5 were due every 0.1 s
    # while it ran, so each waits for the one before it
    assert latency == [0.01, 0.5, 0.41, 0.32, 0.23, 0.14, 0.05]
    assert late == [0.0, 0.0, 0.4, 0.31, 0.22, 0.13, 0.04]
    # timing from send would have hidden the stall in all but one
    assert [round(s.service, 6) for s in samples] == service
    # the schedule never drifts: request i was due at i / rate
    assert [round(s.due, 6) for s in samples] == [
        round(i / 10.0, 6) for i in range(len(service))
    ]


def test_open_loop_sends_on_time_when_the_server_keeps_up():
    clock = FakeClock()

    def send(connection, request):
        clock.now += 0.002
        return 200, b""

    loop = OpenLoop(
        rate=100.0, connections=1, connect=lambda: None, send=send,
        clock=clock, sleep=clock.sleep, lead=0.0,
    )
    samples = loop.run(list(range(50)))
    assert all(round(s.late, 9) == 0.0 for s in samples)
    assert all(abs(s.latency - 0.002) < 1e-9 for s in samples)


# ----------------------------------------------------------------------
# host-speed windows
# ----------------------------------------------------------------------
def test_speed_probe_slowdown_per_one_second_stretch():
    wall = FakeClock()
    probe = SpeedProbe(clock=wall)  # stretches count from wall time 0
    ref = harness.REFERENCE_READING
    # CPU seconds of one reading per stretch: at the reference speed,
    # 1.6 times slower, then 1.1 times slower; one outlier reading in
    # the first stretch does not move its median
    costs = {0: [ref, ref, ref * 3, ref, ref], 1: [ref * 1.6] * 5,
             3: [ref * 1.1] * 5}
    for stretch, readings in costs.items():
        for k, cost in enumerate(readings):
            probe.readings.append((stretch + k * 0.2, cost))
    slow = probe.slowdowns_at([0.5, 1.5, 3.5, 2.2, 9.0])
    # 2.2 has no readings of its own: the nearest stretch is 1 (tie
    # with 3, the earlier wins); 9.0 takes stretch 3
    assert [round(k, 6) for k in slow] == [1.0, 1.6, 1.1, 1.6, 1.1]


def test_speed_probe_reads_cpu_time_of_its_loop():
    cpu = FakeClock()
    wall = FakeClock()
    ref = harness.REFERENCE_READING

    def cpu_clock():
        cpu.now += ref / 2  # each clock read sees half a reference pass
        return cpu.now

    probe = SpeedProbe(cpu_clock=cpu_clock, clock=wall)
    assert abs(probe.read() - ref / 2) < 1e-12
    # a burst's slowdown is that of its median reading
    assert abs(probe.burst(3) - 0.5) < 1e-9
    assert len(probe.readings) == 4


# ----------------------------------------------------------------------
# layer tracer self time
# ----------------------------------------------------------------------
def test_layer_tracer_self_time_excludes_children():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def leaf():
        clock.now += 0.25

    def middle():
        clock.now += 0.5
        tracer.call("leaf", leaf, (), {})
        tracer.call("leaf", leaf, (), {})

    tracer.call("root", middle, (), {})
    stats = tracer.stats()
    assert stats["root"]["total_s"] == 1.0
    assert stats["root"]["self_s"] == 0.5
    assert stats["leaf"]["calls"] == 2
    assert stats["leaf"]["self_s"] == 0.5
    assert tracer.root_seconds() == 1.0


def test_layer_tracer_wrap_and_uninstall():
    class Thing:
        def work(self, n):
            return n * 2

    tracer = LayerTracer()
    tracer.wrap(Thing, "work", "thing.work", items=lambda self, n: n)
    assert Thing().work(3) == 6
    tracer.uninstall()
    assert Thing().work(4) == 8
    stats = tracer.stats()
    assert stats["thing.work"]["calls"] == 1
    assert stats["thing.work"]["items"] == 3


# ----------------------------------------------------------------------
# input identity
# ----------------------------------------------------------------------
def _identities(seed: int):
    bundle = build_lake(inputs.lake_config())
    campaign = inputs.campaign_inputs(bundle, seed)
    serve = inputs.serve_inputs(bundle.lake, seed, 200)
    stream = inputs.ChurnStream(bundle.lake, seed)
    ops = [stream.next() for _ in range(40)]
    return (
        inputs.lake_identity(bundle.lake),
        campaign.digest,
        serve.digest,
        serve.unique,
        inputs.ops_digest(ops),
    )


def test_input_digests_are_stable_for_a_seed():
    first = _identities(3)
    assert _identities(3) == first
    other = _identities(4)
    assert other[1:3] != first[1:3]
    assert other[4] != first[4]


def test_serve_schedule_repeats_about_half_the_bodies():
    bundle = build_lake(inputs.lake_config())
    serve = inputs.serve_inputs(bundle.lake, 5, 1000)
    repeats = len(serve.requests) - serve.unique
    assert 400 <= repeats <= 600


def test_digest_store_flags_a_changed_digest(tmp_path):
    store = DigestStore(tmp_path / "digests.json")
    assert store.check("campaign/1/x", "aaaa") is None
    assert store.check("campaign/1/x", "aaaa") is None
    assert store.check("campaign/1/x", "bbbb") == "aaaa"
    assert store.check("campaign/2/x", "bbbb") is None
