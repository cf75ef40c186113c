"""Shared fixtures for the benchmark harness.

Scale is controlled with the ``REPRO_SCALE`` environment variable
(``small`` | ``medium`` | ``paper``); the default keeps a full benchmark
run to a few minutes.  ``paper`` approximates the corpus shape of the
original evaluation and is what EXPERIMENTS.md reports.
"""

import os
import time

import pytest

from repro.experiments import get_context


def scale_name() -> str:
    return os.environ.get("REPRO_SCALE", "medium")


def cpu_count() -> int:
    """Cores the benchmark host exposes (1 when undetectable)."""
    return os.cpu_count() or 1


def pytest_benchmark_update_machine_info(config, machine_info):
    """Stamp the core count prominently into every BENCH_*.json.

    Parallel-vs-serial comparisons are meaningless without it: on a
    single-core host a parallel batch *should* lose to serial, and
    readers of the JSON need to see that context next to the numbers
    (see docs/performance.md).
    """
    machine_info["cpu_count"] = cpu_count()
    cpu = machine_info.setdefault("cpu", {})
    if isinstance(cpu, dict):
        cpu["count"] = cpu_count()


@pytest.fixture(scope="session")
def context():
    """The shared experiment context (lake + workloads + models)."""
    return get_context(scale_name())


def best_of(fn, rounds=7):
    """Minimum wall time over ``rounds`` calls of a warmed function.

    The estimator the speedup assertions use: for a deterministic
    operation the minimum is the least noisy statistic, and comparing
    two minimums is robust against one-off scheduler hiccups that
    would make a mean-vs-mean assertion flaky."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are deterministic end-to-end runs, not microkernels;
    a single round measures them without repeating minutes of work.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, iterations=1, rounds=1)
