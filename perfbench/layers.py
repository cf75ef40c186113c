"""Per-layer timing by wrapping the program's public functions at run time.

The traced run installs a :class:`LayerTracer` around the calls that
cross a layer boundary; the untraced run installs nothing.  Spans nest
per thread: a span's *self* time is its duration minus the time its
child spans on the same thread took, so the self times of all spans on
a thread add up to the time covered by that thread's root spans.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple


class _Frame:
    __slots__ = ("child",)

    def __init__(self) -> None:
        self.child = 0.0


class LayerTracer:
    """Wraps functions, aggregates calls / total / self seconds per
    span name, and keeps the time covered by root spans per thread
    name prefix."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        #: name -> [calls, total seconds, self seconds, items]
        self._stats: Dict[str, List[float]] = {}
        #: thread name -> seconds covered by root spans on that thread
        self._roots: Dict[str, float] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(
        self, name: str, duration: float, self_time: float,
        items: float, root: bool,
    ) -> None:
        with self._lock:
            entry = self._stats.get(name)
            if entry is None:
                entry = self._stats[name] = [0, 0.0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_time
            entry[3] += items
            if root:
                thread = threading.current_thread().name
                self._roots[thread] = self._roots.get(thread, 0.0) + duration

    def call(self, name: str, fn, args, kwargs, items: float = 0.0):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        frame = _Frame()
        stack.append(frame)
        start = self._clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = self._clock() - start
            stack.pop()
            if stack:
                stack[-1].child += duration
            self._record(
                name, duration, duration - frame.child, items, not stack
            )

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        items: Optional[Callable[..., float]] = None,
        skip: Optional[Callable[..., bool]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a spanning wrapper.

        ``items(*args, **kwargs)`` counts the work units of one call
        (evidence pairs, queries); ``skip(*args, **kwargs)`` true means
        the call does no work worth a span (an already-sealed index).
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if skip is not None and skip(*args, **kwargs):
                return original(*args, **kwargs)
            count = items(*args, **kwargs) if items is not None else 0.0
            return tracer.call(name, original, args, kwargs, count)

        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Dict[str, float]]:
        """name -> {calls, total_s, self_s, items}."""
        with self._lock:
            return {
                name: {
                    "calls": entry[0],
                    "total_s": entry[1],
                    "self_s": entry[2],
                    "items": entry[3],
                }
                for name, entry in sorted(self._stats.items())
            }

    def root_seconds(self, thread_prefix: str = "") -> float:
        """Seconds covered by root spans on threads whose name starts
        with ``thread_prefix``."""
        with self._lock:
            return sum(
                seconds for thread, seconds in self._roots.items()
                if thread.startswith(thread_prefix)
            )

    def reset(self) -> None:
        with self._lock:
            self._stats.clear()
            self._roots.clear()


def install_program_layers(tracer: LayerTracer) -> None:
    """Wrap the public entry points of every measured layer.

    ``core.reranker`` (off in the default config) and ``loop`` (drives
    the same ``verify_batch`` path as the campaign) are not wrapped.
    """
    from repro.core.indexer import IndexerModule
    from repro.core.pipeline import VerifAI
    from repro.core.verifier import VerifierModule
    from repro.datalake.lake import DataLake
    from repro.index.inverted import InvertedIndex
    from repro.llm.model import SimulatedLLM
    from repro.verify.agent import VerifierAgent

    # core.pipeline / core.batch
    tracer.wrap(VerifAI, "verify", "pipeline.verify")
    tracer.wrap(VerifAI, "verify_batch", "batch.run",
                items=lambda self, objects, *a, **k: len(objects))
    tracer.wrap(VerifAI, "retrieval_stages_batch", "batch.prefill",
                items=lambda self, objs, *a, **k: len(objs))
    tracer.wrap(VerifAI, "update_instance", "pipeline.update")
    # core.indexer
    tracer.wrap(IndexerModule, "build", "indexer.build",
                skip=lambda self, *a, **k: self.is_built)
    tracer.wrap(IndexerModule, "search", "indexer.search")
    tracer.wrap(IndexerModule, "search_batch", "indexer.search_batch",
                items=lambda self, queries, *a, **k: len(queries))
    tracer.wrap(IndexerModule, "update_instance", "indexer.update")
    # index: only seals that compile count (sealed indexes return at once)
    tracer.wrap(InvertedIndex, "seal", "index.seal",
                skip=lambda self: self.is_sealed)
    # datalake
    tracer.wrap(DataLake, "update_instance", "datalake.update")
    tracer.wrap(DataLake, "instance", "datalake.instance")
    # core.verifier, verify, llm
    tracer.wrap(VerifierModule, "verify_pool", "verifier.verify_pool",
                items=lambda self, obj, evidence, *a, **k: len(evidence))
    tracer.wrap(VerifierAgent, "verify", "verify.agent")
    tracer.wrap(SimulatedLLM, "chat", "llm.chat")
