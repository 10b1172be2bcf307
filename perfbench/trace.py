"""Span tracing from outside the program.

:meth:`Tracer.install` replaces public functions and methods of the program, by
name, with wrappers that record a span (name, start, end, parent) while
the tracer is active.  Nothing under ``src/`` is edited: classes are
patched attribute by attribute, and a module-level function is replaced in
every loaded ``repro`` or ``perfbench`` module that holds a reference to it.  Generators
(journal scans, codec streams) are timed per resumption and coroutines
around their await.  A target that no longer exists is skipped and its
metric reported absent.

Self time is aggregated on the fly — a span's duration minus its direct
children's — as is each metric group's inclusive time (nested spans of
the same group count once).  The first :data:`KEEP_SPANS` spans are also
kept in memory and written out by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

KEEP_SPANS = 200_000

# metric -> (mode, [module:qualname targets]); mode "incl" counts the
# outermost span of the group, "self" the spans' self time, "calls" the
# number of calls.
GROUPS = {
    "core.compile_ms": ("incl", ["repro.core.engine:XCQLEngine.compile"]),
    "core.execute_ms": ("self", ["repro.core.engine:XCQLEngine.execute"]),
    "core.feed_raw_ms": ("self", ["repro.core.engine:XCQLEngine.feed_raw"]),
    "core.prefix_ms": ("incl", ["repro.core.engine:XCQLEngine.execute_shared_prefix"]),
    "core.residual_ms": ("incl", ["repro.core.engine:XCQLEngine.execute_shared_residual"]),
    "core.delta_ms": ("incl", ["repro.core.engine:XCQLEngine.execute_delta"]),
    "core.automaton_answer_ms": ("incl", ["repro.core.engine:AutomatonHost.answer"]),
    "dom.tokenize_ms": ("incl", ["repro.dom.parser:EventParser.feed",
                                 "repro.dom.parser:EventParser.close"]),
    "dom.build_ms": ("incl", ["repro.dom.parser:build_fragment",
                              "repro.dom.parser:parse_document",
                              "repro.dom.parser:parse_fragment"]),
    "dom.serialize_ms": ("incl", ["repro.dom.serializer:serialize"]),
    "xquery.automaton_ms": ("incl", ["repro.xquery.automata:AutomatonMatcher.feed",
                                     "repro.xquery.automata:AutomatonMatcher.feed_many"]),
    "fragments.ingest_ms": ("incl", ["repro.fragments.store:FragmentStore.append",
                                     "repro.fragments.store:FragmentStore.extend"]),
    "fragments.get_fillers_ms": ("incl", [
        "repro.fragments.store:FragmentStore.get_fillers",
        "repro.fragments.store:FragmentStore.get_fillers_list",
        "repro.fragments.store:FragmentStore.get_fillers_by_tsid"]),
    "fragments.get_fillers_calls": ("calls", [
        "repro.fragments.store:FragmentStore.get_fillers",
        "repro.fragments.store:FragmentStore.get_fillers_list",
        "repro.fragments.store:FragmentStore.get_fillers_by_tsid"]),
    "fragments.window_ms": ("incl", ["repro.fragments.store:FragmentStore.versions_in_window",
                                     "repro.fragments.store:FragmentStore.wrapper_window"]),
    "fragments.delta_batch_ms": ("incl", ["repro.fragments.store:FragmentStore.delta_batch",
                                          "repro.fragments.store:FragmentStore.fillers_since"]),
    "fragments.journal_append_ms": ("incl", ["repro.fragments.persist:Journal.record",
                                             "repro.fragments.persist:Journal.record_many"]),
    "fragments.journal_scan_ms": ("incl", [
        "repro.fragments.persist:Journal.read_indexed",
        "repro.fragments.persist:Journal.filler_version_counts"]),
    "streams.scheduler.poll_self_ms": ("self", ["repro.streams.scheduler:QueryScheduler.poll"]),
    "streams.scheduler.notify_ms": ("incl", [
        "repro.streams.scheduler:QueryScheduler.notify_arrival"]),
    "streams.continuous.evaluate_ms": ("self", [
        "repro.streams.continuous:ContinuousQuery.evaluate"]),
    "streams.net.publish_ms": ("self", ["repro.streams.net:StreamServer.publish"]),
    "streams.net.feed_wait_ms": ("incl", ["repro.streams.net:StreamClient.feed"]),
    "streams.net.catchup_ms": ("incl", ["repro.streams.net:StreamClient.catchup"]),
    "streams.netproto.encode_ms": ("incl", ["repro.streams.netproto:encode_control",
                                            "repro.streams.netproto:encode_batch"]),
    "streams.netproto.decode_ms": ("incl", ["repro.streams.netproto:FrameDecoder.feed"]),
    "streams.compression.compress_ms": ("incl", [
        "repro.streams.compression:TagCodec.compress_iter"]),
    "streams.compression.decompress_ms": ("incl", [
        "repro.streams.compression:TagCodec.decompress_iter"]),
    "streams.sharding.dispatch_ms": ("self", ["repro.streams.sharding:ShardedEngine.deliver",
                                              "repro.streams.sharding:ShardedEngine.feed_raw"]),
}

# Journal scans also count the bytes they read (see Tracer.read_bytes).
_READ_COUNTED = {"Journal.read_indexed", "Journal.filler_version_counts"}


def _rchar() -> int:
    """Bytes this process has read through read(2) so far (Linux)."""
    with open("/proc/self/io", "rb") as handle:
        for line in handle:
            if line.startswith(b"rchar:"):
                return int(line.split()[1])
    return 0


class Tracer:
    """Span recorder and aggregator; inert until :attr:`active` is set."""

    def __init__(self) -> None:
        self.active = False
        self.pid = os.getpid()
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[list] = []  # [name, start, child_time, index]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.incl_s: dict[str, float] = defaultdict(float)
        self._depth: dict[str, int] = defaultdict(int)
        self._groups_of: dict[str, list[str]] = defaultdict(list)
        self.installed: set[str] = set()  # metrics with every target found
        self.read_bytes = 0
        try:
            _rchar()
            self._io = True
        except OSError:
            self._io = False
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][3] if self._stack else -1
        index = len(self.spans) if len(self.spans) < KEEP_SPANS else -1
        start = time.perf_counter()
        frame = [name, start, 0.0, index]
        if index >= 0:
            self.spans.append([name, start, 0.0, parent])
        for group in self._groups_of[name]:
            self._depth[group] += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        name, start, child, index = frame
        if self._stack and self._stack[-1] is frame:
            self._stack.pop()
        elif frame in self._stack:  # an interleaved coroutine finished first
            self._stack.remove(frame)
        duration = end - start
        if index >= 0:
            self.spans[index][2] = end
        if self._stack:
            self._stack[-1][2] += duration
        self.self_s[name] += duration - child
        self.calls[name] += 1
        for group in self._groups_of[name]:
            self._depth[group] -= 1
            if self._depth[group] == 0:
                self.incl_s[group] += duration

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        counts_reads = name in _READ_COUNTED and self._io

        def live() -> bool:
            # Forked shard workers inherit the wrappers but not the tracer.
            return tracer.active and os.getpid() == tracer.pid

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if not live():
                    return await fn(*args, **kwargs)
                frame = tracer._enter(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)

            return async_wrapper

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                io_before = _rchar() if counts_reads and live() else None
                try:
                    while True:
                        frame = tracer._enter(name) if live() else None
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            if frame is not None:
                                tracer._exit(frame)
                        yield item
                finally:
                    if io_before is not None:
                        tracer.read_bytes += _rchar() - io_before

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not live():
                return fn(*args, **kwargs)
            io_before = _rchar() if counts_reads else None
            frame = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
                if io_before is not None:
                    tracer.read_bytes += _rchar() - io_before

        return wrapper

    def install(self, groups: dict = GROUPS) -> None:
        """Wrap every target of every metric group that still exists."""
        wrapped: dict[str, bool] = {}
        for metric, (_mode, targets) in groups.items():
            found = True
            for target in targets:
                name = target.split(":", 1)[1]
                if metric not in self._groups_of[name]:
                    self._groups_of[name].append(metric)
                if target not in wrapped:
                    wrapped[target] = self._patch(target)
                found = found and wrapped[target]
            if found:
                self.installed.add(metric)

    def _patch(self, target: str) -> bool:
        module_name, qualname = target.split(":", 1)
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        owner, attr = module, qualname
        if "." in qualname:
            cls_name, attr = qualname.split(".", 1)
            owner = getattr(module, cls_name, None)
            if owner is None or attr not in vars(owner):
                return False
            original = vars(owner)[attr]
            if not callable(original):
                return False
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(qualname, original))
            return True
        original = getattr(module, attr, None)
        if original is None or not callable(original):
            return False
        wrapper = self._wrap(qualname, original)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not loaded_name.startswith(("repro", "perfbench")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._undo.append((loaded, key, original))
                    setattr(loaded, key, wrapper)
        return True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------------

    def metric(self, metric: str, groups: dict = GROUPS):
        """The raw total of one group (seconds or calls); None if absent."""
        if metric not in self.installed:
            return None
        mode, targets = groups[metric]
        names = [t.split(":", 1)[1] for t in targets]
        if mode == "incl":
            return self.incl_s[metric]
        if mode == "self":
            return sum(self.self_s[n] for n in names)
        return float(sum(self.calls[n] for n in names))

    def dump(self, path: str) -> None:
        """Write the kept spans as JSON lines: name, start, end, parent."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, round(start, 7), round(end, 7),
                                         parent]) + "\n")
