"""The four workloads: historical, standing, served and catchup.

Each is a closed loop driven from this one process.  A workload exposes
``setup()`` (the program's own set-up, timed as ``setup_s``) and
``round()`` (one whole round of identical operations, each checked
against :mod:`perfbench.oracle`); :func:`perfbench.run.measure` repeats
rounds for the requested time.  ``historical`` and ``catchup`` set up a
few times and then query the last state; ``standing`` and ``served``
replay one fixed stream per round, so every round starts from a fresh set
up and the state never outgrows what one round builds.
"""

from __future__ import annotations

import asyncio
import os
import re
import shutil
import tempfile
import time

from perfbench import gen
from perfbench.oracle import SHARDABLE, STANDING, HistoricalQueries, StandingOracle

from repro import Fragmenter, Strategy, XCQLEngine, parse_document, serialize
from repro.core.optimizer import RoutingPredicate
from repro.fragments.persist import Journal
from repro.streams import net
from repro.streams.continuous import ContinuousQuery, item_identity
from repro.streams.scheduler import QueryScheduler
from repro.streams.sharding import ShardedEngine
from repro.streams.transport import FILLER, TAG_STRUCTURE, Message
from repro.temporal import XSDateTime
from repro.xmark import AUCTION_STREAM, auction_tag_structure

CATALOG = dict(people=100, items=120, auctions=60, closed=60)
TICK = 8  # envelopes per tick (standing, served)
ROUND_EVENTS = 320  # envelopes per round (standing, served)
HISTORY_EVENTS = 600
# The catch-up journal: a catalog with more, so smaller, auctions, and a
# stream long enough for JOURNAL_RECORDS records in all.
JOURNAL_CATALOG = dict(CATALOG, auctions=300)
JOURNAL_RECORDS = 3202
# Catch-up resume points, as records back from the journal tail.  Each
# replay stays under the server's 64 KB batch size, past which the batch
# is tag-compressed and a resuming subscriber cannot decode it (see the
# FOUND line in CHANGES.md); setup() checks the bound for every seed.
RESUME_BACK = (2, 4, 6, 9, 12, 16, 20, 25)
REPLAY_LIMIT = 60_000
# Every 100th stream event, counted back from the tail and placed 22
# records before it, is a sale whose text holds a line break; of the
# resume points above only the deepest reaches one.
NEWLINE_EVERY, NEWLINE_BACK = 100, 22
REQUEST_TIMEOUT_S = 5.0
# Half the subscribers are narrowed to closed auctions priced over 50.
NARROW = RoutingPredicate(tuple_tag="closed_auction", path=("price",),
                          attribute=None, text_only=False, op=">",
                          value=50.0, numeric=True)
_PRICE = re.compile(r"<price>([0-9.]+)</price>")
_TSID = re.compile(r'<filler\b[^>]*\btsid="(\d+)"')


class Recorder:
    """Operation outcomes and timings of one run."""

    def __init__(self) -> None:
        self.lat_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0  # failures other than the known journal fault
        self.rounds: list[tuple[int, float]] = []  # (ops, seconds) per round
        self.setup_s: list[float] = []
        self.layer: dict[str, float] = {}  # per-layer counters (traced runs)

    def op(self, seconds: float, ok: bool, known_fault: bool = False) -> None:
        self.lat_ms.append(seconds * 1000.0)
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not known_fault:
                self.unexpected += 1

    def add(self, key: str, value: float) -> None:
        self.layer[key] = self.layer.get(key, 0.0) + value

    def peak(self, key: str, value: float) -> None:
        self.layer[key] = max(self.layer.get(key, 0.0), value)


def _catalog_fillers(structure, data, text):
    """Parse and fragment the catalog document (program set-up work)."""
    fillers = Fragmenter(structure, shared_event_holes=True).fragment(
        parse_document(text), XSDateTime.parse(gen.stamp(0)))
    gen.check_ids(data, fillers)
    return fillers


# -- historical ----------------------------------------------------------------------


class Historical:
    """XCQL questions over a fragmented catalog plus its bid/sale history."""

    setups = 5

    def __init__(self, seed: int, workdir: str):
        self.structure = auction_tag_structure()
        self.data = gen.AuctionData(seed, self.structure, events=HISTORY_EVENTS, **CATALOG)
        self.catalog = self.data.catalog_xml()
        self.queries = HistoricalQueries(self.data)
        self.sources = self.queries.sources()
        self.expected = self.queries.answers()
        self.now = XSDateTime.parse(gen.stamp(self.queries.now_s))
        self.history = [e.text for e in self.data.stream]
        self.engine = None

    def setup(self) -> None:
        engine = XCQLEngine()
        engine.register_stream(AUCTION_STREAM, self.structure)
        engine.feed(AUCTION_STREAM, _catalog_fillers(self.structure, self.data, self.catalog))
        for start in range(0, len(self.history), TICK):
            engine.feed_raw(AUCTION_STREAM, self.history[start:start + TICK])
        for source in self.sources.values():
            for strategy in (Strategy.QAC_PLUS, Strategy.QAC):
                engine.compile(source, strategy)
        self.engine = engine

    def warm(self) -> None:
        """One unrecorded pass: materializes lazily ingested fillers."""
        self.round(Recorder(), None)

    def round(self, rec: Recorder, tracer) -> None:
        engine = self.engine
        before = engine.plan_cache_info()
        round_started = time.perf_counter()
        for name, source in self.sources.items():
            for strategy in (Strategy.QAC_PLUS, Strategy.QAC):
                if tracer is not None:
                    tracer.active = True
                started = time.perf_counter()
                result = [item_identity(item) for item in
                          engine.execute(source, strategy, now=self.now)]
                elapsed = time.perf_counter() - started
                if tracer is not None:
                    tracer.active = False
                rec.op(elapsed, result == self.expected[name])
        rec.rounds.append((2 * len(self.sources), time.perf_counter() - round_started))
        if tracer is not None:
            after = engine.plan_cache_info()
            rec.add("plan_hits", after["hits"] - before["hits"])
            rec.add("plan_misses", after["misses"] - before["misses"])

    def close(self) -> None:
        pass


# -- standing --------------------------------------------------------------------------


class Standing:
    """Standing queries answering raw envelopes fed in ticks, one process."""

    setups = 0  # each round sets up afresh

    def __init__(self, seed: int, workdir: str, names=None):
        self.structure = auction_tag_structure()
        self.data = gen.AuctionData(seed, self.structure, events=ROUND_EVENTS, **CATALOG)
        self.catalog = self.data.catalog_xml()
        self.names = names or [entry[0] for entry in STANDING]
        self.sources = {e[0]: e[1] for e in STANDING if e[0] in self.names}
        oracle = StandingOracle(self.data, self.names)
        self.baseline = oracle.initial()
        self.ticks = [self.data.stream[i:i + TICK]
                      for i in range(0, len(self.data.stream), TICK)]
        self.expected = [oracle.tick(events) for events in self.ticks]
        self.now = XSDateTime.parse(gen.stamp(3600.0 * 24))

    def _setup(self, rec: Recorder, tracer):
        if tracer is not None:
            tracer.active = True
        started = time.perf_counter()
        engine = XCQLEngine()
        engine.register_stream(AUCTION_STREAM, self.structure)
        engine.feed(AUCTION_STREAM, _catalog_fillers(self.structure, self.data, self.catalog))
        scheduler = QueryScheduler(engine)
        queries = {}
        for name, source in self.sources.items():
            queries[name] = ContinuousQuery(engine, source, strategy=Strategy.QAC_PLUS)
            scheduler.add(queries[name])
        first = scheduler.poll(self.now)
        rec.setup_s.append(time.perf_counter() - started)
        if tracer is not None:
            tracer.active = False
        ok = all(_ids(first[q]) == self.baseline[n] for n, q in queries.items())
        if not ok:
            rec.unexpected += 1
        return engine, scheduler, queries

    def round(self, rec: Recorder, tracer) -> None:
        engine, scheduler, queries = self._setup(rec, tracer)
        stats0 = scheduler.stats()
        host = engine.automaton_host
        busy = 0.0
        for events, expected in zip(self.ticks, self.expected):
            raw = [e.text for e in events]
            if tracer is not None:
                tracer.active = True
            started = time.perf_counter()
            engine.feed_raw(AUCTION_STREAM, raw)
            if tracer is not None:
                tracer.active = False
                rec.peak("buffered_peak", host.stats()["buffered"])
                tracer.active = True
            emitted = scheduler.poll(self.now)
            elapsed = time.perf_counter() - started
            if tracer is not None:
                tracer.active = False
            busy += elapsed
            ok = all(_ids(emitted[q]) == expected[n] and _unique(emitted[q])
                     for n, q in queries.items())
            for _ in events:
                rec.op(elapsed, ok)
        rec.rounds.append((len(self.data.stream), busy))
        if tracer is not None:
            stats = scheduler.stats()
            for key in ("automaton_runs", "shared_runs", "delta_runs", "full_runs",
                        "automaton_fallbacks"):
                rec.add(key, sum(q[key] for q in stats["queries"])
                        - sum(q[key] for q in stats0["queries"]))
            for key in ("probes", "skips"):
                rec.add("route_" + key, stats["routing"][key] - stats0["routing"][key])
            plan = engine.plan_cache_info()  # a fresh engine per round
            rec.add("plan_hits", plan["hits"])
            rec.add("plan_misses", plan["misses"])
            rec.add("ticks", len(self.ticks))

    def close(self) -> None:
        pass


def _ids(items) -> set:
    return {item if isinstance(item, str) else item_identity(item) for item in items}


def _unique(items) -> bool:
    return len(_ids(items)) == len(items)


# -- served -------------------------------------------------------------------------------


class Served(Standing):
    """The same stream over the wire: producer -> server -> 2 shards -> tail."""

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir, names=SHARDABLE)
        self.workdir = workdir
        self.loop = asyncio.new_event_loop()

    def round(self, rec: Recorder, tracer) -> None:
        self.loop.run_until_complete(self._round(rec, tracer))

    async def _round(self, rec: Recorder, tracer) -> None:
        tmp = tempfile.mkdtemp(prefix="served-", dir=self.workdir)
        if tracer is not None:
            tracer.active = True
        started = time.perf_counter()
        fillers = _catalog_fillers(self.structure, self.data, self.catalog)
        # The engine's default link: a forked worker process per shard.
        engine = ShardedEngine(shards=2, journal_dir=os.path.join(tmp, "shards"))
        server = net.StreamServer(journal=Journal(os.path.join(tmp, "served.journal")),
                                  engine=engine)
        received: list[Message] = []
        tail = producer = None
        try:
            await server.start()
            tail = net.StreamClient("127.0.0.1", server.port, on_message=received.append)
            producer = net.StreamClient("127.0.0.1", server.port)
            await tail.connect()
            await tail.subscribe([net.Subscription(AUCTION_STREAM)])
            await producer.connect()
            fed = [Message(TAG_STRUCTURE, AUCTION_STREAM,
                           serialize(self.structure.to_xml()))]
            fed += [Message(FILLER, AUCTION_STREAM, f.to_xml()) for f in fillers]
            await producer.feed(fed)
            await _until(lambda: server.fed_entries >= len(fed))
            queries = {name: engine.add_query(source)
                       for name, source in self.sources.items()}
            first = engine.tick(self.now)
            rec.setup_s.append(time.perf_counter() - started)
            if tracer is not None:
                tracer.active = False
            if not all(_ids(first.get(q, [])) == self.baseline[n]
                       for n, q in queries.items()):
                rec.unexpected += 1
            outbox0 = server.stats()["outboxes"]
            busy = 0.0
            outcomes = []
            timing = {"post": 0.0, "wait": 0.0, "merge": 0.0, "cpu_max": 0.0,
                      "cpu_sum": 0.0}
            for events, expected in zip(self.ticks, self.expected):
                batch = [Message(FILLER, AUCTION_STREAM, e.text) for e in events]
                fed += batch
                if tracer is not None:
                    tracer.active = True
                stamped = time.perf_counter()
                await producer.feed(batch)
                await _until(lambda: server.fed_entries >= len(fed))
                emitted = engine.tick(self.now)
                elapsed = time.perf_counter() - stamped
                if tracer is not None:
                    tracer.active = False
                busy += elapsed
                last = engine.last_tick_timing
                for key in ("post", "wait", "merge"):
                    timing[key] += last.get(key, 0.0)
                cpu = list(last.get("shard_cpu", {}).values()) or [0.0]
                timing["cpu_max"] += max(cpu)
                timing["cpu_sum"] += sum(cpu)
                ok = all(_ids(emitted.get(q, [])) == expected[n]
                         and _unique(emitted.get(q, []))
                         for n, q in queries.items())
                outcomes.append((elapsed, ok, len(events)))
            rec.rounds.append((len(self.data.stream), busy))
            # stats() is read only after the timed part: a failed stats
            # request fails a shard over.
            coordinator = engine.stats()["coordinator"]
            await _until(lambda: len(received) >= len(fed), timeout=30.0)
            # The tail must see every envelope once, in seq order, byte-exact.
            tail_ok = [i < len(received) and received[i] == fed[i]
                       for i in range(len(fed))]
            if tail.stats()["duplicates"] or len(received) != len(fed):
                rec.unexpected += 1
            position = len(fed) - len(self.data.stream)
            for elapsed, ok, count in outcomes:
                for _ in range(count):
                    rec.op(elapsed, ok and tail_ok[position])
                    position += 1
            if tracer is not None:
                stats = server.stats()
                outbox = stats["outboxes"]
                rec.add("frames", outbox["frames_sent"] - outbox0["frames_sent"])
                rec.add("bytes", outbox["bytes_sent"] - outbox0["bytes_sent"])
                rec.add("net_routing_skips", stats["routing_skips"])
                rec.add("net_fanned", stats["fanned_out"])
                rec.add("dropped_frames", stats["dropped_frames"])
                rec.add("failovers", coordinator["failovers"])
                for key, value in timing.items():
                    rec.add("shard_" + key, value)
        finally:
            for client in (producer, tail):
                if client is not None:
                    await client.close()
            await server.close()
            engine.close()
            shutil.rmtree(tmp, ignore_errors=True)

    def close(self) -> None:
        self.loop.close()


async def _until(predicate, timeout: float = 10.0, fail: bool = True) -> bool:
    """Yield to the event loop until ``predicate()`` holds.

    Past ``timeout`` seconds: raise, or with ``fail=False`` return False.
    """
    deadline = time.perf_counter() + timeout
    while not predicate():
        if time.perf_counter() > deadline:
            if fail:
                raise TimeoutError("the server did not catch up in time")
            return False
        await asyncio.sleep(0)
    return True


# -- catchup --------------------------------------------------------------------------------


class Catchup:
    """Fresh subscribers resuming near the tail of a long journal."""

    setups = 5

    def __init__(self, seed: int, workdir: str):
        self.structure = auction_tag_structure()
        self.workdir = workdir
        catalog_fillers = gen.catalog_filler_count(**JOURNAL_CATALOG)
        # Journal: the structure, the catalog, then the stream.
        events = JOURNAL_RECORDS - 1 - catalog_fillers
        first = 2 + catalog_fillers  # seq of the first stream event
        slots = tuple(p for p in range(events)
                      if (JOURNAL_RECORDS - (first + p)) % NEWLINE_EVERY
                      == NEWLINE_BACK)
        self.data = gen.AuctionData(seed, self.structure, events=events,
                                    newline_slots=slots, **JOURNAL_CATALOG)
        self.catalog = self.data.catalog_xml()
        self.catalog_count = catalog_fillers
        self.stream = [Message(FILLER, AUCTION_STREAM, e.text) for e in self.data.stream]
        if sum(m.wire_size for m in self.stream[-max(RESUME_BACK):]) > REPLAY_LIMIT:
            raise RuntimeError("the deepest catch-up replay outgrew one batch")
        self.loop = asyncio.new_event_loop()
        self.server = None
        self.tmp = None

    def setup(self) -> None:
        self.loop.run_until_complete(self._setup())

    async def _setup(self) -> None:
        await self._teardown()
        self.tmp = tempfile.mkdtemp(prefix="catchup-", dir=self.workdir)
        fillers = _catalog_fillers(self.structure, self.data, self.catalog)
        if len(fillers) != self.catalog_count:
            raise RuntimeError("catalog filler count differs from the layout")
        published = [Message(TAG_STRUCTURE, AUCTION_STREAM,
                             serialize(self.structure.to_xml()))]
        published += [Message(FILLER, AUCTION_STREAM, f.to_xml()) for f in fillers]
        published += self.stream
        self.published = published
        path = os.path.join(self.tmp, "auction.journal")
        self.server = net.StreamServer(journal=Journal(path))
        await self.server.start()
        producer = net.StreamClient("127.0.0.1", self.server.port)
        await producer.connect()
        await producer.feed(published)
        await _until(lambda: self.server.fed_entries >= len(published), timeout=60.0)
        await producer.close()
        self.last = len(published)
        self.newline_seqs = {i + 1 for i, m in enumerate(published)
                             if "\n" in m.payload}

    def round(self, rec: Recorder, tracer) -> None:
        self.loop.run_until_complete(self._round(rec, tracer))

    async def _request(self, after: int, narrow):
        """One fresh subscriber's catch-up; ``None`` if it never completed."""
        got: list[Message] = []
        client = net.StreamClient("127.0.0.1", self.server.port, on_message=got.append)
        started = time.perf_counter()
        try:
            await client.connect()
            sub = (net.Subscription(AUCTION_STREAM, tsid=self.data.closed_tsid,
                                    predicate=narrow)
                   if narrow is not None else net.Subscription(AUCTION_STREAM))
            await client.subscribe([sub], catchup=True)
            # A server that drops the connection mid-replay never ACKs.
            ack = asyncio.ensure_future(client.catchup(after=after))
            closed = asyncio.ensure_future(client.closed.wait())
            await asyncio.wait({ack, closed}, timeout=REQUEST_TIMEOUT_S,
                               return_when=asyncio.FIRST_COMPLETED)
            closed.cancel()
            if not ack.done():
                ack.cancel()
                return time.perf_counter() - started, None
            replayed = ack.result()["replayed"]
            if not await _until(lambda: len(got) >= replayed or client.closed.is_set(),
                                timeout=REQUEST_TIMEOUT_S, fail=False):
                return time.perf_counter() - started, None
            return time.perf_counter() - started, got
        finally:
            await client.close()

    async def _round(self, rec: Recorder, tracer) -> None:
        server = self.server
        replayed0, skipped0 = server.replayed_entries, server.replay_skipped
        read0 = tracer.read_bytes if tracer is not None else 0
        started = time.perf_counter()
        for back in RESUME_BACK:
            # One operation: a plain and a narrowed fresh subscriber resume
            # from the same point.  (Timed apart, the 3 ms plain and 13 ms
            # narrowed catch-ups split the latencies in two, and p50 fell
            # in the gap between them.)
            after = self.last - back
            expected = [m.payload for m in self.published[after:]]
            if tracer is not None:
                tracer.active = True
            plain_s, plain = await self._request(after, None)
            narrow_s, narrowed = await self._request(after, NARROW)
            if tracer is not None:
                tracer.active = False
            plain = None if plain is None else [m.payload for m in plain]
            narrowed = None if narrowed is None else [m.payload for m in narrowed]
            # Byte-exact replays; the narrowed one equals the plain filter
            # of the plain one.
            tsid = self.data.closed_tsid
            exact = [p for p in expected if _narrow_match(p, tsid)]
            filtered = (exact if plain is None
                        else [p for p in plain if _narrow_match(p, tsid)])
            ok = plain == expected and narrowed == filtered and narrowed == exact
            rec.op(plain_s + narrow_s, ok,
                   known_fault=any(seq > after for seq in self.newline_seqs))
        rec.rounds.append((len(RESUME_BACK), time.perf_counter() - started))
        if tracer is not None:
            rec.add("replayed", server.replayed_entries - replayed0)
            rec.add("replay_skipped", server.replay_skipped - skipped0)
            rec.add("scan_bytes", tracer.read_bytes - read0)
            rec.peak("record_bytes", os.path.getsize(
                os.path.join(self.tmp, "auction.journal")) / self.last)

    async def _teardown(self) -> None:
        if self.server is not None:
            await self.server.close()
            self.server = None
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None

    def close(self) -> None:
        self.loop.run_until_complete(self._teardown())
        self.loop.close()


def _narrow_match(payload: str, closed_tsid: int) -> bool:
    """The narrowed subscription, in plain Python: closed auctions over 50."""
    tsid = _TSID.search(payload)
    price = _PRICE.search(payload)
    return (tsid is not None and int(tsid.group(1)) == closed_tsid
            and price is not None and float(price.group(1)) > NARROW.value)


WORKLOADS = {
    "historical": Historical,
    "standing": Standing,
    "served": Served,
    "catchup": Catchup,
}
