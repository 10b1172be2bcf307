"""Reference answers computed in plain Python from the generator's model.

Nothing here calls the program: answers are derived from the auctions,
versions and sales :mod:`perfbench.gen` recorded while it generated the
inputs, and written in the program's result-identity form (serialized
nodes; ``int:N`` for an integer), so they compare directly with what the
engine emits.

Lifespan rules used (the XCQL data model): version *k* of an auction lives
on ``[vt_k, vt_k+1)`` and the newest on ``[vt_last, now]``; a sale is an
instant.  The generator keeps every stream event on its own 30-second
slot and every window bound on a 15-second offset, so no answer depends on
how a boundary instant is treated.
"""

from __future__ import annotations

from perfbench.gen import AuctionData, Envelope, stamp

CA = 'stream("auction")/site/closed_auctions/closed_auction'
OA = 'stream("auction")/site/open_auctions/open_auction'


def _p(value: float) -> str:
    return f"{value:.2f}"


# -- historical: one snapshot of the whole history --------------------------------


class HistoricalQueries:
    """The analyst's question set over catalog + full history, with answers."""

    def __init__(self, data: AuctionData):
        self.data = data
        last = data.stream[-1].seconds if data.stream else 0.0
        self.now_s = last + 3600.0
        span = len(data.stream)
        # A narrow window in the middle third of the history.
        self.t1 = 30.0 * (span // 3) + 15.0
        self.t2 = self.t1 + 30.0 * max(4, span // 30)
        self.join_from = 15.0
        versions = sum(len(a.versions) for a in data.auctions)
        self.v1 = max(1, versions // 2)
        self.v2 = self.v1 + 20

    def sources(self) -> dict[str, str]:
        return {
            "Q1": 'for $b in stream("auction")/site/people/person[@id = "person0"] '
                  "return $b/name/text()",
            "Q2": f"for $b in {OA} "
                  "return <increase> { $b/bidder[1]/increase/text() } </increase>",
            "Q5": f"count(for $i in {CA} where $i/price/text() >= 40 return $i/price)",
            "interval": f"for $a in {OA}?[{stamp(self.t1)}, {stamp(self.t2)}] "
                        'return <v a="{$a/@id}" c="{$a/current}"/>',
            "version": f"for $a in {OA}#[{self.v1}, {self.v2}] "
                       'return <v a="{$a/@id}" c="{$a/current}"/>',
            "join": f"for $a in {OA} "
                    f"for $s in {CA}?[{stamp(self.join_from)}, {stamp(self.now_s)}] "
                    "where $a icontains $s and $a/itemref/@item = $s/itemref/@item "
                    'return <hit a="{$a/@id}" p="{$s/price}"/>',
        }

    def answers(self) -> dict[str, list[str]]:
        data = self.data
        sales = data.catalog_sales + [e.sale for e in data.stream if e.kind == "sale"]
        spans = []  # (auction, from, to or None for the newest, bidders, current)
        for auction in data.auctions:
            versions = auction.versions
            for k, (vt, count, current) in enumerate(versions):
                end = versions[k + 1][0] if k + 1 < len(versions) else None
                spans.append((auction, vt, end, count, current))
        q2 = [f"<increase>{_p(a.bidders[0][2])}</increase>" if count else "<increase/>"
              for a, _vt, _end, count, _cur in spans]
        interval = [
            f'<v a="{a.ident}" c="{_p(cur)}"/>'
            for a, vt, end, _count, cur in spans
            if vt <= self.t2 and (end is None or end > self.t1)
        ]
        version = [f'<v a="{a.ident}" c="{_p(cur)}"/>'
                   for a, _vt, _end, _count, cur in spans][self.v1 - 1:self.v2]
        window = [s for s in sales if self.join_from <= s.seconds <= self.now_s]
        join = [
            f'<hit a="{a.ident}" p="{_p(s.price)}"/>'
            for a, vt, end, _count, _cur in spans
            for s in window
            if s.item == a.item and vt <= s.seconds
            and (s.seconds < end if end is not None else s.seconds <= self.now_s)
        ]
        return {
            "Q1": [data.person_names[0]],
            "Q2": q2,
            "Q5": [f"int:{sum(1 for s in sales if s.price >= 40)}"],
            "interval": interval,
            "version": version,
            "join": join,
        }


# -- standing: per-tick emissions -----------------------------------------------------


STANDING = [
    # automaton group over closed_auction: a selective and a dense member.
    ("sale_sel", f"for $c in {CA} where $c/price > 90 "
                 'return <sale i="{$c/itemref/@item}" p="{$c/price}"/>',
     "sale", lambda s: s.price > 90,
     lambda s: f'<sale i="{s.item}" p="{_p(s.price)}"/>'),
    ("sale_dense", f"for $c in {CA} where $c/price > 20 "
                   'return <sale i="{$c/itemref/@item}" p="{$c/price}"/>',
     "sale", lambda s: s.price > 20,
     lambda s: f'<sale i="{s.item}" p="{_p(s.price)}"/>'),
    # automaton group binding the price subtree.
    ("price", f"for $p in {CA}/price where $p > 50 return <p>{{$p/text()}}</p>",
     "sale", lambda s: s.price > 50, lambda s: f"<p>{_p(s.price)}</p>"),
    # a descendant-axis group: shared prefix, one selective member.
    ("cheap", 'for $c in stream("auction")//closed_auction where $c/price < 10 '
              'return <cheap b="{$c/buyer/@person}">{$c/price/text()}</cheap>',
     "sale", lambda s: s.price < 10,
     lambda s: f'<cheap b="{s.buyer}">{_p(s.price)}</cheap>'),
    ("dear", 'for $c in stream("auction")//closed_auction where $c/price > 60 '
             'return <dear b="{$c/buyer/@person}">{$c/price/text()}</dear>',
     "sale", lambda s: s.price > 60,
     lambda s: f'<dear b="{s.buyer}">{_p(s.price)}</dear>'),
    # a user-defined function on the driving path: delta-safe, not shared.
    ("udf", "declare function local:cut() { 75 }; "
            f"for $c in {CA}[price > local:cut()] return <u>{{$c/price/text()}}</u>",
     "sale", lambda s: s.price > 75, lambda s: f"<u>{_p(s.price)}</u>"),
    # every bid supersedes an open_auction version: a full run per wake.
    ("bids", f"for $b in {OA}/bidder where $b/increase > 8 "
             'return <bid t="{$b/time}" i="{$b/increase}"/>',
     "bid", lambda b: b[2] > 8, lambda b: f'<bid t="{b[0]}" i="{_p(b[2])}"/>'),
    ("Q2", f"for $b in {OA} "
           "return <increase> { $b/bidder[1]/increase/text() } </increase>",
     "first_bid", None, None),
    ("Q5", f"count(for $i in {CA} where $i/price/text() >= 40 return $i/price)",
     "count", None, None),
]

# Q5 is an aggregate: not delta-safe, so it cannot be sharded.
SHARDABLE = [entry[0] for entry in STANDING if entry[0] != "Q5"]


class StandingOracle:
    """Tracks, per standing query, every identity already emitted."""

    def __init__(self, data: AuctionData, names: list[str]):
        self.data = data
        self.entries = [e for e in STANDING if e[0] in names]
        self.seen = {e[0]: set() for e in self.entries}
        self.count40 = 0

    def _emit(self, sales, bids, first_bids) -> dict[str, set]:
        counted = sum(1 for s in sales if s.price >= 40)
        self.count40 += counted
        out = {}
        for name, _source, kind, test, ident in self.entries:
            if kind == "sale":
                produced = {ident(s) for s in sales if test(s)}
            elif kind == "bid":
                produced = {ident(b) for b in bids if test(b)}
            elif kind == "first_bid":
                produced = {f"<increase>{_p(b[2])}</increase>" for b in first_bids}
            else:  # count: the new total, whenever it moved
                produced = {f"int:{self.count40}"} if counted else set()
            fresh = produced - self.seen[name]
            self.seen[name] |= fresh
            out[name] = fresh
        return out

    def initial(self) -> dict[str, set]:
        """The baseline answers over the catalog (no bidders yet)."""
        out = self._emit(self.data.catalog_sales, [], [])
        for name, _source, kind, _test, _ident in self.entries:
            if kind in ("first_bid", "count"):
                out[name] = {"<increase/>" if kind == "first_bid"
                             else f"int:{self.count40}"}
                self.seen[name] |= out[name]
        return out

    def tick(self, events: list[Envelope]) -> dict[str, set]:
        """The identities each query must newly emit after ``events``."""
        sales = [e.sale for e in events if e.kind == "sale"]
        bids, first_bids = [], []
        for event in events:
            if event.kind == "bid":
                auction = self.data.auctions[event.auction]
                # The bidder this version added is the auction's n-th one.
                count = next(v[1] for v in auction.versions if v[0] == event.seconds)
                bids.append(auction.bidders[count - 1])
                if count == 1:
                    first_bids.append(auction.bidders[0])
        return self._emit(sales, bids, first_bids)
