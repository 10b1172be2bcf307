"""Seeded input generator for the benchmark.

Everything the program is given comes from here: an XMark-shaped auction
site document (as XML text) and a stream of raw ``<filler>`` envelopes
carrying bids (new versions of ``open_auction`` fragments) and sales (new
``closed_auction`` events).  The generator also keeps its own plain-Python
model of every auction version and sale, which :mod:`perfbench.oracle`
reads to compute reference answers without touching the program.

Filler ids are predicted here, not read back from the program: the
fragmenter allocates them in document pre-order, and the auction schema
fragments six item groups, categories, people, every open auction and one
shared closed-auction hole.  :func:`check_ids` compares the prediction
with what the program allocated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta

REGIONS = ("africa", "asia", "australia", "europe", "namerica", "samerica")
WORDS = (
    "gold", "silver", "vintage", "rare", "mint", "boxed", "signed", "antique",
    "classic", "modern", "large", "small", "red", "blue", "green", "oak",
    "steel", "glass", "paper", "stone", "clock", "lamp", "chair", "print",
)
NAMES = ("Ada", "Ben", "Cleo", "Dov", "Eun", "Femi", "Gus", "Hana", "Ivo", "Jin")
SURNAMES = ("Abe", "Bos", "Chu", "Diaz", "Eke", "Fox", "Gil", "Hoy", "Ito", "Jha")
BASE = datetime(2004, 1, 1)
STEP_S = 30  # one stream event per 30 s of valid time
# The stream's shape -- which events are bids or sales, which auction each
# bid goes to, which item each sale sells -- comes from this fixed seed,
# so every seed does comparable work; the seed sets every value.
SHAPE_SEED = 20040601
SALE_SHARE = 0.25
NEWLINE_PRICE = 99.0  # over the narrowed catch-up's price threshold
CATEGORIES = 10


def stamp(seconds: float) -> str:
    """An ``xs:dateTime`` literal ``seconds`` after the catalog load time."""
    return (BASE + timedelta(seconds=seconds)).isoformat()


@dataclass
class Auction:
    """One open auction: its filler id and the state after each version."""

    index: int
    filler_id: int
    item: str
    seller: str
    initial: float
    bidders: list = field(default_factory=list)  # (time, person, increase)
    # One entry per version: (valid-time seconds, bidder count, current).
    versions: list = field(default_factory=list)

    @property
    def ident(self) -> str:
        return f"open_auction{self.index}"

    def current(self, count: int) -> float:
        """The price after the first ``count`` bids."""
        return self.initial + sum(inc for _t, _p, inc in self.bidders[:count])

    def payload(self, count: int) -> str:
        """The auction's version with its first ``count`` bidders."""
        parts = [f'<open_auction id="{self.ident}">',
                 f"<initial>{self.initial:.2f}</initial>"]
        for time_text, person, increase in self.bidders[:count]:
            parts.append(
                f"<bidder><date>01/01/2004</date><time>{time_text}</time>"
                f'<personref person="{person}"/>'
                f"<increase>{increase:.2f}</increase></bidder>"
            )
        parts.append(f"<current>{self.current(count):.2f}</current>")
        parts.append(f'<itemref item="{self.item}"/><seller person="{self.seller}"/>')
        parts.append("<quantity>1</quantity><type>Regular</type></open_auction>")
        return "".join(parts)


@dataclass
class Sale:
    """One closed auction (a ``closed_auction`` event)."""

    seconds: float
    item: str
    buyer: str
    seller: str
    price: float
    note: str

    def payload(self) -> str:
        return (
            f'<closed_auction><seller person="{self.seller}"/>'
            f'<buyer person="{self.buyer}"/><itemref item="{self.item}"/>'
            f"<price>{self.price:.2f}</price><date>01/01/2004</date>"
            "<quantity>1</quantity><type>Regular</type>"
            f'<annotation><author person="{self.seller}"/>'
            f"<description><text>{self.note}</text></description>"
            "<happiness>7</happiness></annotation></closed_auction>"
        )


@dataclass
class Envelope:
    """One stream event as wire text plus what the oracle needs to know."""

    kind: str  # "bid" | "sale"
    seconds: float
    text: str
    auction: int = -1  # bid: index of the auction
    sale: Sale | None = None


class AuctionData:
    """A seeded catalog plus a stream of bids and sales over it.

    ``newline_slots`` lists stream positions whose event is a sale whose
    note text holds a line break; those positions, unlike the rest of the
    stream, do not depend on the seed.
    """

    def __init__(self, seed: int, structure, *, people: int, items: int,
                 auctions: int, closed: int, events: int, newline_slots: tuple = ()):
        # The two stream tsids, read off the program's auction tag structure.
        self.open_tsid = structure.resolve_path(
            ["site", "open_auctions", "open_auction"]).tsid
        self.closed_tsid = structure.resolve_path(
            ["site", "closed_auctions", "closed_auction"]).tsid
        self.rng = rng = random.Random(seed)
        self.shape = random.Random(SHAPE_SEED)
        self.people = [f"person{i}" for i in range(people)]
        self.person_names = [
            f"{rng.choice(NAMES)} {rng.choice(SURNAMES)}" for _ in range(people)
        ]
        self.items = [f"item{i}" for i in range(items)]
        self.region_items = {name: [] for name in REGIONS}
        for index, item in enumerate(self.items):
            self.region_items[REGIONS[index % len(REGIONS)]].append(item)
        # Filler ids in fragmenter pre-order: root 0, one shared hole per
        # region's items, categories, people, then each open auction, then
        # the shared closed-auction hole.
        next_id = 1 + len(REGIONS) + 2
        item_pool = list(self.items)
        rng.shuffle(item_pool)
        self.auctions = []
        for index in range(auctions):
            self.auctions.append(Auction(
                index=index, filler_id=next_id + index,
                item=item_pool[index % len(item_pool)],
                seller=rng.choice(self.people),
                initial=round(rng.uniform(5, 60), 2),
            ))
        self.closed_filler_id = next_id + auctions
        self.catalog_sales = [self._sale(0.0) for _ in range(closed)]
        for auction in self.auctions:
            auction.versions.append((0.0, 0, auction.initial))
        self.stream: list[Envelope] = []
        newline = set(newline_slots)
        for position in range(events):
            seconds = float(STEP_S * (position + 1))
            if position in newline:
                sale = self._sale(seconds, price=NEWLINE_PRICE, newline=True)
                self.stream.append(self._sale_envelope(sale))
            elif self.shape.random() < SALE_SHARE:
                self.stream.append(self._sale_envelope(self._sale(seconds)))
            else:
                self.stream.append(self._bid(seconds))

    def _sale(self, seconds: float, price: float | None = None,
              newline: bool = False) -> Sale:
        rng = self.rng
        words = " ".join(rng.choice(WORDS) for _ in range(6))
        note = words.replace(" ", "\n", 1) if newline else words
        return Sale(
            seconds=seconds,
            item=self.shape.choice(self.auctions).item,
            buyer=rng.choice(self.people),
            seller=rng.choice(self.people),
            price=price if price is not None else round(rng.uniform(1, 100), 2),
            note=note,
        )

    def _sale_envelope(self, sale: Sale) -> Envelope:
        text = (
            f'<filler id="{self.closed_filler_id}" tsid="{self.closed_tsid}" '
            f'validTime="{stamp(sale.seconds)}">{sale.payload()}</filler>'
        )
        return Envelope("sale", sale.seconds, text, sale=sale)

    def _bid(self, seconds: float) -> Envelope:
        rng = self.rng
        auction = self.shape.choice(self.auctions)
        increase = rng.choice((1.5, 3.0, 4.5, 6.0, 7.5, 9.0))
        time_text = stamp(seconds)
        auction.bidders.append((time_text, rng.choice(self.people), increase))
        count = len(auction.bidders)
        auction.versions.append((seconds, count, auction.current(count)))
        text = (
            f'<filler id="{auction.filler_id}" tsid="{self.open_tsid}" '
            f'validTime="{stamp(seconds)}">{auction.payload(count)}</filler>'
        )
        return Envelope("bid", seconds, text, auction=auction.index)

    # -- the catalog -------------------------------------------------------------

    def catalog_xml(self) -> str:
        """The site document at load time (before any stream event)."""
        # Item and category text is the same for every seed, so the catalog
        # has the same size whatever the seed.
        rng = random.Random(len(self.items))
        out = ["<site><regions>"]
        for region in REGIONS:
            out.append(f"<{region}>")
            for item in self.region_items[region]:
                out.append(
                    f'<item id="{item}"><location>Here</location>'
                    f"<quantity>1</quantity><name>{rng.choice(WORDS)}</name>"
                    "<payment>Cash</payment><description><text>"
                    f"{' '.join(rng.choice(WORDS) for _ in range(8))}"
                    "</text></description><shipping>Will ship</shipping>"
                    f'<incategory category="category{rng.randrange(CATEGORIES)}"/>'
                    "<mailbox/></item>"
                )
            out.append(f"</{region}>")
        out.append("</regions><categories>")
        for index in range(CATEGORIES):
            out.append(
                f'<category id="category{index}"><name>{WORDS[index]}</name>'
                "<description><text>a category</text></description></category>"
            )
        out.append('</categories><catgraph><edge from="category0" to="category1"/>'
                   "</catgraph><people>")
        for person, name in zip(self.people, self.person_names):
            out.append(
                f'<person id="{person}"><name>{name}</name>'
                f"<emailaddress>mailto:{person}@example.com</emailaddress></person>"
            )
        out.append("</people><open_auctions>")
        for auction in self.auctions:
            out.append(auction.payload(0))  # each auction's first version
        out.append("</open_auctions><closed_auctions>")
        for sale in self.catalog_sales:
            out.append(sale.payload())
        out.append("</closed_auctions></site>")
        return "".join(out)


def catalog_filler_count(*, people: int, items: int, auctions: int,
                         closed: int) -> int:
    """Fillers the catalog fragments into: the root plus every event and
    temporal element (items, categories, people, auctions, sales)."""
    return 1 + items + CATEGORIES + people + auctions + closed


def check_ids(data: AuctionData, fillers) -> None:
    """Fail loudly if the program allocated other filler ids than predicted."""
    seen = {}
    for filler in fillers:
        if filler.content.tag == "open_auction":
            seen[filler.content.attrs["id"]] = filler.filler_id
        elif filler.content.tag == "closed_auction":
            seen["closed"] = filler.filler_id
    for auction in data.auctions:
        if seen.get(auction.ident) != auction.filler_id:
            raise RuntimeError(f"filler id of {auction.ident} is "
                               f"{seen.get(auction.ident)}, not {auction.filler_id}")
    if seen.get("closed") != data.closed_filler_id:
        raise RuntimeError("closed-auction hole id differs from the prediction")
