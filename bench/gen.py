"""Seeded input generators and the reference model the output checks use.

Every generator is a pure function of its seed: the same seed gives the same
inputs, and every seed gives the same row and series counts, so run-to-run
spread measures the program rather than the input size.  The library only
ever sees what the generators emit (CSV files or plain columns); the checks
recompute every expected result from the generators' own values with plain
Python, never through the library.

This module imports nothing from the library, so the parent benchmark
process can generate and check without loading it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from statistics import fmean


# Input sizes per scenario, chosen so that one pass of a workload takes a few
# seconds on a 2-core machine and a run holds about ten passes.
SIZES = {
    "cli_daily": {"cities": 100, "days": 120},
    "verb_chain": {"regions": 30, "stores": 50, "months": 14},
    "roll_hourly": {"sensors": 4, "hours": 4380},
    "adapter_index": {"teams": 200, "sprints": 104},
}


def rng_for(workload: str, seed: int) -> random.Random:
    # String seeds hash deterministically, so each workload draws its own stream.
    return random.Random(f"{workload}:{seed}")


def _drop(rng: random.Random, cells: list, fraction: float) -> set:
    """A fixed-size random subset: the count depends on the fraction, not the seed."""
    return set(rng.sample(cells, round(fraction * len(cells))))


def window_mean(xs) -> float:
    return math.fsum(xs) / len(xs)


def close(got, want) -> bool:
    """Equal, or within 1e-9 when either side is a float."""
    if isinstance(got, float) or isinstance(want, float):
        return (got is not None and want is not None
                and math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9))
    return got == want


# --- cli_daily ---------------------------------------------------------------


@dataclass
class Daily:
    """Ridership per city and day; ``obs`` maps (city, day offset) to (riders, temp)."""

    cities: list[str]
    start: date
    days: int
    obs: dict[tuple[str, int], tuple[int, float]]
    rows: list[tuple[str, int, int, float]]  # shuffled file order

    def day_text(self, offset: int) -> str:
        return (self.start + timedelta(days=offset)).isoformat()

    def filled_riders(self, city: str) -> list[int]:
        return [self.obs.get((city, d), (0, None))[0] for d in range(self.days)]


def daily(seed: int, cities: int, days: int, drop: float = 0.05) -> Daily:
    """``cities`` x ``days`` daily rows; ``drop`` of the interior days are removed
    (first and last days stay, so every city spans the full grid)."""
    rng = rng_for("cli_daily", seed)
    names = [f"C{i:03d}" for i in range(cities)]
    interior = [(c, d) for c in names for d in range(1, days - 1)]
    gone = _drop(rng, interior, drop)
    obs = {}
    for c in names:
        for d in range(days):
            if (c, d) not in gone:
                obs[(c, d)] = (rng.randint(0, 900), round(rng.uniform(-8.0, 31.0), 2))
    rows = [(c, d, r, t) for (c, d), (r, t) in obs.items()]
    rng.shuffle(rows)
    return Daily(names, date(2021, 1, 1), days, obs, rows)


def write_daily(path, d: Daily) -> int:
    lines = ["city,day,riders,temp"]
    lines += [f"{c},{d.day_text(o)},{r},{t!r}" for c, o, r, t in d.rows]
    return _write(path, lines)


def daily_months(d: Daily) -> dict[tuple[str, str], tuple[int, float]]:
    """Expected ``agg --group city --by month``: (city, YYYY-MM) -> (riders sum, temp mean)."""
    pools: dict[tuple[str, str], tuple[list, list]] = {}
    for (c, o), (r, t) in sorted(d.obs.items()):
        riders, temps = pools.setdefault((c, d.day_text(o)[:7]), ([], []))
        riders.append(r)
        temps.append(t)
    return {k: (sum(r), fmean(t)) for k, (r, t) in pools.items()}


# --- roll_hourly -------------------------------------------------------------


@dataclass
class Hourly:
    """Gapless hourly readings per sensor, from ``start`` (UTC)."""

    sensors: list[str]
    start: datetime
    hours: int
    values: dict[str, list[float]]

    def stamp(self, h: int) -> str:
        return (self.start + timedelta(hours=h)).strftime("%Y-%m-%d %H:%M")


def hourly(seed: int, sensors: int, hours: int) -> Hourly:
    rng = rng_for("roll_hourly", seed)
    names = [f"S{i:02d}" for i in range(sensors)]
    values = {}
    for s in names:
        base = rng.uniform(20.0, 80.0)
        values[s] = [
            round(base + 15.0 * math.sin(2 * math.pi * h / 24) + rng.gauss(0.0, 4.0), 3)
            for h in range(hours)
        ]
    return Hourly(names, datetime(2022, 1, 1, tzinfo=timezone.utc), hours, values)


def write_hourly(path, hd: Hourly) -> int:
    # One row per sensor each hour, the order a logger appends them in.
    lines = ["sensor,ts,load"]
    for h in range(hd.hours):
        stamp = hd.stamp(h)
        lines += [f"{s},{stamp},{hd.values[s][h]!r}" for s in hd.sensors]
    return _write(path, lines)


def hourly_ticks(hd: Hourly) -> int:
    """Hour ticks of ``start`` since the epoch."""
    return int(hd.start.timestamp()) // 3600


# --- verb_chain --------------------------------------------------------------

CHAIN_WINDOW = ("2021-02", "2022-01")  # filter_index window, inclusive months
CHAIN_MIN_UNITS = 5
CHAIN_MIN_SQM = 60.0


@dataclass
class Panel:
    """Monthly store sales keyed by (region, store), with ~10% of cells missing.

    ``rows`` are dicts whose ``month`` is a month tick (months since 1970-01);
    the library side turns it into a time point before building.
    """

    rows: list[dict]
    attrs: dict[str, list]  # per-store attribute table for the left join
    active: dict[str, list]  # stores kept by the semi join
    series: int


def panel(seed: int, regions: int, stores: int, months: int, drop: float = 0.10) -> Panel:
    rng = rng_for("verb_chain", seed)
    first = (2021 - 1970) * 12  # 2021-01
    keys = [(f"R{r:02d}", r * 1000 + s) for r in range(regions) for s in range(stores)]
    cells = [(k, m) for k in keys for m in range(months)]
    gone = _drop(rng, cells, drop)
    rows = []
    for (region, store), m in cells:
        if ((region, store), m) in gone:
            continue
        rows.append({
            "region": region,
            "store": store,
            "month": first + m,
            "units": rng.randint(0, 120),
            "price": round(rng.uniform(1.0, 40.0), 2),
            "channel": rng.choice(("web", "shop", "phone")),
        })
    rng.shuffle(rows)
    ids = [store for _, store in keys]
    attrs = {
        "store": ids,
        "sqm": [None if rng.random() < 0.05 else round(rng.uniform(20.0, 400.0), 1) for _ in ids],
        "opened": [rng.randint(1995, 2020) for _ in ids],
    }
    active = {"store": sorted(rng.sample(ids, round(0.85 * len(ids))))}
    return Panel(rows, attrs, active, len(keys))


def month_tick(text: str) -> int:
    y, m = text.split("-")
    return (int(y) - 1970) * 12 + int(m) - 1


def chain_model(p: Panel) -> list[tuple[str, list[dict] | dict]]:
    """The verb chain on lists of dicts: (step, rows after it) per step, the
    last entry mapping (region, quarter tick) to (units sum, revenue mean, priced)."""
    order = lambda r: (r["region"], r["store"], r["month"])
    rows = sorted((dict(r) for r in p.rows), key=order)
    steps = [("build", rows)]
    rows = [r for r in rows if r["units"] >= CHAIN_MIN_UNITS]
    steps.append(("filter", rows))
    lo, hi = (month_tick(m) for m in CHAIN_WINDOW)
    rows = [r for r in rows if lo <= r["month"] <= hi]
    steps.append(("filter_index", rows))
    rows = [{k: v for k, v in r.items() if k != "channel"} for r in rows]
    steps.append(("select", rows))
    rows = [dict(r, revenue=r["units"] * r["price"]) for r in rows]
    steps.append(("mutate", rows))

    # fill_gaps(full=True): every key spans the table's global month range
    # (the interval is one month); new rows get units 0 and the key's mean revenue.
    glo = min(r["month"] for r in rows)
    ghi = max(r["month"] for r in rows)
    by_key: dict[tuple, list[dict]] = {}
    for r in rows:
        by_key.setdefault((r["region"], r["store"]), []).append(r)
    filled = []
    for (region, store), series in by_key.items():
        have = {r["month"] for r in series}
        mean_rev = fmean(r["revenue"] for r in series)
        filled += series
        filled += [
            {"region": region, "store": store, "month": m, "units": 0, "price": None,
             "revenue": mean_rev}
            for m in range(glo, ghi + 1) if m not in have
        ]
    rows = sorted(filled, key=order)
    steps.append(("fill_gaps", rows))

    attrs = {s: (q, o) for s, q, o in zip(p.attrs["store"], p.attrs["sqm"], p.attrs["opened"])}
    rows = [dict(r, sqm=attrs[r["store"]][0], opened=attrs[r["store"]][1]) for r in rows]
    steps.append(("join_left", rows))
    active = set(p.active["store"])
    rows = [r for r in rows if r["store"] in active]
    steps.append(("join_semi", rows))
    rows = [r for r in rows if r["sqm"] is not None and r["sqm"] >= CHAIN_MIN_SQM]
    steps.append(("filter_sqm", rows))
    steps.append(("group_by", rows))
    steps.append(("index_by", rows))

    groups: dict[tuple, list[dict]] = {}
    for r in rows:
        groups.setdefault((r["region"], r["month"] // 3), []).append(r)
    summary = {
        k: (
            sum(r["units"] for r in g),
            fmean(r["revenue"] for r in g),
            sum(r["price"] is not None for r in g),
        )
        for k, g in groups.items()
    }
    steps.append(("summarize", summary))
    return steps


# --- adapter_index -----------------------------------------------------------

SPRINTS_PER_YEAR = 26
ROLL_SIZE = 4


@dataclass
class Sprints:
    """Story points per team and two-week sprint; sprint ``i`` is
    (year, number) of the ``i``-th sprint from 2020.01."""

    teams: int
    sprints: int
    obs: dict[tuple[int, int], int]  # (team, sprint offset) -> points
    rows: list[tuple[int, int, int]]  # shuffled (team, sprint offset, points)

    @staticmethod
    def label(offset: int) -> tuple[int, int]:
        year, n = divmod(offset, SPRINTS_PER_YEAR)
        return 2020 + year, n + 1

    @staticmethod
    def kept(team: int) -> bool:
        """The predicate of the scenario's filter step: drops whole teams,
        so the rolled table stays gap-free."""
        return team % 4 != 0


def sprints(seed: int, teams: int, sprints: int, drop: float = 0.04) -> Sprints:
    rng = rng_for("adapter_index", seed)
    interior = [(t, s) for t in range(teams) for s in range(1, sprints - 1)]
    gone = _drop(rng, interior, drop)
    obs = {
        (t, s): rng.randint(5, 60)
        for t in range(teams)
        for s in range(sprints)
        if (t, s) not in gone
    }
    rows = [(t, s, p) for (t, s), p in obs.items()]
    rng.shuffle(rows)
    return Sprints(teams, sprints, obs, rows)


def sprint_rolls(sp: Sprints) -> dict[tuple[int, int], float | None]:
    """Expected slide mean of the filled points per (team, sprint offset)."""
    out = {}
    for t in range(sp.teams):
        if not Sprints.kept(t):
            continue
        pts = [sp.obs.get((t, s), 0) for s in range(sp.sprints)]
        for s in range(sp.sprints):
            out[(t, s)] = window_mean(pts[s + 1 - ROLL_SIZE : s + 1]) if s + 1 >= ROLL_SIZE else None
    return out


def _write(path, lines) -> int:
    data = ("\n".join(lines) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)
