"""Child processes of the benchmark; each runs in a fresh interpreter.

    python bench/child.py lib   --scenario S --seed N --out FILE [--trace] [--check]
    python bench/child.py cli   --scenario S --step STEP --out FILE -- <ttab arguments>
    python bench/child.py probe --scenario S --seed N --out FILE [--csv FILE] [--rolling]

``lib`` runs one pass of a library scenario in-process and writes each
step's time to FILE.  ``cli`` runs ``python -m temporaltable`` with the
tracer installed and writes the span summary to FILE.  ``probe`` times the
layer probes of a traced run.  The library is imported from ``src`` through
``PYTHONPATH``, which the parent sets.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import runpy
import statistics
import sys
import time
import traceback

import gen
import temporaltable as tt
from tracer import Tracer, install

def same_rows(got: list[dict], want: list[dict]) -> str | None:
    if len(got) != len(want):
        return f"{len(got)} rows, expected {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if g.keys() != w.keys() or not all(gen.close(g[k], w[k]) for k in w):
            return f"row {i} is {g}, expected {w}"
    return None


def _ticks_row(t, i: int) -> dict:
    row = t.row(i)
    row[t.index] = row[t.index].ticks
    return row


# --- verb_chain --------------------------------------------------------------


def verb_chain(seed: int):
    p = gen.panel(seed, **gen.SIZES["verb_chain"])
    names = ("region", "store", "month", "units", "price", "channel")
    cols = {c: [r[c] for r in p.rows] for c in names}
    month = tt.granularity.Granularity.MONTH
    cols["month"] = [tt.timepoint.TimePoint(m, month) for m in cols["month"]]
    lo, hi = gen.CHAIN_WINDOW
    v = tt.verbs
    steps = [
        ("build", lambda _: tt.table.build(cols, "month", ("region", "store"))),
        ("filter", lambda t: v.filter(t, lambda r: r["units"] >= gen.CHAIN_MIN_UNITS).table),
        ("filter_index", lambda t: v.filter_index(t, f"{lo} ~ {hi}").table),
        ("select", lambda t: v.select(t, ["region", "store", "month", "units", "price"]).table),
        ("mutate", lambda t: v.mutate(t, revenue=lambda r: r["units"] * r["price"]).table),
        ("fill_gaps", lambda t: tt.gaps.fill_gaps(
            t, {"units": 0, "revenue": tt.aggregates.Aggregate("mean")}, full=True)),
        ("join_left", lambda t: v.join(t, p.attrs, "left", by=["store"]).table),
        ("join_semi", lambda t: v.join(t, p.active, "semi", by=["store"]).table),
        ("filter_sqm", lambda t: v.filter(
            t, lambda r: r["sqm"] is not None and r["sqm"] >= gen.CHAIN_MIN_SQM).table),
        ("group_by", lambda t: v.group_by(t, "region")),
        ("index_by", lambda t: v.index_by(t, "quarter")),
        ("summarize", lambda t: v.summarize(
            t, units=("sum", "units"), revenue=("mean", "revenue"), priced=("count", "price"))),
    ]

    def check(name: str, t, model: dict) -> str | None:
        want = model[name]
        if name != "summarize":
            return same_rows([_ticks_row(t, i) for i in range(t.nrows)], want)
        got = {
            (r["region"], r["quarter"].ticks): (r["units"], r["revenue"], r["priced"])
            for r in t.rows()
        }
        if got.keys() != want.keys():
            return f"summary groups {len(got)}, expected {len(want)}"
        bad = [k for k in want if not all(map(gen.close, got[k], want[k]))]
        return f"summary {bad[0]} is {got[bad[0]]}, expected {want[bad[0]]}" if bad else None

    return steps, lambda: dict(gen.chain_model(p)), check


# --- adapter_index -----------------------------------------------------------


class Sprint:
    """A two-week sprint numbered within its year, as in "2024.07"."""

    def __init__(self, year: int, number: int):
        self.year = year
        self.number = number

    def __eq__(self, other):
        return isinstance(other, Sprint) and (self.year, self.number) == (other.year, other.number)

    def __hash__(self):
        return hash((self.year, self.number))

    def __repr__(self):
        return f"Sprint({self.year}, {self.number})"


class SprintAdapter(tt.adapters.IndexAdapter):
    name = "sprint"
    unit_label = "sp"
    sample_values = (Sprint(2024, 1), Sprint(2024, 2), Sprint(2024, 26))

    def to_ticks(self, value):
        if not isinstance(value, Sprint):
            raise TypeError(f"not a sprint: {value!r}")
        return gen.SPRINTS_PER_YEAR * value.year + value.number - 1

    def from_ticks(self, ticks):
        year, n = divmod(ticks, gen.SPRINTS_PER_YEAR)
        return Sprint(year, n + 1)


def _sprint_offset(s: Sprint) -> int:
    return (s.year - 2020) * gen.SPRINTS_PER_YEAR + s.number - 1


def adapter_index(seed: int):
    sp = gen.sprints(seed, **gen.SIZES["adapter_index"])
    cols = {
        "team": [t for t, _, _ in sp.rows],
        "sprint": [Sprint(*sp.label(s)) for _, s, _ in sp.rows],
        "points": [p for _, _, p in sp.rows],
    }
    steps = [
        # No adapter name: the index kind is found by asking registered adapters.
        ("build", lambda _: tt.table.build(cols, "sprint", ("team",))),
        ("fill_gaps", lambda t: tt.gaps.fill_gaps(t, {"points": 0})),
        ("filter", lambda t: tt.verbs.filter(t, lambda r: sp.kept(r["team"])).table),
        ("roll_by_key", lambda t: tt.rolling.roll_by_key(
            t, "points", "slide", lambda w: tt.aggregates.apply("mean", w),
            tt.rolling.Window(gen.ROLL_SIZE))),
    ]
    kept = sum(sp.kept(t) for t in range(sp.teams))

    def model():
        return {
            "build": len(sp.obs),
            "fill_gaps": sp.teams * sp.sprints,
            "filter": kept * sp.sprints,
            "roll_by_key": gen.sprint_rolls(sp),
        }

    def check(name: str, t, want: dict) -> str | None:
        if t.interval.shorthand() != "[1sp]":
            return f"interval {t.interval.shorthand()}, expected [1sp]"
        rows = want["filter"] if name == "roll_by_key" else want[name]
        if t.nrows != rows:
            return f"{t.nrows} rows, expected {rows}"
        if name != "roll_by_key":
            return None
        rolled = {
            (r["team"], _sprint_offset(r["sprint"])): r["points_slide"] for r in t.rows()
        }
        expected = want["roll_by_key"]
        if rolled.keys() != expected.keys():
            return "rolled (team, sprint) pairs differ from the model"
        for k in gen.rng_for("adapter_index.check", 0).sample(sorted(expected), 500):
            if not gen.close(rolled[k], expected[k]):
                return f"window ending {k} is {rolled[k]}, expected {expected[k]}"
        return None

    return steps, model, check


LIB_SCENARIOS = {"verb_chain": verb_chain, "adapter_index": adapter_index}


def run_lib(args) -> dict:
    if args.scenario == "adapter_index":
        tt.adapters.register_index_adapter(SprintAdapter())
    steps, model, check = LIB_SCENARIOS[args.scenario](args.seed)
    want = model() if args.check else None
    tracer = Tracer(args.scenario) if args.trace else None
    if tracer:
        install(tracer, tt)
    out, t, digest = [], None, hashlib.sha256()
    for name, step in steps:
        if tracer:
            tracer.step = name
        t0 = time.perf_counter()
        try:
            t = step(t)
        except Exception:
            out.append({"name": name, "seconds": time.perf_counter() - t0,
                        "error": traceback.format_exc(limit=3)})
            break
        seconds = time.perf_counter() - t0
        error = check(name, t, want) if want is not None else None
        out.append({"name": name, "seconds": seconds, "rows": t.nrows, "error": error})
        digest.update(f"{name}:{t.nrows};".encode())
    if t is not None and len(out) == len(steps):
        digest.update(repr(t.to_dict()).encode())
    return {
        "steps": out,
        "planned": [name for name, _ in steps],
        "digest": digest.hexdigest(),
        "trace": tracer.summary() if tracer else None,
    }


# --- traced CLI --------------------------------------------------------------


def run_cli(args) -> int:
    tracer = Tracer(args.scenario)
    tracer.step = args.step
    install(tracer, tt)
    sys.argv = ["ttab", *args.ttab]
    try:
        runpy.run_module("temporaltable", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    with open(args.out, "w") as fh:
        json.dump(tracer.summary(), fh)
    return code


# --- probes ------------------------------------------------------------------


def _median_times(fns: dict, reps: int = 3) -> dict:
    """Median time of each function, calling them in turn so drift hits all alike."""
    times = {name: [] for name in fns}
    for _ in range(reps):
        for name, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - t0)
    return {name: statistics.median(ts) for name, ts in times.items()}


def _hourly_table(seed: int):
    hd = gen.hourly(seed, **gen.SIZES["roll_hourly"])
    first = gen.hourly_ticks(hd)
    hour = tt.granularity.Granularity.HOUR
    cols = {"sensor": [], "ts": [], "load": []}
    for s in hd.sensors:
        cols["sensor"] += [s] * hd.hours
        cols["ts"] += [tt.timepoint.TimePoint(first + h, hour) for h in range(hd.hours)]
        cols["load"] += hd.values[s]
    return tt.table.build(cols, "ts", ("sensor",))


def _scenario_table(args):
    if args.csv:
        cfg = {
            "cli_daily": dict(index="day", key=("city",)),
            "roll_hourly": dict(index="ts", key=("sensor",), time_format={"ts": "hour"}),
        }[args.scenario]
        return tt.ingest(tt.IngestConfig(path=args.csv, **cfg))
    steps, _, _ = LIB_SCENARIOS[args.scenario](args.seed)
    return steps[0][1](None)


def run_probe(args) -> dict:
    """Oracle against uniqueness scan on the scenario's own table and, with
    ``--rolling``, serial against two-worker rolling of a Python callable on
    roll_hourly's table."""
    if args.scenario == "adapter_index":
        tt.adapters.register_index_adapter(SprintAdapter())
    t = _scenario_table(args)
    raw = t.to_dict()
    out = _median_times({
        "table.validate_table_s": lambda: tt.table.validate_table(t),
        "table.duplicates_s": lambda: tt.table.duplicates(raw, t.index, t.key),
    })
    if not args.rolling:
        return out
    hourly = _hourly_table(args.seed)
    window = tt.rolling.Window(168)
    roll = lambda workers: tt.rolling.roll_by_key(
        hourly, "load", "slide", gen.window_mean, window, workers=workers)
    if roll(None) != roll(2):
        raise AssertionError("rolling with two workers changed the result")
    out.update(_median_times({
        "rolling.serial_s": lambda: roll(None),
        "rolling.workers2_s": lambda: roll(2),
    }))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(prog="bench/child.py")
    ap.add_argument("mode", choices=("lib", "cli", "probe"))
    ap.add_argument("--scenario", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--step", default="")
    ap.add_argument("--out", required=True)
    ap.add_argument("--csv", default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--rolling", action="store_true")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = ap.parse_args(argv[:split])
    args.ttab = argv[split + 1:]
    if args.mode == "cli":
        return run_cli(args)
    result = run_lib(args) if args.mode == "lib" else run_probe(args)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
