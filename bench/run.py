"""The temporaltable benchmark: two seeded workloads driven as a closed loop.

    python3 bench/run.py --workload cli --seed 1 --seconds 45 --trace 0
    python3 bench/run.py                     # both workloads, one report

Each workload runs two scenarios (step sets with their own inputs and
checks).  One client runs a workload's steps in order, each starting when the
previous one ends, and repeats the whole pass until ``--seconds`` have
passed.  CLI
steps run ``python -m temporaltable`` with ``PYTHONPATH=src`` as a child
process; library passes run in a fresh child process (``bench/child.py``).
The first pass is a warm-up whose outputs are checked against a reference
model built from the generator's values; every later pass must reproduce
those outputs byte for byte (CLI) or digest for digest (library).

``--trace 0`` reports the end-to-end metrics, with times in reference
seconds: scaled by a fixed plain-Python loop timed around every child, since
the host's speed swings by up to 2x.  ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics from the traced
ones plus the tracing overhead, and fails when an expected span never
fires.  A human-readable report goes to standard output; its last line is
one JSON object.  See ``bench/NOTES.md`` for why each scenario exists and
which layer should move which metric.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean, median, quantiles

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "temporaltable" / "__init__.py"
MIN_PASSES = 3
HARD_LIMIT_S = 160  # a run never starts a pass after this, so it ends within 180 s
REFERENCE_S = 0.0075  # the reference loop's time on the reference host (see NOTES.md)
SAMPLED_WINDOWS = 500

CLI_SPANS = {
    "cli.main", "ingest.ingest", "ingest.read_rows", "ingest.typed_columns", "table.build",
    "interval.infer", "ingest.table_to_csv", "timepoint.parse_calls", "timepoint.render_calls",
}
ROLL_SPANS = {"rolling.roll_by_key", "gaps.has_gaps", "table.key_groups", "aggregates.apply"}
VERB_SPANS = {f"verbs.{v}" for v in (
    "filter", "filter_index", "select", "mutate", "join", "group_by", "index_by", "summarize")}

# Per-layer metrics of the JSON result: every count, and the times that both
# workloads exercise (a bypassed layer's time would read 0 on every run).
PER_LAYER = (
    ["table.build_s", "table.build_calls", "table.build_rows", "table.key_groups_s",
     "table.key_groups_calls", "table.validate_table_s", "table.duplicates_s",
     "interval.infer_s", "interval.infer_calls",
     "aggregates.apply_s", "aggregates.apply_calls", "aggregates.cells",
     "gaps.fill_gaps_s", "gaps.has_gaps_s", "gaps.rows_added",
     "rolling.roll_by_key_s", "rolling.windows", "rolling.serial_s", "rolling.workers2_s",
     "verbs.group_by_s", "verbs.index_by_s", "verbs.summarize_s",
     "ingest.rows_in", "ingest.rows_out", "timepoint.parse_calls", "timepoint.render_calls",
     "adapters.to_ticks_calls", "adapters.from_ticks_calls", "adapters.claims_calls",
     "trace.overhead_ratio"]
    + [f"{v}_rows_{d}" for v in sorted(VERB_SPANS) for d in ("in", "out")]
)
CALL_COUNTS = ("table.build", "table.key_groups", "interval.infer", "aggregates.apply")


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"  # the same set and dict layouts in every child
    # Users do not recompile the package on every command: let children cache bytecode.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


# --- child processes ---------------------------------------------------------


def reference_loop() -> None:
    """Fixed plain-Python work that never touches the library: the host's speed gauge."""
    counts, picked = {}, []
    for i in range(20000):
        k = f"k{i % 500}"
        counts[k] = counts.get(k, 0) + i * 3
        if i % 7 == 0:
            picked.append((k, i))
    picked.sort(key=lambda r: (r[1] % 13, r[0]))


def reference_time() -> float:
    """The faster of two timings of the reference loop."""
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return min(times)


@dataclass
class Proc:
    seconds: float
    code: int
    rss_kb: int
    stderr: str
    reference: float  # mean reference time just before and just after the child


class Runner:
    """Runs one child at a time and reaps it with ``os.wait4`` for its peak RSS."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = child_env()

    def run(self, argv: list, stdout: Path) -> Proc:
        err_path = self.work / "stderr.txt"
        before = reference_time()
        with open(stdout, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen([str(a) for a in argv], stdout=out, stderr=err,
                                 cwd=ROOT, env=self.env)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), p.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(p.pid, 0)
            except BaseException:
                p.kill()
                p.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(errors="replace")[-2000:]
        reference = (before + reference_time()) / 2
        return Proc(seconds, p.returncode, usage.ru_maxrss, stderr, reference)


# --- workloads ---------------------------------------------------------------


@dataclass
class Inputs:
    data: object
    rows: int
    series: int
    gap_fraction: float
    input_bytes: int


@dataclass
class PassResult:
    steps: dict = field(default_factory=dict)  # step name -> seconds
    rss_kb: int = 0
    attempted: int = 0
    errors: dict = field(default_factory=dict)  # step name -> what went wrong
    outputs: dict = field(default_factory=dict)  # step name -> digest
    trace: dict = field(default_factory=lambda: {"spans": {}, "counts": {}})
    # Sum over children of (the child's step seconds x the reference time around it).
    reference_weight: float = 0.0

    @property
    def wall(self) -> float:
        return sum(self.steps.values())

    def merge(self, other: "PassResult") -> None:
        self.steps.update(other.steps)
        self.reference_weight += other.reference_weight
        self.rss_kb = max(self.rss_kb, other.rss_kb)
        self.attempted += other.attempted
        self.errors.update(other.errors)
        self.outputs.update(other.outputs)
        self.add_trace(other.trace)

    def add_trace(self, summary: dict) -> None:
        for name, vals in summary["spans"].items():
            agg = self.trace["spans"].setdefault(name, [0, 0, 0])
            for i, v in enumerate(vals):
                agg[i] += v
        for name, n in summary["counts"].items():
            self.trace["counts"][name] = self.trace["counts"].get(name, 0) + n


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _sample(n: int) -> list[int]:
    return sorted(gen.rng_for("check", n).sample(range(n), min(n, SAMPLED_WINDOWS)))


class CliScenario:
    """Steps are ttab commands; checks read their output files."""

    def pass_(self, runner: Runner, inputs: Inputs, traced: bool, check: bool) -> PassResult:
        res = PassResult()
        for step, args, checker in self.steps(runner.work):
            key, out = f"ttab.{step}", runner.work / f"{step}.out"
            if traced:
                spans = runner.work / f"{step}.spans.json"
                argv = [sys.executable, BENCH / "child.py", "cli", "--scenario", self.name,
                        "--step", step, "--out", spans, "--", *args]
            else:
                argv = [sys.executable, "-m", "temporaltable", *args]
            proc = runner.run(argv, out)
            res.attempted += 1
            res.rss_kb = max(res.rss_kb, proc.rss_kb)
            if proc.code != 0:
                res.errors[key] = f"exit {proc.code}: {proc.stderr}"
                continue
            res.steps[key] = proc.seconds
            res.reference_weight += proc.seconds * proc.reference
            res.outputs[key] = hashlib.sha256(out.read_bytes()).hexdigest()
            if traced:
                res.add_trace(json.loads(spans.read_text()))
            if check:
                error = checker(inputs.data, out)
                if error:
                    res.errors[key] = error
        return res


class CliDaily(CliScenario):
    name = "cli_daily"
    expected = CLI_SPANS | ROLL_SPANS | {
        "display.render_summary", "gaps.fill_gaps", "verbs.group_by", "verbs.index_by",
        "verbs.summarize"}

    def generate(self, seed: int, work: Path) -> Inputs:
        d = gen.daily(seed, **gen.SIZES["cli_daily"])
        size = gen.write_daily(work / "daily.csv", d)
        grid = len(d.cities) * d.days
        return Inputs(d, len(d.obs), len(d.cities), 1 - len(d.obs) / grid, size)

    def steps(self, work: Path):
        src, ing = work / "daily.csv", ["--index", "day", "--key", "city"]
        return [
            ("validate", ["validate", src, *ing], check_validate),
            ("gaps_fill", ["gaps", "fill", src, *ing, "--fill-with", "riders=0"], check_filled),
            ("agg", ["agg", src, *ing, "--by", "month", "--group", "city",
                     "--fn", "riders=sum", "--fn", "temp=mean"], check_months),
            ("roll", ["roll", work / "gaps_fill.out", *ing, "--op", "slide", "--col", "riders",
                      "--fn", "mean", "--size", "7"], check_daily_roll),
        ]

    def probe_csv(self, work: Path) -> Path:
        return work / "daily.csv"


def check_validate(d: gen.Daily, path: Path):
    lines = path.read_text().splitlines()
    want = [f"# A tsibble: {len(d.obs):,} x 4 [1D]", f"# Key:       city [{len(d.cities):,}]"]
    return None if lines[:2] == want else f"banner {lines[:2]}, expected {want}"


def _filled_rows(d: gen.Daily) -> list[list[str]]:
    rows = []
    for c in d.cities:
        for o in range(d.days):
            r, t = d.obs.get((c, o), (0, None))
            rows.append([c, d.day_text(o), str(r), "" if t is None else repr(t)])
    return rows


def check_filled(d: gen.Daily, path: Path):
    got = _csv_rows(path)
    want = [["city", "day", "riders", "temp"]] + _filled_rows(d)
    if len(got) != len(want):
        return f"{len(got) - 1} rows, expected the full grid of {len(want) - 1}"
    bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    return None if bad is None else f"line {bad + 1} is {got[bad]}, expected {want[bad]}"


def check_months(d: gen.Daily, path: Path):
    got = _csv_rows(path)
    if got[0] != ["city", "month", "riders_sum", "temp_mean"]:
        return f"header {got[0]}"
    want = gen.daily_months(d)
    have = {(c, m): (s, mean) for c, m, s, mean in got[1:]}
    if have.keys() != want.keys():
        return f"{len(have)} city-months, expected {len(want)}"
    for k, (s, mean) in want.items():
        if int(have[k][0]) != s or not gen.close(float(have[k][1]), mean):
            return f"{k} is {have[k]}, expected {(s, mean)}"
    return None


def check_daily_roll(d: gen.Daily, path: Path):
    got = _csv_rows(path)
    filled = _filled_rows(d)
    if got[0] != ["city", "day", "riders", "temp", "riders_slide"] or len(got) != len(filled) + 1:
        return f"header {got[0]} with {len(got) - 1} rows, expected {len(filled)}"
    for i in _sample(len(filled)):
        row, o = got[i + 1], i % d.days
        if row[:4] != filled[i]:
            return f"row {i} is {row}, expected {filled[i]}"
        pts = d.filled_riders(row[0])[max(0, o - 6): o + 1]
        if (o < 6 and row[4] != "") or (o >= 6 and not gen.close(float(row[4]), gen.window_mean(pts))):
            return f"window ending {row[:2]} is {row[4]!r}, expected mean of {pts}"
    return None


class RollHourly(CliScenario):
    name = "roll_hourly"
    expected = CLI_SPANS | ROLL_SPANS
    # (step, op, fn, window arguments, expected value at 0-based position i of vals)
    OPS = (
        ("roll_slide", "slide", "mean", ["--size", "168"],
         lambda v, i: gen.window_mean(v[i - 167: i + 1]) if i >= 167 else None),
        ("roll_tile", "tile", "max", ["--size", "24"],
         lambda v, i: max(v[i - 23: i + 1]) if (i + 1) % 24 == 0 else None),
        ("roll_stretch", "stretch", "sum", ["--init", "24", "--step", "24"],
         lambda v, i: math.fsum(v[: i + 1]) if (i + 1) % 24 == 0 else None),
    )

    def generate(self, seed: int, work: Path) -> Inputs:
        hd = gen.hourly(seed, **gen.SIZES["roll_hourly"])
        size = gen.write_hourly(work / "hourly.csv", hd)
        return Inputs(hd, len(hd.sensors) * hd.hours, len(hd.sensors), 0.0, size)

    def steps(self, work: Path):
        ing = ["--index", "ts", "--key", "sensor", "--time-format", "ts=hour", "--col", "load"]
        return [
            (step, ["roll", work / "hourly.csv", *ing, "--op", op, "--fn", fn, *win],
             lambda hd, path, op=op, expect=expect: check_hourly(hd, path, op, expect))
            for step, op, fn, win, expect in self.OPS
        ]

    def probe_csv(self, work: Path) -> Path:
        return work / "hourly.csv"


def check_hourly(hd: gen.Hourly, path: Path, op: str, expect):
    got = _csv_rows(path)
    if got[0] != ["sensor", "ts", "load", f"load_{op}"] or len(got) != hd.hours * len(hd.sensors) + 1:
        return f"header {got[0]} with {len(got) - 1} rows"
    for j in _sample(len(got) - 1):
        s, i = hd.sensors[j // hd.hours], j % hd.hours
        vals, row = hd.values[s], got[j + 1]
        if row[:3] != [s, hd.stamp(i), repr(vals[i])]:
            return f"row {j} is {row[:3]}, expected {[s, hd.stamp(i), repr(vals[i])]}"
        want = expect(vals, i)
        if (want is None and row[3] != "") or (want is not None and not gen.close(float(row[3]), want)):
            return f"{op} window ending {row[:2]} is {row[3]!r}, expected {want}"
    return None


class LibScenario:
    """One pass is one fresh child running the steps in ``bench/child.py``."""

    EXPECTED = {
        "verb_chain": VERB_SPANS | {
            "table.build", "interval.infer", "gaps.fill_gaps", "table.key_groups",
            "aggregates.apply"},
        "adapter_index": ROLL_SPANS | {
            "table.build", "interval.infer", "gaps.fill_gaps", "verbs.filter",
            "adapters.claims_calls", "adapters.to_ticks_calls", "adapters.from_ticks_calls"},
    }

    def __init__(self, name: str):
        self.name = name
        self.expected = self.EXPECTED[name]

    def generate(self, seed: int, work: Path) -> Inputs:
        self.seed = seed
        if self.name == "verb_chain":
            p = gen.panel(seed, **gen.SIZES["verb_chain"])
            size = sum(len(",".join(map(str, r.values()))) + 1 for r in p.rows)
            months = gen.SIZES["verb_chain"]["months"]
            return Inputs(p, len(p.rows), p.series, 1 - len(p.rows) / (p.series * months), size)
        sp = gen.sprints(seed, **gen.SIZES["adapter_index"])
        size = sum(len(f"{t},{gen.Sprints.label(s)},{p}") + 1 for t, s, p in sp.rows)
        return Inputs(sp, len(sp.rows), sp.teams, 1 - len(sp.rows) / (sp.teams * sp.sprints), size)

    def pass_(self, runner: Runner, inputs: Inputs, traced: bool, check: bool) -> PassResult:
        out = runner.work / f"{self.name}.json"
        argv = [sys.executable, BENCH / "child.py", "lib", "--scenario", self.name,
                "--seed", self.seed, "--out", out]
        argv += ["--trace"] * traced + ["--check"] * check
        if out.exists():
            out.unlink()
        proc = runner.run(argv, runner.work / f"{self.name}.out")
        res = PassResult(rss_kb=proc.rss_kb)
        prefix = f"lib.{self.name}."
        if proc.code != 0 or not out.exists():
            res.errors[prefix + "child"] = f"exit {proc.code}: {proc.stderr}"
            return res
        result = json.loads(out.read_text())
        res.attempted = len(result["planned"])
        for step in result["steps"]:
            if step["error"]:
                res.errors[prefix + step["name"]] = step["error"]
            else:
                res.steps[prefix + step["name"]] = step["seconds"]
                res.reference_weight += step["seconds"] * proc.reference
        res.outputs[prefix + "digest"] = result["digest"]
        if traced:
            res.add_trace(result["trace"])
        return res

    def probe_csv(self, work: Path) -> None:
        return None


# Each workload is two step sets ("scenarios") that a pass runs back to back;
# bench/NOTES.md says why there are two workloads, not four.
WORKLOADS = {
    "cli": (CliDaily(), RollHourly()),
    "library": (LibScenario("verb_chain"), LibScenario("adapter_index")),
}


# --- one run -----------------------------------------------------------------


@dataclass
class Run:
    name: str
    seed: int
    inputs: list = field(default_factory=list)  # (scenario, Inputs)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    report: list = field(default_factory=list)

    @property
    def rows(self) -> int:
        return sum(i.rows for _, i in self.inputs)

    def count(self, res: PassResult, reference: dict | None) -> None:
        """Tally a pass: failed steps, plus outputs that differ from the checked pass."""
        for k, v in res.outputs.items():
            if reference is not None and reference.get(k) != v:
                res.errors.setdefault(k, "output differs from the checked pass")
        self.attempted += max(res.attempted, len(res.errors))
        self.failed += len(res.errors)
        self.errors += [f"{k}: {v}" for k, v in res.errors.items()]

    def fail(self, error: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(error)


def run_workload(name: str, seed: int, seconds: int, trace: bool, t_start: float) -> Run:
    scenarios = WORKLOADS[name]
    run = Run(name, seed)
    if not trace and hasattr(os, "sched_setaffinity"):
        # One CPU for this process and its children, so that the reference loop
        # times the CPU the steps ran on.  The traced run's probes need two.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = BENCH / ".work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, t_start + HARD_LIMIT_S + 15)

    def one_pass(traced: bool, check: bool) -> PassResult:
        res = PassResult()
        for sc, (_, inputs) in zip(scenarios, run.inputs):
            res.merge(sc.pass_(runner, inputs, traced, check))
        return res

    setups = []

    def set_up() -> None:
        before = reference_time()
        t0 = time.perf_counter()
        run.inputs = [(sc.name, sc.generate(seed, work)) for sc in scenarios]
        gen_s = time.perf_counter() - t0
        imp = runner.run([sys.executable, "-c", "import temporaltable"], work / "import.out")
        if imp.code != 0:
            raise SystemExit(f"bench: importing temporaltable failed: {imp.stderr}")
        setups.append(((gen_s + imp.seconds), (before + imp.reference) / 2))

    try:
        set_up()
        checked = one_pass(traced=False, check=True)
        run.count(checked, None)

        # A round is one untraced pass, plus one traced pass when tracing.
        plain, traced = [], []
        t_measure = time.monotonic()
        while True:
            elapsed = time.monotonic() - t_measure
            per_round = elapsed / len(plain) if plain else 0.0
            if len(plain) >= MIN_PASSES and elapsed + per_round > seconds:
                break
            if plain and time.monotonic() - t_start + per_round > HARD_LIMIT_S:
                break
            for is_traced in ((False, True) if trace else (False,)):
                res = one_pass(traced=is_traced, check=False)
                run.count(res, checked.outputs)
                (traced if is_traced else plain).append(res)
            if not trace:
                # Set up again after every round, so that the median set-up time
                # samples the whole run, not one moment of the host's speed.
                set_up()

        if trace:
            layer = per_layer(run, scenarios, runner, traced)
            layer["trace.overhead_ratio"] = (
                median(p.wall for p in traced) / median(p.wall for p in plain))
            run.metrics = {k: (v, unit_of(k)) for k, v in layer.items()}
            run.report = layer_report(layer, traced, plain)
        else:
            # Host speed over the run: the reference time around each child,
            # weighted by that child's step time.
            reference = sum(p.reference_weight for p in plain) / sum(p.wall for p in plain)
            wall = mean(p.wall for p in plain) * REFERENCE_S / reference
            run.metrics = {
                "setup_s": (median(s * REFERENCE_S / ref for s, ref in setups), "s"),
                "wall_s": (wall, "s"),
                "rows_per_s": (run.rows / wall, "rows/s"),
                "peak_rss_mb": (max(p.rss_kb for p in plain) / 1024, "MB"),
            }
            run.report = e2e_report(run, plain, setups, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    return run


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


def layer_values(res: PassResult) -> dict:
    """Self seconds per span, call counts of the listed spans, and the counters."""
    out = dict(res.trace["counts"])
    for name, (calls, _, self_ns) in res.trace["spans"].items():
        out["cli.self_s" if name == "cli.main" else f"{name}_s"] = self_ns / 1e9
        if name in CALL_COUNTS:
            out[f"{name}_calls"] = calls
    return out


def per_layer(run: Run, scenarios, runner: Runner, traced: list) -> dict:
    per_pass = [layer_values(p) for p in traced]
    names = set(PER_LAYER) | set().union(*per_pass)
    layer = {k: median(v.get(k, 0) for v in per_pass) for k in sorted(names)}
    expected = set().union(*(sc.expected for sc in scenarios))
    for p in traced:
        fired = set(p.trace["spans"]) | {k for k, v in p.trace["counts"].items() if v}
        missing = sorted(expected - fired)
        if missing:
            run.fail(f"expected spans never fired: {', '.join(missing)}")
            break

    # Table probes on each scenario's table, summed; the rolling probe once.
    for i, sc in enumerate(scenarios):
        out = runner.work / "probe.json"
        argv = [sys.executable, BENCH / "child.py", "probe", "--scenario", sc.name,
                "--seed", run.seed, "--out", out]
        csv_path = sc.probe_csv(runner.work)
        argv += (["--csv", csv_path] if csv_path else []) + (["--rolling"] if i == 0 else [])
        proc = runner.run(argv, runner.work / "probe.out")
        if proc.code != 0:
            run.fail(f"probe {sc.name}: exit {proc.code}: {proc.stderr}")
            continue
        run.attempted += 1
        for k, v in json.loads(out.read_text()).items():
            layer[k] = v + (layer[k] if k.startswith("table.") and i else 0)
    return layer


# --- reports -----------------------------------------------------------------


def header(run: Run, trace: bool) -> list[str]:
    lines = [f"== {run.name}  seed {run.seed}  trace {int(trace)}  closed loop, 1 client"]
    for sc, i in run.inputs:
        lines.append(f"   {sc} inputs: {i.rows:,} rows, {i.series:,} series, gap fraction "
                     f"{i.gap_fraction:.3f}, {i.input_bytes:,} bytes")
    return lines


def e2e_report(run: Run, plain: list, setups: list, reference: float) -> list[str]:
    n = len(plain)
    how = {
        "setup_s": f"median of {len(setups)} set-ups, reference seconds",
        "wall_s": f"mean of {n} passes, reference seconds",
        "rows_per_s": "input rows / wall_s",
        "peak_rss_mb": f"max of {n} passes",
    }
    lines = [f"   {name:<32} {value:>12.4f} {unit:<7} {how[name]}"
             for name, (value, unit) in run.metrics.items()]
    q1, mid, q3 = quantiles([p.wall for p in plain], n=4)
    lines += [
        f"   {'fail_ratio':<32} {run.failed / run.attempted:>12.4f} {'ratio':<7} "
        f"{run.failed} of {run.attempted} steps",
        f"   {'reference loop':<32} {reference * 1e3:>12.4f} {'ms':<7} weighted mean over the "
        f"passes; {REFERENCE_S * 1e3:g} ms on the reference host",
        f"   {'measured setup':<32} {median(s for s, _ in setups):>12.4f} {'s':<7} "
        f"median of {len(setups)} set-ups",
        f"   {'measured pass wall':<32} {mid:>12.4f} {'s':<7} "
        f"median of {n} passes, quartiles {q1:.4f} .. {q3:.4f}",
    ]
    for step in plain[0].steps:
        times = [p.steps[step] for p in plain if step in p.steps]
        lines.append(f"   {step + '_s':<32} {median(times):>12.4f} {'s':<7} "
                     f"measured, median of {len(times)} passes")
    return lines


def layer_report(layer: dict, traced: list, plain: list) -> list[str]:
    lines = [f"   per-layer self times and counts: median of {len(traced)} traced passes"]
    for name in sorted(layer):
        if name == "trace.overhead_ratio":
            continue
        unit = unit_of(name)
        value = f"{layer[name]:>14,.0f}" if unit == "count" else f"{layer[name]:>14.4f}"
        flag = "" if name in PER_LAYER else "  (report only)"
        lines.append(f"   {name:<30} {value} {unit:<6}{flag}")
    lines.append(
        f"   trace.overhead_ratio {layer['trace.overhead_ratio']:.4f} = traced wall "
        f"{median(p.wall for p in traced):.4f} s / untraced wall "
        f"{median(p.wall for p in plain):.4f} s ({len(traced)} traced, "
        f"{len(plain)} untraced passes)")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not PACKAGE.is_file():
        print(f"bench: no library at {PACKAGE.relative_to(ROOT)}; run from a full checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = []
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace), time.monotonic())
        runs.append(run)
        print("\n".join(header(run, bool(args.trace)) + run.report))
        for e in run.errors:
            print(f"bench: {name}: {e}", file=sys.stderr)

    prefix = (lambda r: f"{r.name}/") if len(runs) > 1 else (lambda r: "")
    result = {
        "correct": all(not r.failed for r in runs),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {
            prefix(r) + k: {"value": v, "unit": u} for r in runs for k, (v, u) in r.metrics.items()
            if args.trace == 0 or k in PER_LAYER
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
