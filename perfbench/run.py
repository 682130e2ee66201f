"""gridcalc benchmark: one closed-loop client, one workload per run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload call-small --seed 1 --seconds 15 --trace 0

The run generates its workbooks from ``--seed`` (see ``workloads.py``),
loads them with ``gwb.load_workspace`` and builds an ``Engine`` several
times (set-up), then alternates steady full recalcs with edits
(``Engine.set_cell`` + ``full_recalc`` + a read) for ``--seconds``. Every
value read is checked against ``oracle.py``; the table input cells must be
blank after every recalc, and the workbooks must survive a dump/reload.

Each timing sample is bracketed by a fixed pure-Python reference loop and
scaled by ``(REF_NOMINAL_S / reference) ** REF_EXPONENT``, so a machine
whose speed drifts over seconds still gives comparable seconds. Raw seconds and reference
times go to the run record under ``.perfbench/runs/``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics derived from spans recorded by ``spans.py``. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 15  # at least this many set-ups per run; setup_s and first_recalc_s are their medians
SETUP_PHASE_S = 3.0  # and keep setting up until this long has passed
RECALC_EVERY = 5  # every 5th operation is a steady recalc, the rest are edits
MIN_EDITS = 200  # p95 needs ten samples beyond it
MIN_RECALCS = 20
LOOP_CAP_S = 90.0  # stop measuring even if the minimum counts are not reached
LONG_SAMPLE_REPS = 9  # reference loops timed around a set-up or a first recalc; 3 around the rest
HASH_SEED = "0"
REF_NOMINAL_S = 0.0017  # reference loop time on the 2-vCPU machine the bounds were set on
# When that machine sped up, the engine gained less than the reference loop:
# over ten runs of each workload, log(raw) against log(reference) had a
# slope of 0.8 to 0.85, so the reference ratio is applied to this power.
REF_EXPONENT = 0.85


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b) -> None:
        self.a = a
        self.b = b


def _pick(pair: _Pair, x):
    return pair.a + x if isinstance(x, int) else pair.b


def _reference_work() -> None:
    total, table = 0, {}
    for i in range(1500):
        pair = _Pair(i, -i)
        total += _pick(pair, i)
        table[(i & 63, i & 7)] = pair
        total += len([pair.a for _ in range(3)])


def reference_seconds(reps: int) -> float:
    """Median time of a fixed interpreter-bound loop: small objects,
    attribute reads, calls, tuple-keyed dict stores and a comprehension,
    the mix the engine spends its time on. Its speed tracks the engine's
    far better than the wall clock does when the machine's speed drifts."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        _reference_work()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Meter:
    """Timing samples, each bracketed by reference-loop timings taken just
    before and just after it. A sample's normalised seconds are
    ``raw * (REF_NOMINAL_S / mean(reference before, reference after)) ** REF_EXPONENT``."""

    def __init__(self) -> None:
        self.samples: list = []  # [kind, raw seconds, reference before, reference after]

    def time(self, kind: str, fn, reps: int = 3):
        before = reference_seconds(reps)
        t0 = perf_counter()
        result = fn()
        raw = perf_counter() - t0
        self.samples.append([kind, raw, before, reference_seconds(reps)])
        return result

    def factor(self, index: int) -> float:
        _, _, before, after = self.samples[index]
        return (REF_NOMINAL_S / ((before + after) / 2)) ** REF_EXPONENT

    def values(self, kind: str) -> list:
        return [s[1] * self.factor(i) for i, s in enumerate(self.samples) if s[0] == kind]

    def record(self) -> dict:
        return {
            "ref_nominal_s": REF_NOMINAL_S,
            "ref_exponent": REF_EXPONENT,
            "samples": [
                {"kind": k, "raw_s": raw, "ref_before_s": before, "ref_after_s": after, "normalised_s": raw * self.factor(i)}
                for i, (k, raw, before, after) in enumerate(self.samples)
            ],
        }


def percentile(values: list, q: int):
    """Nearest-rank percentile, or None unless ten samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(q / 100 * len(ordered))
    if len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


class Checker:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["call-small", "call-large", "edit-batch"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing is randomised per process, and the dict and set
        # layouts it gives moved timings by several percent from one run to
        # the next; one fixed seed makes runs comparable. exec keeps the pid.
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    if not (ROOT / "src" / "gridcalc" / "__init__.py").is_file():
        print(f"gridcalc sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path) -> int:
    from gridcalc import Engine, formula, gwb, tables
    from gridcalc.model import Literal

    import spans
    import workloads

    w = workloads.WORKLOADS[args.workload](args.seed)
    for name, text in w.files.items():
        (work / name).write_text(text, encoding="utf-8")
    paths = [work / name for name in w.load]
    checker = Checker()
    meter = Meter()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        owners = {"gwb": gwb, "formula": formula, "tables": tables, "Engine": Engine}
        tracer.install(owners)

    def sample(kind: str, fn, reps: int = 3):
        if tracer is not None:
            tracer.sample = len(meter.samples)
        try:
            return meter.time(kind, fn, reps)
        finally:
            if tracer is not None:
                tracer.sample = -1

    def check_inputs(ws, what: str) -> None:
        for addr in w.inputs:
            cell = ws.cell(addr)
            blank = cell is None or (cell.content is None and cell.cached is None)
            checker.check(blank, f"{what}: input cell {addr!r} not restored")

    def check_results(ws, what: str) -> None:
        for addr, expected in w.results.items():
            got = ws.value(addr)
            checker.check(got == expected, f"{what}: {addr!r} = {got!r}, oracle says {expected!r}")
        check_inputs(ws, what)

    # -- set-up: generated text -> Engine, then the first recalc ------------
    def set_up():
        loaded = gwb.load_workspace(paths)
        return loaded, Engine(loaded)

    eng = ws = None
    setup_start = perf_counter()
    i = 0
    while i < SETUPS or perf_counter() - setup_start < SETUP_PHASE_S:
        eng = ws = None
        gc.collect()
        # these samples last up to seconds, so their speed is read more carefully
        ws, eng = sample("setup", set_up, LONG_SAMPLE_REPS)
        sample("first_recalc", eng.full_recalc, LONG_SAMPLE_REPS)
        check_results(ws, f"first recalc {i}")
        if i == 0:
            for book, file_name in w.books.items():
                checker.check(
                    gwb.dump_workbook_source(ws, book) == w.files[file_name],
                    f"dump of {book} differs from the generated text",
                )
        i += 1

    # -- closed loop: steady recalcs and edits ------------------------------
    def edit_and_read(edit):
        for addr, text in edit.writes:
            eng.set_cell(addr, Literal(text))
        eng.full_recalc()
        return ws.value(edit.read)

    counts: dict = defaultdict(int)
    steady_stats = None
    start = perf_counter()
    op = 0
    while True:
        elapsed = perf_counter() - start
        if elapsed >= LOOP_CAP_S:
            break
        if elapsed >= args.seconds and counts["edit"] >= MIN_EDITS and counts["recalc"] >= MIN_RECALCS:
            if tracer is None or counts["recalc_bare"] >= MIN_RECALCS:
                break
        if op % RECALC_EVERY == 0:
            kind = "recalc"
            if tracer is not None and (op // RECALC_EVERY) % 2:
                kind = "recalc_bare"  # untraced, for trace.overhead_frac
                tracer.uninstall()
            try:
                stats = sample(kind, eng.full_recalc)
                if kind == "recalc":
                    steady_stats = stats
            except Exception as exc:  # a failed recalc counts as a wrong result
                checker.check(False, f"recalc raised {exc!r}")
            if kind == "recalc_bare":
                tracer.install(owners)
            check_results(ws, f"recalc {op}")
        else:
            kind = "edit"
            edit = w.next_edit(counts["edit"])
            try:
                got = sample(kind, lambda: edit_and_read(edit))
                checker.check(got == edit.expected, f"edit {op}: {edit.read!r} = {got!r}, oracle says {edit.expected!r}")
            except Exception as exc:
                checker.check(False, f"edit {op} raised {exc!r}")
            w.results[edit.read] = edit.expected
            check_inputs(ws, f"edit {op}")
        counts[kind] += 1
        op += 1
    loop_s = perf_counter() - start
    # read before the round trip below, which holds a second workspace
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    table_stats = None
    if tracer is not None:
        # the evaluations of one recalc's table passes and restores, exact,
        # for the per-layer metrics; untimed
        try:
            table_stats = eng.recalc_tables()
        except Exception:  # renamed or removed: those metrics read missing
            pass
        else:
            check_results(ws, "tables-only recalc")

    # -- dump, reload, recalc: the grid must come back identical ------------
    again = work / "reloaded"
    again.mkdir()
    for book, file_name in w.books.items():
        (again / file_name).write_text(gwb.dump_workbook_source(ws, book), encoding="utf-8")
    for name in w.load:
        if not (again / name).exists():
            shutil.copy(work / name, again / name)
    try:
        reloaded = gwb.load_workspace([again / name for name in w.load])
        Engine(reloaded).full_recalc()
        for book in w.books:
            sheets = [s.name for s in ws.workbook(book).sheets()]
            same = all(
                gwb.dump_sheet(ws, book, s) == gwb.dump_sheet(reloaded, book, s) for s in sheets
            ) and gwb.dump_workbook_source(reloaded, book) == (again / w.books[book]).read_text(encoding="utf-8")
            checker.check(same, f"{book} changed across dump -> reload -> recalc")
        del reloaded
    except Exception as exc:
        checker.check(False, f"dump -> reload -> recalc raised {exc!r}")

    # printed and recorded, but left out of the JSON result: interference
    # from other tenants of a shared machine moves the edit-latency tail by
    # more than any bound a comparison could use
    printed_only: dict = {}
    if tracer is not None:
        tracer.uninstall()
        metrics = layer_metrics(tracer, meter, w, steady_stats, table_stats)
    else:
        edits_ms = [v * 1000 for v in meter.values("edit")]
        metrics = {
            "setup_s": (statistics.median(meter.values("setup")), "s"),
            "first_recalc_s": (statistics.median(meter.values("first_recalc")), "s"),
            "recalc_s": (statistics.median(meter.values("recalc")), "s"),
            "edit_ms.p50": (statistics.median(edits_ms), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        printed_only["edit_ms.p95"] = (percentile(edits_ms, 95), "ms")

    runs = ROOT / ".perfbench" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop_s": loop_s,
        "counts": dict(counts),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **printed_only}.items()},
        **meter.record(),
    }
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer is not None:
        tracer.write(runs / f"{stem}.spans.jsonl")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  loop {loop_s:.1f} s  samples {dict(counts)}")
    for name, (value, unit) in {**metrics, **printed_only}.items():
        print(f"  {name:24s} {'missing' if value is None else f'{value:.6g}'} {unit}")
    print(f"  {'wrong_frac':24s} {checker.failed / max(checker.attempted, 1):.6g} ratio ({checker.failed}/{checker.attempted})")
    for note in checker.notes:
        print(f"  wrong: {note}")
    print(f"  record {runs / (stem + '.json')}")
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def layer_metrics(tracer, meter: Meter, w, steady_stats, table_stats) -> dict:
    """Per-layer metrics from the spans, each span scaled like its sample."""
    from spans import END, NAME, SAMPLE, START

    kinds = [s[0] for s in meter.samples]
    factors = [meter.factor(i) for i in range(len(kinds))]
    recorded = tracer.spans
    selfs = tracer.self_times(recorded)
    per: dict = defaultdict(lambda: defaultdict(float))  # sample -> span name -> seconds
    calls: dict = defaultdict(lambda: defaultdict(int))
    for i, span in enumerate(recorded):
        k = span[SAMPLE]
        if k < 0:
            continue
        per[k][span[NAME]] += (span[END] - span[START]) * factors[k]
        calls[k][span[NAME]] += 1
        if span[NAME] == "gwb.load":
            per[k]["gwb.load_self"] += selfs[i] * factors[k]

    def median_over(kind: str, name: str):
        return statistics.median(per[k][name] for k in range(len(kinds)) if kinds[k] == kind)

    loop = [k for k in range(len(kinds)) if kinds[k] in ("recalc", "edit")]
    recalcs = sum(calls[k]["engine.full_recalc"] for k in loop)

    def per_recalc(name: str):
        return sum(per[k][name] for k in loop) / recalcs if recalcs else None

    def count(stats, field: str):
        # an EvalStats field that was renamed or removed reads missing
        return getattr(stats, field, None)

    evals = count(table_stats, "cell_evaluations")  # inside run_plan, per recalc
    body, restores = count(table_stats, "body_passes"), count(table_stats, "table_restores")
    passes = body + restores if body is not None and restores is not None else None
    run_plan_s = per_recalc("tables.run_plan")
    traced = meter.values("recalc")
    bare = meter.values("recalc_bare")

    out = {
        "gwb.load_s": (median_over("setup", "gwb.load"), "s", ["gwb.load"]),
        "gwb.load_self_s": (median_over("setup", "gwb.load_self"), "s", ["gwb.load", "formula.parse", "tables.declare"]),
        "formula.parse_s": (median_over("setup", "formula.parse"), "s", ["formula.parse"]),
        "formula.parse_calls": (
            statistics.median(calls[k]["formula.parse"] for k in range(len(kinds)) if kinds[k] == "setup"),
            "count",
            ["formula.parse"],
        ),
        "formula.deps_s": (median_over("setup", "formula.deps"), "s", ["formula.deps"]),
        "engine.build_graph_s": (median_over("setup", "engine.build_graph"), "s", ["engine.build_graph"]),
        "tables.declare_s": (median_over("setup", "tables.declare"), "s", ["tables.declare"]),
        "engine.phase1_s": (
            statistics.median(
                per[k]["engine.full_recalc"] - per[k]["tables.schedule"]
                for k in range(len(kinds))
                if kinds[k] == "first_recalc"
            ),
            "s",
            ["engine.full_recalc", "tables.schedule"],
        ),
        "tables.schedule_s": (per_recalc("tables.schedule"), "s", ["tables.schedule", "engine.full_recalc"]),
        "tables.plan_build_s": (per_recalc("tables.plan_build"), "s", ["tables.plan_build", "engine.full_recalc"]),
        "tables.run_plan_s": (run_plan_s, "s", ["tables.run_plan", "engine.full_recalc"]),
        "tables.evals_per_pass": (evals / passes if evals and passes else None, "count", []),
        "tables.useful_eval_frac": (w.useful_evals / evals if evals else None, "ratio", []),
        "engine.eval_us": (
            run_plan_s / evals * 1e6 if evals and run_plan_s is not None else None,
            "us",
            ["tables.run_plan", "engine.full_recalc"],
        ),
        "engine.set_cell_s": (
            sum(per[k]["engine.set_cell"] for k in loop) / max(1, sum(calls[k]["engine.set_cell"] for k in loop)),
            "s",
            ["engine.set_cell"],
        ),
        "engine.cell_evaluations": (count(steady_stats, "cell_evaluations"), "count", []),
        "tables.body_passes": (count(steady_stats, "body_passes"), "count", []),
        "tables.table_restores": (count(steady_stats, "table_restores"), "count", []),
        "trace.overhead_frac": (
            statistics.median(traced) / statistics.median(bare) - 1 if traced and bare else None,
            "ratio",
            [],
        ),
    }
    return {
        name: (None if any(n in tracer.missing for n in needs) else value, unit)
        for name, (value, unit, needs) in out.items()
    }


if __name__ == "__main__":
    sys.exit(main())
