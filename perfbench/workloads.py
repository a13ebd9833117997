"""The benchmark's workloads: inputs, one operation each, and its correctness check.

An operation is what a user of scenetg waits for:

* explore: ``scenetg.engine.explore`` plus ``write_outputs`` of one model, as
  ``scenetg explore`` does;
* diff: ``RunSnapshot.load`` of two explore outputs, ``diff_graphs`` and the
  report JSON written to disk, as ``scenetg diff`` does.

``prepare(seed, work_dir)`` is the set-up the run times as ``setup_s``: it
makes the inputs from the seed and loads them, and for ``diff-pair`` it also
explores both versions.  Its ops receive only the generated models.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import scenetg
from scenetg import diff, engine, simulator

import synth
from tracing import CountingDriver

# The four deterministic artifacts of an explore run.
EXPLORE_ARTIFACTS = ("scenetg.json", "atg.json", "paths.json", "trace.log")
DIFF_ARTIFACTS = ("diff.json",)

# (explored_activities, transition_pairs, scenes) for every bundled model.
# app01-app10 are the recovery table of acceptance criterion 1; the other
# rows were recorded from the explorer when this benchmark was written.
FIXTURE_STATS = {
    "app01.json": (8, 23, 17),
    "app02.json": (8, 18, 15),
    "app03.json": (9, 24, 22),
    "app04.json": (8, 21, 19),
    "app05.json": (8, 13, 13),
    "app06.json": (3, 19, 19),
    "app07.json": (3, 15, 14),
    "app08.json": (6, 14, 11),
    "app09.json": (3, 16, 11),
    "app10.json": (1, 6, 9),
    "drawer_v1.json": (1, 1, 2),
    "drawer_v2.json": (1, 1, 2),
    "fig5a.json": (4, 5, 5),
    "guarded.json": (1, 2, 3),
    "nested_menu_v1.json": (1, 2, 3),
    "nested_menu_v2.json": (1, 3, 4),
    "palette.json": (1, 0, 1),
    "palette_trap.json": (1, 2, 3),
    "spinner_v1.json": (1, 1, 2),
    "spinner_v2.json": (1, 1, 2),
    "stoprule.json": (2, 2, 3),
}

# Wide pages: many dumps per scene, each with 12 padding widgets and a
# 6-row adapter list; every restore is a single back-press.
WIDE = synth.Shape(activities=2, scenes=6, clickables=6, padding=12, rows=6)
# Small pages, 4 fuzzable widgets (16 fuzz assignments) and 2 of 3 tree
# links clearing the back stack: most actions are relaunch-and-replay.
REPLAY = synth.Shape(activities=1, scenes=4, clickables=4, fuzzable=4, clear_stack_rate=0.67)
# The diffed app and its edit: 32 scenes per version, each edit type present.
DIFF_SHAPE = synth.Shape(activities=4, scenes=8, clickables=5, padding=6, rows=4, back_links=3)
DIFF_EDIT = synth.Mutation(texts=4, inserts=4, deletes=3, new_links=2, cut_links=2)


class SetupError(Exception):
    pass


@dataclass
class Op:
    name: str
    scenes: int  # scenes the op discovers (explore) or compares (diff)
    run: Callable  # (tracer, out_dir) -> result; the timed part
    check: Callable  # result -> problem text or None
    observe: Callable  # (result, out_dir) -> Counter for the traced run
    artifacts: tuple


@dataclass
class Prepared:
    ops: list
    load_s: float  # time spent in load_app_model during this set-up


def _load(path, timings: list):
    start = perf_counter()
    model = simulator.load_app_model(path)
    timings.append(perf_counter() - start)
    return model


def _write_model(doc: dict, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def _output_bytes(out_dir: Path) -> int:
    """Bytes written by one explore, except report.json: its wall time varies in length."""
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file() and p.name != "report.json")


def explore_op(name: str, model, expected: dict) -> Op:
    config = engine.ExplorationConfig()

    def run(tracer, out_dir):
        driver = simulator.simulate(model)
        if tracer.active:
            driver = CountingDriver(driver, tracer)
        result = engine.explore(model, driver, config, out_dir=out_dir)
        engine.write_outputs(result, out_dir, model.package)
        return result

    def check(result) -> Optional[str]:
        if result.report["partial"]:
            return "run ended partial"
        if result.report["stats"] != expected:
            return f"stats {result.report['stats']} != expected {expected}"
        return None

    def observe(result, out_dir) -> Counter:
        return Counter(
            {
                "engine.scenes": result.report["stats"]["scenes"],
                "engine.traced_launches": sum(1 for r in result.trace if r["action"] == "launch"),
                "engine.output_bytes": _output_bytes(out_dir),
            }
        )

    return Op(name, expected["scenes"], run, check, observe, EXPLORE_ARTIFACTS)


def _write_report(report, path: Path) -> None:
    path.write_text(json.dumps(report.to_json(), indent=2) + "\n", encoding="utf-8")


def diff_op(old_dir: Path, new_dir: Path, expected: dict, scenes: int) -> Op:
    def run(tracer, out_dir):
        old = tracer.call("diff.snapshot_load", diff.RunSnapshot.load, old_dir)
        new = tracer.call("diff.snapshot_load", diff.RunSnapshot.load, new_dir)
        report = tracer.call("diff.diff_graphs", diff.diff_graphs, old, new)
        tracer.call("diff.write_report", _write_report, report, out_dir / "diff.json")
        return report

    def check(report) -> Optional[str]:
        if report.summary != expected:
            return f"diff summary {report.summary} != expected {expected}"
        if report.ambiguous_matches:
            return f"{len(report.ambiguous_matches)} ambiguous scene matches"
        return None

    return Op("diff", scenes, run, check, lambda report, out_dir: Counter(), DIFF_ARTIFACTS)


def prepare_fixtures(seed: int, work: Path) -> Prepared:
    """All bundled models, default config; the seed only shuffles their order."""
    bundled = Path(scenetg.__file__).parent / "benchmarks"
    names = list(FIXTURE_STATS)
    random.Random(seed).shuffle(names)
    timings = []
    ops = []
    for name in names:
        model = _load(bundled / name, timings)
        acts, pairs, scenes = FIXTURE_STATS[name]
        expected = {"explored_activities": acts, "scenes": scenes, "transition_pairs": pairs}
        ops.append(explore_op(name.removesuffix(".json"), model, expected))
    return Prepared(ops, sum(timings))


def _prepare_synthetic(shape: synth.Shape, tag: str, seed: int, work: Path) -> Prepared:
    doc, expected = synth.generate(shape, seed, tag)
    timings = []
    model = _load(_write_model(doc, work / f"{tag}.json"), timings)
    return Prepared([explore_op(tag, model, expected)], sum(timings))


def prepare_diff_pair(seed: int, work: Path) -> Prepared:
    v1, expected = synth.generate(DIFF_SHAPE, seed, "diff-pair")
    v2, summary = synth.mutate(v1, DIFF_EDIT, seed)
    v2_expected = dict(
        expected, transition_pairs=expected["transition_pairs"] + DIFF_EDIT.new_links - DIFF_EDIT.cut_links
    )
    timings = []
    dirs = []
    for tag, doc, want in (("v1", v1, expected), ("v2", v2, v2_expected)):
        model = _load(_write_model(doc, work / f"diff-{tag}.json"), timings)
        out = work / f"run-{tag}"
        result = engine.explore(model, simulator.simulate(model), engine.ExplorationConfig(), out_dir=out)
        engine.write_outputs(result, out, model.package)
        if result.report["partial"] or result.report["stats"] != want:
            raise SetupError(f"diff-pair {tag}: stats {result.report['stats']} != expected {want}")
        dirs.append(out)
    op = diff_op(dirs[0], dirs[1], summary, scenes=2 * expected["scenes"])
    return Prepared([op], sum(timings))


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable  # (seed, work_dir) -> Prepared
    # Fixed per workload so runs stay comparable; the highest that keeps ten
    # samples beyond it in a default-length run.
    tail_pct: float


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fixtures", prepare_fixtures, 95.0),
        Workload("synth-wide", lambda seed, work: _prepare_synthetic(WIDE, "synth-wide", seed, work), 90.0),
        Workload("synth-replay", lambda seed, work: _prepare_synthetic(REPLAY, "synth-replay", seed, work), 90.0),
        Workload("diff-pair", prepare_diff_pair, 95.0),
    )
}
