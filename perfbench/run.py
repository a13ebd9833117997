#!/usr/bin/env python3
"""scenetg benchmark: one workload per process, one sequential client.

Usage, from the repository root:

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 20 --trace 0

A run sets the workload up, runs one untimed warm-up pass, then runs the
workload's operations one at a time (a closed loop) in whole passes for
``--seconds`` seconds, and at least until the tail percentile has ten samples
beyond it.  It sets the workload up four more times, spread over the timed
part between passes.  Every operation is checked: it fails when it raises,
when its run ends partial, when its stats differ from the expected ones, or
when its artifacts differ from the first repeat.

Times are scaled to a reference host speed: each round of passes (at least
ROUND_S of op time) and each set-up is scaled by a fixed probe timed just
before and just after it (see ``hostspeed.py``).  The unscaled figures are
printed too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` instead runs each
operation twice per pass, untraced and traced in alternating order, checks
that both write byte-identical artifacts, and prints the per-layer metrics of
one pass (counts must repeat exactly; times are medians over passes) and the
traced/untraced time ratio.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the scenetg
sources under ``src/`` the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import hostspeed
from tracing import ACTION_SPANS, NullTracer, Tracer, absent_layers, layer_targets, patched

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

# Set-up is repeated SETUP_REPEATS more times, spread evenly over the timed
# part between passes, so that its repeats sample the whole run.
SETUP_REPEATS = 4
# Op time between two probes of the host's speed.
ROUND_S = 0.5
TRACE_SETUP_REPS = 3
TRACE_MIN_PASSES = 3
# Longest a run may stretch to reach its tail sample count; the whole process
# must end within 180 s.
MEASURE_CAP_S = 100.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(sorted_values, pct):
    """Linear interpolation between closest ranks (numpy's default method)."""
    rank = (len(sorted_values) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (rank - low)


def artifact_digest(out_dir: Path, names) -> str:
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode("utf-8") + b"\0")
        digest.update((out_dir / name).read_bytes())
    return digest.hexdigest()


class Checker:
    """Counts attempted and failed operations and keeps each op's reference digest."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reported = set()
        self.reference = {}

    def run(self, op, tracer, out_dir: Path, inspect=None):
        """Run one op; returns (seconds, result), or (None, result) when it failed.

        The op writes into ``out_dir`` freshly created, as ``scenetg explore
        --out new_dir`` does; overwriting the files of the previous repeat
        would time the file system freeing their blocks instead.  The
        directory is removed, untimed, after the check and ``inspect(result,
        out_dir)``.
        """
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        self.attempted += 1
        try:
            start = perf_counter()
            try:
                result = op.run(tracer, out_dir)
            except Exception as exc:  # an op that raises is a failed op, not a crashed benchmark
                self._fail(op, f"raised {type(exc).__name__}: {exc}")
                return None, None
            elapsed = perf_counter() - start
            problem = op.check(result)
            if problem is None:
                try:
                    digest = artifact_digest(out_dir, op.artifacts)
                except OSError as exc:
                    problem = f"artifact unreadable: {exc}"
                else:
                    if self.reference.setdefault(op.name, digest) != digest:
                        problem = "artifacts differ from the first repeat"
            if problem is not None:
                self._fail(op, problem)
                return None, result
            if inspect is not None:
                inspect(result, out_dir)
            return elapsed, result
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _fail(self, op, problem):
        self.failed += 1
        if (op.name, problem) not in self.reported:
            self.reported.add((op.name, problem))
            print(f"FAILED {op.name}: {problem}", file=sys.stderr)


def setup_once(workload, seed, work: Path):
    """One timed set-up into a fresh directory; returns (prepared, seconds)."""
    shutil.rmtree(work, ignore_errors=True)
    start = perf_counter()
    prepared = workload.prepare(seed, work)
    return prepared, perf_counter() - start


@dataclass
class Round:
    """Whole passes with at least ROUND_S of op time, between two speed probes."""

    latencies: list
    scenes: int
    probe_s: float  # mean of the probes just before and just after the round

    @property
    def scale(self) -> float:
        return hostspeed.scale(self.probe_s)


def probed_setup(workload, seed, work: Path):
    """A set-up between two speed probes; returns (prepared, seconds, probe mean, last probe)."""
    before = hostspeed.probe()
    prepared, seconds = setup_once(workload, seed, work)
    after = hostspeed.probe()
    return prepared, seconds, (before + after) / 2, after


def measure_plain(workload, seed, seconds, work: Path, checker: Checker):
    """Returns (rounds, set-ups as (seconds, probe seconds), timed seconds)."""
    prepared, setup_s, setup_probe, _ = probed_setup(workload, seed, work / "setup")
    setups = [(setup_s, setup_probe)]
    tracer = NullTracer()
    out = work / "out"
    for op in prepared.ops:  # warm-up: fills caches, records reference digests
        checker.run(op, tracer, out / op.name)
    min_samples = math.ceil(10 / (1 - workload.tail_pct / 100)) + 1
    rounds = []
    latencies, scenes = [], 0
    timed = since_setup = 0.0
    samples = 0
    last_probe = hostspeed.probe()
    while True:
        start = perf_counter()
        for op in prepared.ops:
            elapsed, _ = checker.run(op, tracer, out / op.name)
            if elapsed is not None:
                latencies.append(elapsed)
                scenes += op.scenes
        wall = perf_counter() - start
        timed += wall
        since_setup += wall
        if sum(latencies) < ROUND_S and timed < MEASURE_CAP_S:
            continue
        probe = hostspeed.probe()
        rounds.append(Round(latencies, scenes, (last_probe + probe) / 2))
        last_probe = probe
        samples += len(latencies)
        latencies, scenes = [], 0
        if timed >= MEASURE_CAP_S or (timed >= seconds and samples >= min_samples):
            return rounds, setups, timed
        if since_setup >= seconds / SETUP_REPEATS:
            _, setup_s, setup_probe, last_probe = probed_setup(workload, seed, work / "setup-repeat")
            setups.append((setup_s, setup_probe))
            since_setup = 0.0


def end_to_end(workload, seed, seconds, work, checker):
    rounds, setups, timed = measure_plain(workload, seed, seconds, work, checker)
    if not any(r.latencies for r in rounds):
        raise SystemExit("no operation succeeded")
    raw = sorted(x for r in rounds for x in r.latencies)
    scaled = sorted(x * r.scale for r in rounds for x in r.latencies)
    rates = [r.scenes / (sum(r.latencies) * r.scale) for r in rounds if r.latencies]
    tail = percentile(scaled, workload.tail_pct)
    metrics = {
        "setup_s": (statistics.median(t * hostspeed.scale(p) for t, p in setups), "s"),
        "op_p50_ms": (percentile(scaled, 50) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "scenes_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    host = statistics.median(r.scale for r in rounds)
    print(f"workload {workload.name} seed {seed}: {len(raw)} ops in {len(rounds)} rounds, {timed:.2f} s timed, "
          f"{len(setups)} set-ups, one sequential client")
    for name, (value, unit) in metrics.items():
        print(f"  {name:13s} {value:.6g} {unit}")
    print(f"  op_tail_ms is p{workload.tail_pct:g}: {sum(1 for x in scaled if x > tail)} of {len(scaled)} samples"
          " beyond it")
    print(f"  failed_ratio  {checker.failed / checker.attempted:.6g} ({checker.failed} of {checker.attempted} ops)")
    print(f"  times are scaled to the reference host speed; the host ran at {host:.3f}x of it; unscaled:"
          f" setup_s {statistics.median(t for t, _ in setups):.6g} s,"
          f" op_p50_ms {percentile(raw, 50) * 1e3:.6g} ms,"
          f" op_tail_ms {percentile(raw, workload.tail_pct) * 1e3:.6g} ms")
    return metrics


def _ratio(num, den):
    return num / den if den else 0.0


def pass_layer_metrics(tracer, observed: Counter) -> dict:
    """Per-layer metrics of one traced pass, as (value, unit) pairs."""
    calls, counts = tracer.calls, tracer.counts

    def sec(name):
        return tracer.ns[name] / 1e9

    actions = sum(calls[n] for n in ACTION_SPANS)
    driver_actions = actions + calls["simulator.launch_activity"]
    direct = calls["icc.direct_launch"]
    return {
        "simulator.current_dump.calls": (calls["simulator.current_dump"], "count"),
        "simulator.current_dump.self_s": (tracer.self_ns["simulator.current_dump"] / 1e9, "s"),
        "simulator.dump_bytes": (counts["simulator.dump_bytes"], "bytes"),
        "simulator.launch_activity.calls": (calls["simulator.launch_activity"], "count"),
        "simulator.launch_activity.s": (sec("simulator.launch_activity"), "s"),
        "simulator.actions.calls": (actions, "count"),
        "simulator.actions.s": (sum(sec(n) for n in ACTION_SPANS), "s"),
        "layout.serialize_tree.calls": (calls["layout.serialize_tree"], "count"),
        "layout.serialize_tree.s": (sec("layout.serialize_tree"), "s"),
        "layout.parse_hierarchy_dump.engine.calls": (calls["layout.parse_hierarchy_dump.engine"], "count"),
        "layout.parse_hierarchy_dump.engine.s": (sec("layout.parse_hierarchy_dump.engine"), "s"),
        "layout.parse_hierarchy_dump.diff.calls": (calls["layout.parse_hierarchy_dump.diff"], "count"),
        "layout.parse_hierarchy_dump.diff.s": (sec("layout.parse_hierarchy_dump.diff"), "s"),
        "layout.find_clickable.s": (sec("layout.find_clickable"), "s"),
        "layout.match_component.calls": (calls["layout.match_component"], "count"),
        "layout.match_component.s": (sec("layout.match_component"), "s"),
        "identity.scene_id.calls": (calls["identity.scene_id"], "count"),
        "identity.scene_id.s": (sec("identity.scene_id"), "s"),
        "graphs.add_edge.calls": (calls["graphs.add_edge"], "count"),
        "graphs.add_edge.new_ratio": (_ratio(counts["graphs.add_edge.new"], calls["graphs.add_edge"]), "ratio"),
        "graphs.caller_chains.calls": (calls["graphs.caller_chains"], "count"),
        "graphs.caller_chains.s": (sec("graphs.caller_chains"), "s"),
        "graphs.export.s": (sec("graphs.export"), "s"),
        "icc.direct_launch.calls": (direct, "count"),
        "icc.launch_ok_ratio": (_ratio(counts["icc.direct_launch.ok"], direct), "ratio"),
        "engine.self_s": (tracer.self_ns["engine"] / 1e9, "s"),
        "engine.actions_per_scene": (_ratio(driver_actions, observed["engine.scenes"]), "ratio"),
        "engine.dumps_per_action": (_ratio(calls["simulator.current_dump"], driver_actions), "ratio"),
        "engine.restore_back": (calls["simulator.press_back"], "count"),
        "engine.restore_relaunch": (direct - observed["engine.traced_launches"], "count"),
        "engine.write_outputs.s": (sec("engine.write_outputs"), "s"),
        "engine.output_bytes": (observed["engine.output_bytes"], "bytes"),
        "diff.snapshot_load.s": (sec("diff.snapshot_load"), "s"),
        "diff.match_scenes.s": (sec("diff.match_scenes"), "s"),
        "diff.diff_trees.calls": (calls["diff.diff_trees"], "count"),
        "diff.diff_trees.s": (sec("diff.diff_trees"), "s"),
    }


def per_layer(workload, seed, seconds, work, checker):
    load_times = []
    for _ in range(TRACE_SETUP_REPS):
        prepared, _ = setup_once(workload, seed, work / "setup")
        load_times.append(prepared.load_s)
    ops = prepared.ops
    plain, tracer = NullTracer(), Tracer()
    targets = layer_targets()
    absent = absent_layers(targets)
    out = work / "out"
    for op in ops:  # warm-up, untraced: records the reference digests
        checker.run(op, plain, out / "plain" / op.name)
    passes, ratios = [], []
    start = perf_counter()
    while True:
        tracer.reset()
        observed = Counter()
        plain_s = traced_s = 0.0
        for i, op in enumerate(ops):
            for traced in (False, True) if (len(passes) + i) % 2 == 0 else (True, False):
                if traced:
                    with patched(tracer, targets):
                        elapsed, _ = checker.run(
                            op, tracer, out / "traced" / op.name,
                            inspect=lambda result, out_dir: observed.update(op.observe(result, out_dir)),
                        )
                    traced_s += elapsed or 0.0
                else:
                    elapsed, _ = checker.run(op, plain, out / "plain" / op.name)
                    plain_s += elapsed or 0.0
        passes.append(pass_layer_metrics(tracer, observed))
        ratios.append(_ratio(traced_s, plain_s))
        spent = perf_counter() - start
        if len(passes) >= TRACE_MIN_PASSES and (spent >= seconds or spent >= MEASURE_CAP_S):
            break
    metrics = {}
    repeat_ok = True
    for name, (value, unit) in passes[0].items():
        if unit == "s":
            value = statistics.median(p[name][0] for p in passes)
        elif any(p[name][0] != value for p in passes):
            print(f"FAILED {name}: differs between traced passes", file=sys.stderr)
            repeat_ok = False
        metrics[name] = (value, unit)
    metrics["simulator.load_app_model.s"] = (statistics.median(load_times), "s")
    metrics["trace_overhead_ratio"] = (statistics.median(ratios), "ratio")
    metrics["absent_layers"] = (len(absent), "count")
    print(f"workload {workload.name} seed {seed}: {len(passes)} traced passes of {len(ops)} ops in {spent:.2f} s")
    for name in absent:
        print(f"  absent layer: {name} (reported with zero calls)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:.6g} {unit}")
    return metrics, repeat_ok


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "scenetg" / "__init__.py").is_file():
        print(f"error: scenetg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    work = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    checker = Checker()
    try:
        if args.trace:
            metrics, correct = per_layer(workload, args.seed, args.seconds, work, checker)
        else:
            metrics, correct = end_to_end(workload, args.seed, args.seconds, work, checker), True
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    result = {
        "correct": correct and checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
