"""The benchmark harness's own calls still run against the package.

`perfbench/workloads.py` calls the package the way its timed operations do,
keywords included. A source change that breaks one of those calls would
otherwise show only as a failed benchmark run. This test loads the workloads,
and the `synth` and `tracing` modules they import, from their source (so
nothing is written next to them: the bytecode-cache state moves the
benchmark's `peak_rss_mb`), prepares each workload at one seed and runs each
of its operations once, untraced.
"""

import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1


def _load(name: str) -> types.ModuleType:
    module = types.ModuleType(name)
    module.__file__ = str(PERFBENCH / f"{name}.py")
    sys.modules[name] = module  # before it runs: its dataclasses look their module up there
    exec(compile(Path(module.__file__).read_text(encoding="utf-8"), module.__file__, "exec"), module.__dict__)
    return module


@pytest.fixture(scope="module")
def harness():
    saved = {name: sys.modules.get(name) for name in ("synth", "tracing", "workloads")}
    try:
        _load("synth")
        tracing = _load("tracing")
        yield _load("workloads"), tracing.NullTracer()
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


@pytest.mark.parametrize("name", ["fixtures", "synth-wide", "synth-replay", "diff-pair"])
def test_every_op_runs_and_passes_its_check(harness, name, tmp_path):
    workloads, tracer = harness
    prepared = workloads.WORKLOADS[name].prepare(SEED, tmp_path / "work")
    assert prepared.ops
    for i, op in enumerate(prepared.ops):
        out = tmp_path / f"op{i}"
        out.mkdir()
        result = op.run(tracer, out)
        assert op.check(result) is None, op.name
        assert [a for a in op.artifacts if not (out / a).is_file()] == [], op.name
