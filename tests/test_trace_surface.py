"""The benchmark tracer's patch points still exist and still see traffic.

`perfbench/tracing.py` wraps module-level names of the package. A name that
the package stops defining, or stops calling through, leaves that layer
reading zero in every traced run without any error. These tests load the
tracer read-only and check both: no layer goes absent beyond the ones that
already are, and every present layer records calls over a small explore and
diff workload.
"""

import types
from pathlib import Path

from scenetg import benchmark_path, diff, engine
from scenetg.simulator import load_app_model, simulate

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# Layers whose patch points the package no longer defines; this set may only shrink.
ABSENT_NOW = {
    "layout.serialize_tree",
    "layout.parse_hierarchy_dump.engine",
    "layout.find_clickable",
    "layout.match_component",
}
MODELS = ("fig5a.json", "nested_menu_v1.json", "nested_menu_v2.json")


def _tracing():
    """The tracer module, executed from its source so nothing is written next to it."""
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_no_layer_goes_absent():
    tracing = _tracing()
    assert set(tracing.absent_layers(tracing.layer_targets())) <= ABSENT_NOW


def test_every_present_layer_records_calls(tmp_path):
    tracing = _tracing()
    targets = tracing.layer_targets()
    present = {name for name, _, _, _ in targets} - set(tracing.absent_layers(targets))
    tracer = tracing.Tracer()
    with tracing.patched(tracer, targets):
        for name in MODELS:
            model = load_app_model(benchmark_path(name))
            out = tmp_path / name
            result = engine.explore(model, simulate(model), engine.ExplorationConfig(), out_dir=out)
            engine.write_outputs(result, out, model.package)
        old, new = (diff.RunSnapshot.load(tmp_path / name) for name in MODELS[1:])
        diff.diff_graphs(old, new)
    assert present and sorted(name for name in present if not tracer.calls[name]) == []
