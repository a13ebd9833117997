"""Golden lock: sha256 of every bundled model's deterministic artifacts.

Each bundled model is explored (seed 0) under the default config and under
each single-flag ablation, and the digests of its deterministic artifacts,
the recorded ``layouts/`` included, are compared with
``tests/golden_digests.json``. That file maps a config label (``default`` or
``<field>=False``) to the locked models. A change that alters an artifact on
purpose updates that file by hand and says so in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from scenetg import ExplorationConfig, benchmark_path, explore, write_outputs
from scenetg.simulator import load_app_model, simulate

GOLDEN = json.loads((Path(__file__).with_name("golden_digests.json")).read_text(encoding="utf-8"))
ARTIFACTS = ("scenetg.json", "atg.json", "paths.json", "trace.log", "scenetg.dot")
# Each ablation turns one ExplorationConfig flag off; the label is its config.
ABLATIONS = ("enable_fuzzing", "enable_indirect", "enable_scene_id")


def layouts_digest(layouts: Path) -> str:
    """sha256 over the sorted relative names and bytes of every recorded layout."""
    h = hashlib.sha256()
    for path in sorted(layouts.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            h.update(f"{path.relative_to(layouts).as_posix()}\n{len(data)}\n".encode("utf-8"))
            h.update(data)
    return h.hexdigest()


def artifact_digests(name, out, **cfg) -> dict:
    model = load_app_model(benchmark_path(name))
    result = explore(model, simulate(model), ExplorationConfig(**cfg), out_dir=out)
    write_outputs(result, out, model.package)
    digests = {a: hashlib.sha256((out / a).read_bytes()).hexdigest() for a in ARTIFACTS}
    digests["layouts/"] = layouts_digest(out / "layouts")
    return digests


def _locked_runs():
    for label in sorted(GOLDEN):
        for name in sorted(GOLDEN[label]):
            yield pytest.param(label, name, id=name if label == "default" else f"{label}-{name}")


def test_every_bundled_model_is_locked():
    bundled = sorted(p.name for p in Path(str(benchmark_path("app01.json"))).parent.glob("*.json"))
    assert sorted(GOLDEN) == ["default"] + [f"{flag}=False" for flag in ABLATIONS]
    for label, locked in GOLDEN.items():
        assert sorted(locked) == bundled, label


@pytest.mark.parametrize("label, name", _locked_runs())
def test_artifacts_match_golden_digests(label, name, tmp_path):
    cfg = {} if label == "default" else {label.partition("=")[0]: False}
    got = artifact_digests(name, tmp_path, **cfg)
    want = GOLDEN[label][name]
    assert sorted(got) == sorted(want)
    for artifact in want:
        assert got[artifact] == want[artifact], f"{label} {name}: {artifact} changed; new sha256 {got[artifact]}"
