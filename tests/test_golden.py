"""Golden lock: sha256 of every bundled model's deterministic artifacts.

Each bundled model is explored under the default config (seed 0) and the
digests of its deterministic artifacts are compared with
``tests/golden_digests.json``. A change that alters an artifact on purpose
updates that file by hand and says so in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from scenetg import ExplorationConfig, benchmark_path, explore, write_outputs
from scenetg.simulator import load_app_model, simulate

GOLDEN = json.loads((Path(__file__).with_name("golden_digests.json")).read_text(encoding="utf-8"))
ARTIFACTS = ("scenetg.json", "atg.json", "paths.json", "trace.log", "scenetg.dot")


def artifact_digests(name, out) -> dict:
    model = load_app_model(benchmark_path(name))
    result = explore(model, simulate(model, seed=0), ExplorationConfig(), out_dir=out)
    write_outputs(result, out, model.package)
    return {a: hashlib.sha256((out / a).read_bytes()).hexdigest() for a in ARTIFACTS}


def test_every_bundled_model_is_locked():
    bundled = sorted(p.name for p in Path(str(benchmark_path("app01.json"))).parent.glob("*.json"))
    assert sorted(GOLDEN) == bundled


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_match_golden_digests(name, tmp_path):
    got = artifact_digests(name, tmp_path)
    for artifact in ARTIFACTS:
        assert got[artifact] == GOLDEN[name][artifact], (
            f"{name}: {artifact} changed; new sha256 {got[artifact]}"
        )
