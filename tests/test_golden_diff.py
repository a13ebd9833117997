"""Golden lock for ``scenetg diff``: sha256 of ``diff.json`` and of the text report.

Each locked pair is explored (seed 0, default config) and diffed through the
CLI, which writes ``diff.json`` and prints ``render_text()``. The pairs are the
three bundled version pairs in both directions and the benchmark's seeded
diff-pair inputs (``perfbench/synth.py`` with ``workloads.DIFF_SHAPE`` and
``DIFF_EDIT``, imported read-only). ``tests/golden_diff_digests.json`` holds
the digests; a change that alters a report on purpose updates that file by
hand and says so in CHANGES.md.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from scenetg import ExplorationConfig, explore, write_outputs
from scenetg.cli import EXIT_OK, main
from scenetg.simulator import load_app_model, simulate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import synth  # noqa: E402
import workloads  # noqa: E402

GOLDEN = json.loads(Path(__file__).with_name("golden_diff_digests.json").read_text(encoding="utf-8"))
BUNDLED_PAIRS = [
    (f"{name}_{a}", f"{name}_{b}")
    for name in ("drawer", "nested_menu", "spinner")
    for a, b in (("v1", "v2"), ("v2", "v1"))
]
SYNTH_SEEDS = (1, 2, 3)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _explore_doc(doc: dict, out: Path) -> Path:
    model_path = out.with_suffix(".json")
    model_path.write_text(json.dumps(doc), encoding="utf-8")
    model = load_app_model(model_path)
    result = explore(model, simulate(model), ExplorationConfig())
    write_outputs(result, out, model.package)
    return out


def _diff_digests(old: Path, new: Path, tmp_path: Path, capsys) -> dict:
    report = tmp_path / "diff.json"
    capsys.readouterr()
    assert main(["diff", "--old", str(old), "--new", str(new), "--out", str(report)]) == EXIT_OK
    text = capsys.readouterr().out
    return {"diff.json": _sha256(report.read_bytes()), "text": _sha256(text.encode("utf-8"))}


def _check(label: str, got: dict) -> None:
    want = GOLDEN[label]
    assert sorted(got) == sorted(want)
    for artifact in want:
        assert got[artifact] == want[artifact], f"{label}: {artifact} changed; new sha256 {got[artifact]}"


def test_every_locked_pair_is_tested():
    labels = [f"{a}->{b}" for a, b in BUNDLED_PAIRS] + [f"synth-diff-pair-{s}" for s in SYNTH_SEEDS]
    assert sorted(GOLDEN) == sorted(labels)


@pytest.mark.parametrize("old_name, new_name", BUNDLED_PAIRS, ids=[f"{a}->{b}" for a, b in BUNDLED_PAIRS])
def test_bundled_pair_diff_matches_golden(old_name, new_name, runs, tmp_path, capsys):
    _, old, _ = runs.run(f"{old_name}.json")
    _, new, _ = runs.run(f"{new_name}.json")
    _check(f"{old_name}->{new_name}", _diff_digests(old, new, tmp_path, capsys))


@pytest.mark.parametrize("seed", SYNTH_SEEDS)
def test_synthetic_diff_pair_matches_golden(seed, tmp_path, capsys):
    v1, _ = synth.generate(workloads.DIFF_SHAPE, seed, "diff-pair")
    v2, _ = synth.mutate(v1, workloads.DIFF_EDIT, seed)
    old = _explore_doc(v1, tmp_path / "v1")
    new = _explore_doc(v2, tmp_path / "v2")
    _check(f"synth-diff-pair-{seed}", _diff_digests(old, new, tmp_path, capsys))
