"""Seeded mutations of stored runs through every verb that reads one.

Two runs, `nested_menu_v1` and `nested_menu_v2`, are explored and written by
`write_outputs` alone. Each case copies one of them and makes one mutation:
- in `scenetg.json` or `paths.json`: a value replaced, a key deleted, or the
  file cut short;
- in `layouts/`: bytes of one layout replaced, deleted or inserted, or one
  layout file deleted.
The mutated run then goes through `stats`, `export --format dot`,
`export --format json` and `diff` in both directions against the other run.
`cli.main` must return 0 or 2 and never raise, and each exit-2 message must
name a file of the mutated run.

400 cases, 2,000 CLI calls, about 3 s on a 2-vCPU container.
"""

import json
import random
import re
import shutil

import pytest

from conftest import load_benchmark
from scenetg import ExplorationConfig, explore, write_outputs
from scenetg.cli import EXIT_OK, EXIT_RUNTIME, main
from scenetg.simulator import simulate

SEED = 19
CASES = 400
MODELS = ("nested_menu_v1.json", "nested_menu_v2.json")
# Values a replacement draws from: every JSON type, empty and odd strings, refs in and out of the run.
VALUES = [None, True, 0, -1, 2.5, "", "x", "TAP", "\ud800", "layouts/", "layouts/none.xml", "../scenetg.json",
          [], [[]], [["TAP"]], [["TAP", 5]], {}, {"id": 1}]


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    base = tmp_path_factory.mktemp("written")
    runs = []
    for name in MODELS:
        model = load_benchmark(name)
        out = base / name.removesuffix(".json")
        write_outputs(explore(model, simulate(model), ExplorationConfig()), out, model.package)
        runs.append(out)
    return runs


def _slots(value):
    """Every (container, key) inside a decoded JSON value, parents first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield value, key
        yield from _slots(child)


def _mutate_json(path, rng) -> str:
    text = path.read_text(encoding="utf-8")
    kind = rng.choice(("replace", "delete", "truncate"))
    if kind == "truncate":
        path.write_text(text[: rng.randrange(len(text))], encoding="utf-8")
        return kind
    doc = json.loads(text)
    slots = [(c, k) for c, k in _slots(doc) if kind == "replace" or isinstance(c, dict)]
    container, key = rng.choice(slots)
    if kind == "replace":
        container[key] = rng.choice(VALUES)
    else:
        del container[key]
    path.write_text(json.dumps(doc), encoding="utf-8")
    return kind


def _mutate_layout(run, rng) -> str:
    layout = rng.choice(sorted((run / "layouts").iterdir()))
    kind = rng.choice(("replace", "delete", "insert", "remove-file"))
    if kind == "remove-file":
        layout.unlink()
        return kind
    data = bytearray(layout.read_bytes())
    at = rng.randrange(len(data))
    span = rng.randint(1, 8)
    noise = bytes(rng.choice(b'<>/="&\xff\xc3 \n\x00az09') for _ in range(span))
    if kind == "replace":
        data[at : at + span] = noise
    elif kind == "delete":
        del data[at : at + span]
    else:
        data[at:at] = noise
    layout.write_bytes(bytes(data))
    return kind


def test_mutated_runs_end_in_exit_0_or_2_naming_a_file(written, tmp_path, capsys):
    rng = random.Random(SEED)
    exits = {EXIT_OK: 0, EXIT_RUNTIME: 0}
    for case in range(CASES):
        pick = rng.randrange(2)
        other = written[1 - pick]
        run = tmp_path / f"case{case}"
        shutil.copytree(written[pick], run)
        target = rng.choice(("scenetg.json", "paths.json", "layouts"))
        kind = _mutate_layout(run, rng) if target == "layouts" else _mutate_json(run / target, rng)
        report = str(tmp_path / "d.json")
        for argv in (
            ["stats", "--in", str(run)],
            ["export", "--in", str(run), "--format", "dot"],
            ["export", "--in", str(run), "--format", "json"],
            ["diff", "--old", str(run), "--new", str(other), "--out", report],
            ["diff", "--old", str(other), "--new", str(run), "--out", report],
        ):
            code = main(argv)
            err = capsys.readouterr().err
            where = (case, target, kind, argv[0])
            assert code in exits, (where, code, err)
            exits[code] += 1
            if code == EXIT_RUNTIME:
                assert re.search(re.escape(str(run)) + r"/(scenetg\.json|paths\.json|layouts/)", err), (where, err)
        shutil.rmtree(run)
    assert all(exits.values()), exits  # the sweep reaches both ends of the contract
