"""Seeded mutation fuzzing over the bundled app models.

Each case drops, retypes or duplicates one or two fields of a bundled model.
A mutated model must either be rejected at load with a typed error whose
message starts with the field path, or explore to an end, complete or partial,
under an action budget. Through the CLI the same cases end in an exit code,
never in a traceback.
"""

import copy
import json
import random
import re
import shutil

from scenetg import ExplorationConfig, benchmark_path, explore
from scenetg.cli import EXIT_OK, EXIT_TIMEOUT, EXIT_USAGE, main
from scenetg.errors import SceneTGError
from scenetg.simulator import parse_app_model, simulate

MODELS = sorted(path.name for path in benchmark_path("app01.json").parent.iterdir() if path.name.endswith(".json"))
CASES_PER_MODEL = 19  # 21 models: 399 cases
CLI_EVERY = 10  # every tenth case also runs through `scenetg explore`
MAX_ACTIONS = 3000
# A retyped field takes a value of another JSON type from these.
_VALUES = (None, True, 0, 2.5, "x", [], {})
_FIELD_PATH = re.compile(r"model(\.\w+|\[\d+\])*: ")


def _fields(value, path="model"):
    """(container, key, path) of every field and list element under `value`, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        child_path = f"{path}.{key}" if isinstance(value, dict) else f"{path}[{key}]"
        yield value, key, child_path
        if isinstance(child, (dict, list)):
            yield from _fields(child, child_path)


def _mutate(doc: dict, rng: random.Random) -> str:
    """Apply one mutation to `doc` in place; returns its description."""
    op = rng.choice(("drop", "retype", "duplicate"))
    fields = list(_fields(doc))
    if op == "duplicate":  # a list element (activity, scene, widget, ...) appears twice
        fields = [field for field in fields if isinstance(field[0], list)]
    container, key, path = rng.choice(fields)
    if op == "drop":
        del container[key]
    elif op == "retype":
        old = type(container[key])
        container[key] = copy.deepcopy(rng.choice([v for v in _VALUES if type(v) is not old]))
    else:
        container.insert(key, copy.deepcopy(container[key]))
    return f"{op} {path}"


def _cases():
    """The seeded (label, mutated document) cases, CASES_PER_MODEL of each bundled model."""
    for name in MODELS:
        pristine = json.loads(benchmark_path(name).read_text(encoding="utf-8"))
        for k in range(CASES_PER_MODEL):
            rng = random.Random(f"{name}#{k}")
            doc = copy.deepcopy(pristine)
            mutations = [_mutate(doc, rng) for _ in range(rng.randint(1, 2))]
            yield f"{name}#{k}: {'; '.join(mutations)}", doc


def _run(label: str, doc: dict) -> str:
    """"rejected" or how the run ended ("complete" or "actions"); anything else fails the case."""
    try:
        model = parse_app_model(doc)
    except SceneTGError as exc:
        assert _FIELD_PATH.match(str(exc)), f"{label}: {exc}"
        return "rejected"
    report = explore(model, simulate(model), ExplorationConfig(max_actions=MAX_ACTIONS)).report
    assert report["stop_reason"] in (None, "actions"), label
    return report["stop_reason"] or "complete"


def test_mutated_models_load_typed_or_explore():
    ends = [_run(label, doc) for label, doc in _cases()]
    assert len(MODELS) == 21 and len(ends) == 21 * CASES_PER_MODEL
    # Both ends are reached often, so neither half of the contract goes untested.
    assert ends.count("rejected") >= len(ends) // 10 and ends.count("complete") >= len(ends) // 10


def test_cli_maps_mutated_models_to_exit_codes(tmp_path, capsys):
    for n, (label, doc) in enumerate(_cases()):
        if n % CLI_EVERY:
            continue
        app = tmp_path / f"case{n}.json"
        app.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["explore", "--app", str(app), "--out", str(tmp_path / f"out{n}"), "--max-actions", str(MAX_ACTIONS)])
        expected = (EXIT_USAGE,) if _run(label, doc) == "rejected" else (EXIT_OK, EXIT_TIMEOUT)
        assert code in expected, label
        assert "Traceback" not in capsys.readouterr().err, label


# Characters XML 1.0 cannot carry; a model string holding one must fail to load.
UNWRITABLE = ("\x01", "\x1f", "\ufffe", "\uffff")


def _tainted(label: str, doc: dict):
    """A copy of `doc` with an UNWRITABLE character appended to one seeded string, or None if it holds no string."""
    rng = random.Random(label)
    doc = copy.deepcopy(doc)
    strings = [(container, key) for container, key, _ in _fields(doc) if isinstance(container[key], str)]
    if not strings:
        return None
    container, key = rng.choice(strings)
    container[key] += rng.choice(UNWRITABLE)
    return doc


def test_every_model_explore_accepts_diffs_against_itself(tmp_path, capsys):
    """A run of any model `scenetg explore` accepts can be diffed: its own run against itself, exit 0, no differences.

    Each case also runs tainted: one of its strings holds a character no
    layout can carry, which loading must refuse before anything is written.
    """
    diffed = tainted = 0
    for n, (label, doc) in enumerate(_cases()):
        for case in (doc, _tainted(label, doc)):
            if case is None:
                continue
            app, out = tmp_path / "model.json", tmp_path / f"run{n}"
            app.write_text(json.dumps(case), encoding="utf-8")
            capsys.readouterr()
            code = main(["explore", "--app", str(app), "--out", str(out), "--max-actions", str(MAX_ACTIONS)])
            err = capsys.readouterr().err
            assert "Traceback" not in err, label
            if case is not doc:
                assert code == EXIT_USAGE and not out.exists(), label
                assert _FIELD_PATH.match(err.removeprefix("error: ")) and "cannot be written to a layout" in err, label
                tainted += 1
                continue
            if code == EXIT_USAGE:
                assert not out.exists(), label
                continue
            assert code in (EXIT_OK, EXIT_TIMEOUT), label
            report = tmp_path / "diff.json"
            assert main(["diff", "--old", str(out), "--new", str(out), "--out", str(report)]) == EXIT_OK, label
            assert capsys.readouterr().out == "no differences\n", label
            assert not any(json.loads(report.read_text(encoding="utf-8"))["summary"].values()), label
            shutil.rmtree(out)
            diffed += 1
    cases = len(MODELS) * CASES_PER_MODEL
    assert diffed >= cases // 10 and tainted >= cases * 9 // 10
