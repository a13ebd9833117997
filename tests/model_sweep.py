"""The wide single-mutation sweep over the bundled app models; an opt-in script, not collected by pytest.

Every case applies one mutation of `test_model_fuzz` to one field of one of
the 21 bundled models: each field dropped, each field retyped to every value
of `_VALUES` of another type, and each list element duplicated. A case must
fail `parse_app_model` with a `SceneTGError` whose message starts with the
field path, or explore to a complete or budget-partial end under
`MAX_ACTIONS`. Anything else, a traceback above all, fails the sweep.

    PYTHONPATH=src python tests/model_sweep.py

prints the count of each end and every failed case, and exits 1 if any case
failed.
"""

import copy
import json
import sys
import time
import traceback
from collections import Counter

from test_model_fuzz import _FIELD_PATH, _VALUES, MAX_ACTIONS, MODELS, _fields

from scenetg import ExplorationConfig, benchmark_path, explore
from scenetg.errors import SceneTGError
from scenetg.simulator import parse_app_model, simulate


def _cases(name: str):
    """(label, mutated document) of every single mutation of the bundled model `name`."""
    pristine = json.loads(benchmark_path(name).read_text(encoding="utf-8"))
    for n, (container, key, path) in enumerate(_fields(pristine)):
        ops = [("drop", None)] + [("retype", v) for v in _VALUES if type(v) is not type(container[key])]
        if isinstance(container, list):
            ops.append(("duplicate", None))
        for op, value in ops:
            doc = copy.deepcopy(pristine)
            target, at, _ = list(_fields(doc))[n]
            if op == "drop":
                del target[at]
            elif op == "retype":
                target[at] = copy.deepcopy(value)
            else:
                target.insert(at, copy.deepcopy(target[at]))
            yield f"{name}: {op} {path}" + (f" to {json.dumps(value)}" if op == "retype" else ""), doc


def _end(doc: dict) -> str:
    """How the case ended: "rejected", "complete" or "actions"; raises AssertionError for any other end."""
    try:
        model = parse_app_model(doc)
    except SceneTGError as exc:
        assert _FIELD_PATH.match(str(exc)), f"message does not start with the field path: {exc}"
        return "rejected"
    report = explore(model, simulate(model), ExplorationConfig(max_actions=MAX_ACTIONS)).report
    assert report["stop_reason"] in (None, "actions"), f"stop reason {report['stop_reason']!r}"
    return report["stop_reason"] or "complete"


def sweep() -> tuple[Counter, list[str]]:
    """The count of each end over every case, and the label and traceback of each failed case."""
    ends, failures = Counter(), []
    for name in MODELS:
        for label, doc in _cases(name):
            try:
                ends[_end(doc)] += 1
            except Exception:  # every other end is a failed case, reported with its traceback
                ends["failed"] += 1
                failures.append(f"{label}\n{traceback.format_exc()}")
    return ends, failures


if __name__ == "__main__":
    start = time.monotonic()
    ends, failures = sweep()
    for failure in failures:
        print(failure, file=sys.stderr)
    print(f"{sum(ends.values())} cases in {time.monotonic() - start:.0f} s: {dict(sorted(ends.items()))}")
    sys.exit(1 if failures else 0)
