import datetime
import re

import pytest

from scenetg.icc import (
    INPUT_TYPE_TO_EXTRA,
    ExtraType,
    IccMessage,
    build_icc,
    direct_launch,
    generate_value,
    value_for_input_type,
)
from scenetg.simulator import LaunchReason, load_app_model, parse_app_model, simulate

FORMATS = {
    ExtraType.STRING: r"^[a-z]{8}$",
    ExtraType.CHAR: r"^[A-Za-z]$",
    ExtraType.BOOLEAN: r"^(true|false)$",
    ExtraType.NUMBER: r"^\d+$",
    ExtraType.PHONE: r"^\d{11}$",
    ExtraType.DATE: r"^\d{4}-\d{2}-\d{2}$",
    ExtraType.TIME: r"^([01]\d|2[0-3]):[0-5]\d$",
    ExtraType.EMAIL: r"^[a-z]{8}@example\.com$",
}


@pytest.mark.parametrize("extra_type", list(ExtraType))
def test_value_formats(extra_type):
    for seed in range(25):
        value = generate_value(extra_type, seed)
        assert re.match(FORMATS[extra_type], value), (extra_type, value)


def test_number_in_range():
    assert all(0 <= int(generate_value(ExtraType.NUMBER, s)) <= 10000 for s in range(200))


def test_date_is_calendar_valid():
    for seed in range(100):
        datetime.date.fromisoformat(generate_value(ExtraType.DATE, seed))


def test_values_deterministic_per_seed_and_salt():
    assert generate_value(ExtraType.STRING, 7) == generate_value(ExtraType.STRING, 7)
    assert generate_value(ExtraType.STRING, 7) != generate_value(ExtraType.STRING, 8)
    assert generate_value(ExtraType.STRING, 7, salt="a") != generate_value(ExtraType.STRING, 7, salt="b")


def test_input_type_mapping():
    assert INPUT_TYPE_TO_EXTRA["phone"] is ExtraType.PHONE
    assert re.match(FORMATS[ExtraType.PHONE], value_for_input_type("phone", 0))
    # Unknown input types degrade to plain strings.
    assert re.match(FORMATS[ExtraType.STRING], value_for_input_type("mystery", 0))


def test_icc_message_requires_target():
    with pytest.raises(ValueError):
        IccMessage(target_activity="")


class _ActSpec:
    def __init__(self, name, required_extras):
        self.name = name
        self.required_extras = required_extras


def test_build_icc_fills_required_extras():
    icc = build_icc(_ActSpec("DetailActivity", [("user_id", ExtraType.NUMBER), ("when", ExtraType.DATE)]), 0)
    assert icc.target_activity == "DetailActivity"
    types = {key: extra_type for key, extra_type, _ in icc.extras}
    assert types == {"user_id": ExtraType.NUMBER, "when": ExtraType.DATE}
    for key, extra_type, value in icc.extras:
        assert re.match(FORMATS[extra_type], value)


EXTRAS_MODEL = {
    "package": "com.fixture.extras",
    "activities": [
        {
            "name": "MainActivity",
            "required_extras": [["user_id", "NUMBER"]],
            "scenes": [{"name": "entry", "widgets": [{"id": "lbl", "class": "android.widget.TextView"}]}],
        }
    ],
}


def test_direct_launch_against_simulator(tmp_path):
    import json

    path = tmp_path / "m.json"
    path.write_text(json.dumps(EXTRAS_MODEL))
    model = load_app_model(path)
    driver = simulate(model)
    act = model.activities[0]

    ok = direct_launch(driver, build_icc(act, 0))
    assert ok.success and ok.reason is LaunchReason.OK

    missing = direct_launch(driver, IccMessage("MainActivity"))
    assert not missing.success and missing.reason is LaunchReason.MISSING_EXTRA

    wrong = direct_launch(driver, IccMessage("MainActivity", extras=(("user_id", ExtraType.DATE, "2024-01-01"),)))
    assert not wrong.success and wrong.reason is LaunchReason.WRONG_TYPE

    unknown = direct_launch(driver, IccMessage("GhostActivity"))
    assert not unknown.success and unknown.reason is LaunchReason.UNDECLARED


@pytest.mark.parametrize("extra_type", list(ExtraType))
def test_every_extra_type_launches_on_the_simulator(extra_type):
    activity = {**EXTRAS_MODEL["activities"][0], "required_extras": [["k", extra_type.value]]}
    doc = {**EXTRAS_MODEL, "activities": [activity]}
    model = parse_app_model(doc)
    act = model.activities[0]
    [(key, loaded_type)] = act.required_extras
    assert key == "k" and loaded_type is extra_type  # typed once, at load
    driver = simulate(model)
    for seed in range(25):
        result = direct_launch(driver, build_icc(act, seed))
        assert result.success, (extra_type, seed, result.reason)
