"""ICC messages: typed extra-parameter generation and direct activity launches."""

from __future__ import annotations

import calendar
import random
import string
from dataclasses import dataclass
from enum import Enum


class ExtraType(str, Enum):
    STRING = "STRING"
    CHAR = "CHAR"
    BOOLEAN = "BOOLEAN"
    NUMBER = "NUMBER"
    PHONE = "PHONE"
    DATE = "DATE"
    TIME = "TIME"
    EMAIL = "EMAIL"


# inputType names as declared on editable widgets.
INPUT_TYPE_TO_EXTRA = {
    "text": ExtraType.STRING,
    "number": ExtraType.NUMBER,
    "phone": ExtraType.PHONE,
    "date": ExtraType.DATE,
    "time": ExtraType.TIME,
    "email": ExtraType.EMAIL,
}


@dataclass(frozen=True)
class IccMessage:
    target_activity: str
    extras: tuple = ()  # of (key, ExtraType, rendered value)

    def __post_init__(self):
        if not self.target_activity:
            raise ValueError("target_activity must be nonempty")


def _rng(extra_type: ExtraType, seed: int, salt: str = "") -> random.Random:
    return random.Random(f"{extra_type.value}:{seed}:{salt}")


def generate_value(extra_type: ExtraType, rng_seed: int, salt: str = "") -> str:
    """Deterministic, correctly formatted value for the given type and seed.

    Format contracts: STRING = 8 lowercase letters; CHAR = one ASCII letter;
    NUMBER = decimal integer in [0, 10000]; PHONE = 11 digits;
    DATE = YYYY-MM-DD (calendar-valid); TIME = HH:MM; EMAIL = 8 letters @example.com.
    """
    rng = _rng(extra_type, rng_seed, salt)
    if extra_type is ExtraType.STRING:
        return "".join(rng.choice(string.ascii_lowercase) for _ in range(8))
    if extra_type is ExtraType.CHAR:
        return rng.choice(string.ascii_letters)
    if extra_type is ExtraType.BOOLEAN:
        return rng.choice(["true", "false"])
    if extra_type is ExtraType.NUMBER:
        return str(rng.randint(0, 10000))
    if extra_type is ExtraType.PHONE:
        return "".join(rng.choice(string.digits) for _ in range(11))
    if extra_type is ExtraType.DATE:
        year = rng.randint(2000, 2030)
        month = rng.randint(1, 12)
        day = rng.randint(1, calendar.monthrange(year, month)[1])
        return f"{year:04d}-{month:02d}-{day:02d}"
    if extra_type is ExtraType.TIME:
        return f"{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}"
    if extra_type is ExtraType.EMAIL:
        local = "".join(rng.choice(string.ascii_lowercase) for _ in range(8))
        return f"{local}@example.com"


def value_for_input_type(input_type: str, rng_seed: int, salt: str = "") -> str:
    extra_type = INPUT_TYPE_TO_EXTRA.get(input_type, ExtraType.STRING)
    return generate_value(extra_type, rng_seed, salt)


def build_icc(activity, rng_seed: int) -> IccMessage:
    """Build a launch message for an activity spec carrying required typed extras.

    `activity` needs `.name` and `.required_extras` (list of (key, ExtraType) pairs).
    """
    extras = tuple(
        (key, extra_type, generate_value(extra_type, rng_seed, salt=key))
        for key, extra_type in activity.required_extras
    )
    return IccMessage(target_activity=activity.name, extras=extras)


def direct_launch(driver, icc: IccMessage):
    """Forward the message to the driver; returns the driver's LaunchResult."""
    return driver.launch_activity(icc)
