"""Parsing of dimensioned quantities in scenario configs.

Every physical number in a config carries an explicit unit suffix, e.g.
``"300 ns"``, ``"1 cm"``, ``"50 kHz_angular"``.  Angular rates must be
spelled out: ``Hz_angular`` (and its SI-prefixed forms) means the number
is already in rad/s, while plain ``Hz`` is multiplied by 2*pi on input.
This forces the 2*pi choice to be made where the number is written down
instead of inside the code.

Dimensionless quantities may be plain numbers.
"""

from __future__ import annotations

import math
import re

from .errors import ConfigError

_PREFIXES = {
    "f": 1e-15, "p": 1e-12, "n": 1e-9, "u": 1e-6, "m": 1e-3,
    "": 1.0, "k": 1e3, "M": 1e6, "G": 1e9, "T": 1e12,
}

# dimension -> {unit token: factor to SI}
_UNITS: dict[str, dict[str, float]] = {"time": {}, "rate": {}, "length": {}}
for _p, _f in _PREFIXES.items():
    _UNITS["time"][_p + "s"] = _f
    _UNITS["length"][_p + "m"] = _f
    # plain Hz: cyclic frequency, converted to angular on input
    _UNITS["rate"][_p + "Hz"] = 2.0 * math.pi * _f
    # explicitly angular: used as-is (rad/s)
    _UNITS["rate"][_p + "Hz_angular"] = _f
_UNITS["length"]["cm"] = 1e-2
_UNITS["rate"]["rad/s"] = 1.0

_QUANTITY_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*([A-Za-z_/]+)\s*$")


def parse_quantity(value, dimension: str, *, where: str = "") -> float:
    """Parse a config quantity into SI (s, m, rad/s).

    `value` is either a string "NUMBER UNIT" or, for dimension=None /
    "dimensionless", a bare number.  Raises ConfigError with the config
    path in the message on any mismatch.
    """
    ctx = f" at {where}" if where else ""
    if dimension in (None, "dimensionless"):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return _finite(float(value), value, ctx)
        raise ConfigError(f"expected a bare number{ctx}, got {value!r}")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        raise ConfigError(
            f"quantity{ctx} must carry a unit suffix "
            f"(e.g. '300 ns', '50 kHz_angular'), got bare number {value!r}"
        )
    if not isinstance(value, str):
        raise ConfigError(f"cannot parse quantity{ctx}: {value!r}")
    m = _QUANTITY_RE.match(value)
    if m is None:
        raise ConfigError(f"cannot parse quantity{ctx}: {value!r}")
    num, unit = m.group(1), m.group(2)
    try:
        x = float(num)
    except ValueError as exc:
        raise ConfigError(f"bad number in quantity{ctx}: {value!r}") from exc
    table = _UNITS.get(dimension)
    if table is None:
        raise ConfigError(f"unknown dimension {dimension!r}{ctx}")
    if unit not in table:
        raise ConfigError(
            f"unit {unit!r}{ctx} is not a {dimension} unit; "
            f"examples: {_example_units(dimension)}"
        )
    return _finite(x * table[unit], value, ctx)


def _finite(x: float, value, ctx: str) -> float:
    # also catches overflow: "1e400 s", or "1e300 THz" through the factor
    if not math.isfinite(x):
        raise ConfigError(f"quantity{ctx} must be finite, got {value!r}")
    return x


def _example_units(dimension: str) -> str:
    return {
        "time": "'s', 'ns', 'us'",
        "rate": "'Hz_angular', 'kHz_angular', 'MHz' (plain Hz gets *2*pi)",
        "length": "'m', 'cm', 'um'",
    }[dimension]


def format_quantity(x: float, dimension: str) -> str:
    """Format an SI value back to a config string (base unit, 17 digits)."""
    base = {"time": "s", "rate": "Hz_angular", "length": "m"}[dimension]
    return f"{x:.17g} {base}"
