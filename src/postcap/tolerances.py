"""Shared numerical tolerances.

A single mutable instance (``tolerances``) holds the default slack used
throughout the library.  The CLI can override fields from a plain-text
config file; library callers may also pass explicit values to the few
functions that take a ``tol`` argument.  Tolerance files and channel
spec configs share one ``key = value`` line format.
"""

import math
from dataclasses import dataclass


@dataclass
class ToleranceConfig:
    """Numerical slack for validity checks.

    entry_floor: how far below zero a probability entry may drift.
    pmf_sum: allowed deviation of a pmf total from 1.
    kernel: allowed violation of the causal-kernel consistency constraints.
    conditional_row: allowed deviation of a conditional row sum from 1.
    """

    entry_floor: float = 1e-12
    pmf_sum: float = 1e-9
    kernel: float = 1e-9
    conditional_row: float = 1e-12

    def update(self, **kwargs):
        for key, value in kwargs.items():
            if not hasattr(self, key):
                raise KeyError(f"unknown tolerance field {key!r}")
            value = float(value)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"tolerance {key} must be finite and non-negative, got {value}")
            setattr(self, key, value)


tolerances = ToleranceConfig()


def _read_key_values(text):
    """Fields of a plain-text config: one `key = value` per line.

    Blank lines and lines starting with # are skipped; a later line
    overrides an earlier one with the same key.
    """
    fields = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        fields[key] = value
    return fields
