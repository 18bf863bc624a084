"""JSON config and report serialization.

Numbers round-trip exactly: a config's floats are parsed with
correctly-rounded `float()` and echoed in reports with Python's
shortest-round-trip repr (what `json` emits), so an echoed value reads back
to the same bits. Report dicts are built in a fixed key order and
serialized as one line of JSON, making repeated runs byte-identical.

Config files use exactly the field names of RunConfig and its BlockConfig
and CostModel (snake_case), and take their defaults from those fields;
unknown keys anywhere are rejected so typos fail loudly instead of
silently falling back to defaults. No key takes a boolean: each field's
own rule refuses one.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, fields

from .block import BlockConfig
from .simulator import CostModel, LatencyReport, Timeline
from .tensor import _number

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_config",
    "dumps_report",
    "timeline_rows",
    "timeline_csv",
]

SCHEMA_VERSION = "1"


class ConfigError(ValueError):
    """A configuration the CLI cannot run, or an output it cannot write (CLI exit 2)."""


@dataclass(frozen=True)
class RunConfig:
    block: BlockConfig
    cost_model: CostModel
    seed: int = 0
    trials: int = 10
    tolerance: float = 1e-10
    notes: str = ""

    def __post_init__(self):
        # a tolerance of 0 is taken, and fails verification numerically; infinity would pass every site
        try:  # a ConfigError, so the CLI's `--seed` replace exits 2 too
            for name, integer, positive in (("seed", True, False), ("trials", True, True), ("tolerance", False, False)):
                object.__setattr__(self, name, _number(getattr(self, name), name, integer=integer, positive=positive))
        except ValueError as e:
            raise ConfigError(str(e)) from None
        if not isinstance(self.notes, str):  # every report echoes it as a string
            raise ConfigError(f"notes must be a string, got {self.notes!r}")


def _take(mapping: dict, context: str, cls) -> dict:
    """`mapping`, checked as the JSON object of section `cls` with its keys; each value meets its field's rule."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = mapping.keys() - _KNOWN[cls]
    if unknown:
        raise ConfigError(f"unknown key(s) in {context}: {', '.join(sorted(unknown))}")
    missing = [k for k in _KEYS[cls][0] if k not in mapping]
    if missing:
        raise ConfigError(f"missing key(s) in {context}: {', '.join(missing)}")
    return mapping


def write_text(path, text: str, what: str) -> None:
    """Write `text` to `path`; a path that cannot be written is a ConfigError naming `what`."""
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as e:
        raise ConfigError(f"cannot write {what}: {e}") from e


def _field_keys(cls) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """A dataclass's required (no default) and optional field names; together, its field order."""
    names = [(f.name, f.default is MISSING) for f in fields(cls)]
    return tuple(n for n, req in names if req), tuple(n for n, req in names if not req)


# Each config section's keys are its dataclass's fields, and its defaults theirs.
_KEYS = {cls: _field_keys(cls) for cls in (RunConfig, BlockConfig, CostModel)}
# every key a section knows, as one set, for `_take`
_KNOWN = {cls: frozenset(required + optional) for cls, (required, optional) in _KEYS.items()}


def load_config(path: str) -> RunConfig:
    """The run config in the JSON file at `path`; anything the CLI cannot run is a ConfigError.

    The file is read as bytes and decoded as UTF-8, as JSON text is,
    whatever the locale; a byte order mark is not JSON and is refused.
    """
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from e
    try:
        raw = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ConfigError(f"config file is not valid JSON: {e}") from e
    except ValueError as e:  # Python's guard on converting a long digit string to an int
        raise ConfigError(f"config file holds an integer of more than {sys.get_int_max_str_digits()} digits") from e
    _take(raw, "config", RunConfig)
    block_raw = _take(raw["block"], "config.block", BlockConfig)
    cm_raw = _take(raw["cost_model"], "config.cost_model", CostModel)
    try:
        return RunConfig(**dict(raw, block=BlockConfig(**block_raw), cost_model=CostModel(**cm_raw)))
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e


def config_dict(config) -> dict:
    """A RunConfig (or one of its sections) echoed as a plain dict in the config file's key order."""
    required, optional = _KEYS[type(config)]
    out = {}
    for key in required + optional:
        value = getattr(config, key)
        out[key] = config_dict(value) if type(value) in _KEYS else value
    return out


# --------------------------------------------------------------------------
# Reports and timeline CSV
# --------------------------------------------------------------------------


def latency_dict(rep: LatencyReport) -> dict:
    return {
        "conventional_total": rep.conventional_total,
        "fused_total": rep.fused_total,
        "per_site_savings": [
            {"site": s.site, "hidden_cycles": s.hidden_cycles} for s in rep.per_site_savings
        ],
        "speedup_percent": rep.speedup_percent,
    }


def dumps_report(report: dict) -> str:
    """Every stdout report as one line of JSON, by json's C encoder; a NaN or infinity raises.

    `report` must be a tree: no container may hold itself. The encoder's
    circular-reference check is off, as each report is a fresh tree of
    dicts and lists.
    """
    return json.dumps(report, allow_nan=False, check_circular=False) + "\n"


def timeline_rows(graph, timeline: Timeline) -> list[dict]:
    """One row per timeline entry, in schedule order: the single-mode report's and the CSV's fields."""
    kinds = {n.id: n.kind for n in graph.nodes}
    return [{"node_id": e.node_id, "kind": kinds[e.node_id], "engine": e.engine,
             "start_cycle": e.start, "end_cycle": e.end} for e in timeline.entries]


def timeline_csv(graph, timeline: Timeline) -> str:
    lines = ["node_id,kind,engine,start_cycle,end_cycle"]
    lines += [",".join(str(v) for v in row.values()) for row in timeline_rows(graph, timeline)]
    return "\n".join(lines) + "\n"
