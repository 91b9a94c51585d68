"""The experiment config: one JSON object names every result.

An experiment is a market (alpha, beta, horizon, x0), a look-ahead
schedule, a strategy and the Monte Carlo settings.  This module is the
only place that knows how they map to plain data and back: ``to_dict``
writes the canonical form that ``--dump-config`` saves and the digest
hashes, and ``from_dict`` reads it back, filling omitted keys with
their defaults and refusing unknown keys at every level; each value is
checked by the type that holds it.  The CLI literals ``powerlaw:q=0.5``
and ``table:@knots.csv`` parse into the same schedule and strategy
entries, so each kind is read and written in exactly one place: its row
in SCHEDULE or STRATEGY.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

from insider_lab.schedules import (
    AffineBelowSchedule,
    ConstantSchedule,
    EpsilonSchedule,
    PowerLawSchedule,
    ScheduleError,
    TableSchedule,
    real,
)
from insider_lab.strategy import (
    HonestStrategy,
    InsiderStrategy,
    MarketCoefficients,
    PiecewiseConstant,
    Strategy,
    StrategyError,
    TableStrategy,
)


class MonteCarloError(RuntimeError):
    """Estimation aborted: bad configuration or a failing path."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines an estimate, and nothing that doesn't.

    Worker-thread count is deliberately not part of the config: it must
    never change the result, so it stays a runtime knob.
    """

    market: MarketCoefficients
    schedule: EpsilonSchedule
    strategy: Strategy
    n_paths: int = 200000
    base_points: int = 4096
    delta: float = 0.0
    master_seed: int = 42
    antithetic: bool = True
    pi_cap: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "delta", real(self.delta, "delta", MonteCarloError))
        if self.pi_cap is not None:
            object.__setattr__(self, "pi_cap", real(self.pi_cap, "pi_cap", MonteCarloError))
        if not isinstance(self.antithetic, bool):
            raise MonteCarloError(f"config key 'antithetic' must be true or false, "
                                  f"got {self.antithetic!r}")
        if not isinstance(self.n_paths, int) or self.n_paths < 100:
            raise MonteCarloError(f"n_paths must be an integer >= 100, got {self.n_paths!r}")
        bp = self.base_points
        if not isinstance(bp, int) or bp < 256 or bp & (bp - 1):
            raise MonteCarloError(f"base_points must be a power of two >= 256, got {bp!r}")
        # bool is an int subclass, but a true seed would digest apart from seed 1
        if type(self.master_seed) is not int or not 0 <= self.master_seed < 2**64:
            raise MonteCarloError(f"master_seed must fit in 64 bits, got {self.master_seed!r}")
        if not 0 <= self.delta < self.market.horizon:
            raise MonteCarloError(
                f"truncation delta must lie in [0, {self.market.horizon}), got {self.delta!r}"
            )
        if abs(self.schedule.horizon - self.market.horizon) > 1e-12:
            raise MonteCarloError(
                f"schedule horizon {self.schedule.horizon} disagrees with "
                f"market horizon {self.market.horizon}"
            )
        if isinstance(self.strategy, InsiderStrategy) and self.strategy.schedule != self.schedule:
            raise MonteCarloError("look-ahead strategy must use the experiment's schedule")
        if self.antithetic and self.n_paths % 2:
            raise MonteCarloError("antithetic pairing needs an even n_paths")
        if self.pi_cap is not None and not (math.isfinite(self.pi_cap) and self.pi_cap > 0):
            raise MonteCarloError(f"pi_cap must be a positive number, got {self.pi_cap!r}")


class Kind(NamedTuple):
    """One entry kind: the class it builds and its parameter, if any."""

    cls: type
    key: str | None  # the parameter's config key
    attr: str | None  # the attribute that holds it


class EntryType(NamedTuple):
    """A family of {"kind": ...} entries and the error its readers raise."""

    name: str
    error: type
    column: str  # value column of its knots CSV, next to "t"
    kinds: dict


SCHEDULE = EntryType("schedule", ScheduleError, "eps", {
    "powerlaw": Kind(PowerLawSchedule, "q", "exponent"),
    "const": Kind(ConstantSchedule, "value", "value"),
    "affine_below": Kind(AffineBelowSchedule, "c", "slope"),
    "table": Kind(TableSchedule, "knots", "knots"),
})

STRATEGY = EntryType("strategy", StrategyError, "pi", {
    "merton": Kind(HonestStrategy, None, None),
    "insider": Kind(InsiderStrategy, None, None),
    "table": Kind(TableStrategy, "knots", "knots"),
})

# defaults of the keys whose dataclass field has none
MARKET_DEFAULTS = {"alpha": 0.1, "beta": 0.2, "horizon": 1.0}
STRATEGY_DEFAULT = {"kind": "insider"}


def _reject_unknown(mapping: dict, allowed, what: str, error: type = MonteCarloError) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise error(f"unknown {what} key(s): {', '.join(unknown)}")


def _read_entry(family: EntryType, entry) -> tuple[Kind, object]:
    """The kind row and the parameter value of a checked entry."""
    name, error = family.name, family.error
    if not isinstance(entry, dict) or "kind" not in entry:
        raise error(f"{name} config must be an object with a 'kind', got {entry!r}")
    kind = entry["kind"]
    spec = family.kinds.get(kind) if isinstance(kind, str) else None
    if spec is None:
        raise error(f"unknown {name} kind {kind!r} in config")
    _reject_unknown(entry, {"kind", spec.key}, name, error)
    if spec.key is None:
        return spec, None
    if spec.key not in entry:
        raise error(f"{name} config for {kind!r} needs a {spec.key!r} entry")
    return spec, entry[spec.key]


def _schedule(entry, horizon: float) -> EpsilonSchedule:
    spec, param = _read_entry(SCHEDULE, entry)
    return spec.cls(param, horizon)


def _strategy(entry, schedule: EpsilonSchedule) -> Strategy:
    spec, param = _read_entry(STRATEGY, entry)
    if spec.cls is InsiderStrategy:
        return InsiderStrategy(schedule)
    return spec.cls() if spec.key is None else spec.cls(param)


def to_entry(obj) -> dict:
    """The config entry of a schedule or strategy, e.g. {"kind": "powerlaw", "q": 0.5}."""
    for family in (SCHEDULE, STRATEGY):
        for kind, spec in family.kinds.items():
            if type(obj) is spec.cls:
                entry = {"kind": kind}
                if spec.key == "knots":
                    entry["knots"] = [list(k) for k in getattr(obj, spec.attr)]
                elif spec.key is not None:
                    entry[spec.key] = getattr(obj, spec.attr)
                return entry
    raise MonteCarloError(f"cannot serialize {obj!r}")


def describe(obj) -> str:
    """The CLI literal of a schedule or strategy; a table shows its knot count."""
    entry = to_entry(obj)
    kind = entry.pop("kind")
    if "knots" in entry:
        return f"{kind}:{len(entry['knots'])} knots"
    if not entry:
        return kind
    ((key, value),) = entry.items()
    return f"{kind}:{value:g}" if kind == "const" else f"{kind}:{key}={value:g}"


def _coefficient(c: PiecewiseConstant):
    if len(c.values) == 1:
        return float(c.values[0])
    return {"breaks": [float(b) for b in c.breaks], "values": [float(v) for v in c.values]}


def to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical plain-data form of a config, stable across runs.

    The types store every real-valued field as a float, so a config reads
    back to the same digest whichever way its numbers were typed.
    """
    m = cfg.market
    return {
        "market": {"alpha": _coefficient(m.alpha), "beta": _coefficient(m.beta),
                   "horizon": m.horizon, "x0": m.x0},
        "schedule": to_entry(cfg.schedule),
        "strategy": to_entry(cfg.strategy),
        "n_paths": cfg.n_paths,
        "base_points": cfg.base_points,
        "delta": cfg.delta,
        "master_seed": cfg.master_seed,
        "antithetic": cfg.antithetic,
        "pi_cap": cfg.pi_cap,
    }


def from_dict(data: dict) -> ExperimentConfig:
    """Build a config from its plain-data form; omitted keys take their defaults.

    Only ``schedule`` is required.  Unknown keys and entries that are not
    objects are refused here, naming the key; each value is checked by
    the type that holds it.
    """
    _reject_unknown(data, [f.name for f in fields(ExperimentConfig)], "config")
    market = data.get("market", {})
    if not isinstance(market, dict):
        raise MonteCarloError(f"config key 'market' must be an object, got {market!r}")
    _reject_unknown(market, [f.name for f in fields(MarketCoefficients)], "market")
    market = MarketCoefficients(**{**MARKET_DEFAULTS, **market})
    if "schedule" not in data:
        raise MonteCarloError("a look-ahead schedule is required: the config has no "
                              "'schedule' entry")
    schedule = _schedule(data["schedule"], market.horizon)
    settings = {k: v for k, v in data.items() if k not in ("market", "schedule", "strategy")}
    return ExperimentConfig(
        market=market,
        schedule=schedule,
        strategy=_strategy(data.get("strategy", STRATEGY_DEFAULT), schedule),
        **settings,
    )


def digest_of(payload: dict) -> str:
    """64-bit FNV-1a over the canonical JSON encoding, as 16 hex digits."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    acc = 0xCBF29CE484222325
    for byte in blob:
        acc ^= byte
        acc = (acc * 0x100000001B3) % 2**64
    return f"{acc:016x}"


def load_table_csv(path, family: EntryType = SCHEDULE) -> tuple[tuple[float, float], ...]:
    """Read knots from a CSV file whose header starts with 't' and the family's column."""
    error, what = family.error, f"{family.name} table"
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise error(f"{what} {path} is empty") from None
        if [c.strip().lower() for c in header[:2]] != ["t", family.column]:
            raise error(f"{what} {path} must start with header 't,{family.column}'; "
                        f"got {header!r}")
        knots = []
        for row in reader:
            if not row or not "".join(row).strip():
                continue
            try:
                knots.append((float(row[0]), float(row[1])))
            except (ValueError, IndexError):
                raise error(f"bad {what} row in {path}: {row!r}") from None
    return tuple(knots)


def _knots_file(arg: str, family: EntryType):
    if not arg.startswith("@"):
        raise family.error(f"{family.name} tables are loaded from a file: table:@file.csv")
    return load_table_csv(arg[1:], family)


def schedule_literal(text: str) -> dict:
    """The schedule entry of a CLI literal.

    Accepted forms: ``powerlaw:q=0.5``, ``const:0.5``,
    ``affine_below:c=0.5`` and ``table:@knots.csv``.
    """
    kind, sep, arg = text.partition(":")
    if not sep:
        raise ScheduleError(f"schedule literal must look like 'kind:arg', got {text!r}")
    kind, arg = kind.strip().lower(), arg.strip()
    spec = SCHEDULE.kinds.get(kind)
    if spec is None:
        raise ScheduleError(
            f"unknown schedule kind {kind!r}; expected powerlaw, const, affine_below or table"
        )
    if spec.key == "knots":
        return {"kind": kind, "knots": _knots_file(arg, SCHEDULE)}
    value = arg
    if kind != "const":  # the one kind whose literal is the bare value
        key, _, value = arg.partition("=")
        if key.strip() != spec.key:
            raise ScheduleError(f"{kind} takes {spec.key}=<value>, got {arg!r}")
    try:
        return {"kind": kind, spec.key: float(value)}
    except ValueError as exc:
        raise ScheduleError(f"could not parse schedule literal {text!r}: {exc}") from None


def strategy_literal(text: str) -> dict:
    """The strategy entry of a CLI literal: merton, insider, or table:@file.csv."""
    kind, sep, arg = text.strip().partition(":")
    spec = STRATEGY.kinds.get(kind)
    if spec is not None and bool(sep) == (spec.key is not None):
        if spec.key is None:
            return {"kind": kind}
        return {"kind": kind, "knots": _knots_file(arg, STRATEGY)}
    raise StrategyError(
        f"unknown strategy literal {text!r}; expected merton, insider or table:@file.csv"
    )


def parse_schedule(text: str, horizon: float) -> EpsilonSchedule:
    """Build a schedule from a CLI literal (see schedule_literal)."""
    return _schedule(schedule_literal(text), horizon)
