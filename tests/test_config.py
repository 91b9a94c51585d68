"""The config format: round trips, pinned digests and refused entries."""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insider_lab.cli import _build_config, build_parser
from insider_lab.config import (
    ExperimentConfig,
    MonteCarloError,
    from_dict,
    to_dict,
)
from insider_lab.schedules import (
    AffineBelowSchedule,
    ConstantSchedule,
    PowerLawSchedule,
    TableSchedule,
)
from insider_lab.strategy import (
    HonestStrategy,
    InsiderStrategy,
    MarketCoefficients,
    PiecewiseConstant,
    TableStrategy,
)
from oracles import config_digest

# the config of a run whose file route once kept "pi_cap": 5 as an int
# and so disagreed with --pi-cap 5 on the digest
PIECEWISE_TABLE_RUN = {
    "market": {"alpha": {"breaks": [0, 0.5], "values": [0.1, 0.3]}, "beta": 0.2,
               "horizon": 1, "x0": 2},
    "schedule": {"kind": "table", "knots": [[0, 1.5], [0.5, 1.0], [1, 0.5]]},
    "strategy": {"kind": "table", "knots": [[0, 1], [1, 2]]},
    "n_paths": 400, "base_points": 256, "delta": 0, "master_seed": 7,
    "antithetic": False, "pi_cap": 5,
}

reals = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
positive = st.floats(min_value=0.05, max_value=5.0, allow_nan=False)


@st.composite
def coefficients(draw, values):
    n = draw(st.integers(1, 3))
    inner = sorted(draw(st.sets(st.floats(0.01, 0.99), min_size=n - 1, max_size=n - 1)))
    vals = tuple(draw(values) for _ in range(n))
    return PiecewiseConstant(breaks=(0.0, *inner), values=vals)


@st.composite
def schedules(draw, horizon):
    kind = draw(st.sampled_from(["powerlaw", "const", "affine_below", "table"]))
    if kind == "powerlaw":
        return PowerLawSchedule(draw(st.floats(0.05, 3.0)), horizon)
    if kind == "const":
        return ConstantSchedule(draw(positive), horizon)
    if kind == "affine_below":
        return AffineBelowSchedule(draw(st.floats(0.05, 1.0)), horizon)
    # anchors above T at evenly spaced knots keep the anchor distance to T
    # linear over the last eighth, so the convergence check never objects
    n = draw(st.integers(2, 4))
    times = [horizon * (k / (n - 1)) for k in range(n)]
    return TableSchedule(tuple((t, horizon - t + draw(positive)) for t in times), horizon)


@st.composite
def configs(draw):
    horizon = draw(st.floats(0.1, 1.0))
    schedule = draw(schedules(horizon))
    kind = draw(st.sampled_from(["merton", "insider", "table"]))
    if kind == "merton":
        strategy = HonestStrategy()
    elif kind == "insider":
        strategy = InsiderStrategy(schedule)
    else:
        strategy = TableStrategy(tuple((float(k), draw(reals)) for k in range(3)))
    antithetic = draw(st.booleans())
    return ExperimentConfig(
        market=MarketCoefficients(alpha=draw(coefficients(reals)),
                                  beta=draw(coefficients(positive)),
                                  horizon=horizon, x0=draw(positive)),
        schedule=schedule,
        strategy=strategy,
        n_paths=2 * draw(st.integers(50, 10**6)) + (0 if antithetic else draw(st.integers(0, 1))),
        base_points=2 ** draw(st.integers(8, 14)),
        delta=draw(st.floats(0.0, 0.99)) * horizon,
        master_seed=draw(st.integers(0, 2**64 - 1)),
        antithetic=antithetic,
        pi_cap=draw(st.none() | positive),
    )


@settings(max_examples=150, deadline=None)
@given(cfg=configs())
def test_round_trip_keeps_config_and_digest(cfg):
    payload = to_dict(cfg)
    again = from_dict(payload)
    assert again == cfg
    assert config_digest(again) == config_digest(cfg)
    # the dump -> reload route goes through JSON text
    reloaded = from_dict(json.loads(json.dumps(payload)))
    assert reloaded == cfg
    assert to_dict(reloaded) == payload


def test_omitted_keys_take_the_defaults():
    cfg = from_dict({"schedule": {"kind": "powerlaw", "q": 0.5}, "delta": 0.001})
    assert to_dict(cfg) == {
        "market": {"alpha": 0.1, "beta": 0.2, "horizon": 1.0, "x0": 1.0},
        "schedule": {"kind": "powerlaw", "q": 0.5},
        "strategy": {"kind": "insider"},
        "n_paths": 200000,
        "base_points": 4096,
        "delta": 0.001,
        "master_seed": 42,
        "antithetic": True,
        "pi_cap": None,
    }


def cli_digest(*argv):
    return config_digest(_build_config(build_parser().parse_args(["simulate", *argv])))


class TestPinnedDigests:
    def test_readme_constant_run(self):
        assert cli_digest("--schedule", "const:0.5") == "8b4df09690c5b79f"

    def test_square_root_rig(self):
        assert cli_digest("--schedule", "powerlaw:q=0.5", "--delta", "1e-3") == \
            "7a77f81bfa63041a"

    def test_file_and_flag_routes_agree(self, tmp_path):
        with_cap = tmp_path / "with_cap.json"
        with_cap.write_text(json.dumps(PIECEWISE_TABLE_RUN))
        no_cap = tmp_path / "no_cap.json"
        no_cap.write_text(json.dumps({k: v for k, v in PIECEWISE_TABLE_RUN.items()
                                      if k != "pi_cap"}))
        assert cli_digest("--config", str(with_cap)) == "81dfeac4c15e032f"
        assert cli_digest("--config", str(no_cap), "--pi-cap", "5") == "81dfeac4c15e032f"
        assert config_digest(from_dict(PIECEWISE_TABLE_RUN)) == "81dfeac4c15e032f"


def test_boolean_seed_refused():
    with pytest.raises(MonteCarloError, match="master_seed"):
        from_dict({"schedule": {"kind": "const", "value": 1.0}, "master_seed": True})


@pytest.mark.parametrize("entry, message", [
    ({"kind": "const"}, "'value'"),
    ({"kind": "const", "value": 1.0, "q": 2}, "q"),
    ({"kind": "spline", "value": 1.0}, "spline"),
    ({"kind": "table", "knots": [[0, 1, 2]]}, "knots"),
    ({"kind": "powerlaw", "q": "half"}, "q"),
    ("const:1", "'kind'"),
])
def test_bad_schedule_entries_refused(entry, message):
    with pytest.raises(ValueError, match=message):
        from_dict({"schedule": entry})


SMALL_RUN = {"schedule": {"kind": "const", "value": 1.0}, "n_paths": 200, "base_points": 256}
ALPHA_TYPOS = {"breaks": [0, "0.5"], "values": [0.1, True]}


@pytest.mark.parametrize("call, entry, message", [
    (lambda: replace(from_dict(SMALL_RUN), pi_cap=True), {"pi_cap": True},
     "pi_cap must be a number, got True"),
    (lambda: replace(from_dict(SMALL_RUN), antithetic=1), {"antithetic": 1},
     "config key 'antithetic' must be true or false, got 1"),
    (lambda: replace(from_dict(SMALL_RUN), delta=False), {"delta": False},
     "delta must be a number, got False"),
    (lambda: MarketCoefficients(ALPHA_TYPOS, 0.2, 1.0), {"market": {"alpha": ALPHA_TYPOS}},
     f"market alpha must be a number or breaks and values lists of numbers, got {ALPHA_TYPOS}"),
    (lambda: PowerLawSchedule("0.5", 1.0), {"schedule": {"kind": "powerlaw", "q": "0.5"}},
     "schedule q must be a number, got '0.5'"),
    (lambda: TableSchedule([[0, "1"], [1, 1]], 1.0),
     {"schedule": {"kind": "table", "knots": [[0, "1"], [1, 1]]}},
     "schedule knots must be [time, value] pairs, got [[0, '1'], [1, 1]]"),
    (lambda: TableStrategy([[0, "1"], [1, True]]),
     {"strategy": {"kind": "table", "knots": [[0, "1"], [1, True]]}},
     "strategy knots must be [time, value] pairs, got [[0, '1'], [1, True]]"),
], ids=["pi_cap", "antithetic", "delta", "market_alpha", "schedule_q", "schedule_knots",
        "strategy_knots"])
def test_library_refuses_what_a_config_file_is_refused_for(call, entry, message):
    with pytest.raises((ValueError, RuntimeError)) as library:
        call()
    with pytest.raises((ValueError, RuntimeError)) as config_file:
        from_dict({**SMALL_RUN, **entry})
    assert type(library.value) is type(config_file.value)
    assert str(library.value) == str(config_file.value) == message
