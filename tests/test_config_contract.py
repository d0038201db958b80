"""Property tests of the config contract.

A config drawn from the command tables runs (exit 0 or 1) or exits 2
through a documented rule whose message names its key; it never exits 4
and never raises.  A state or source block takes only the keys its type
reads: any other key exits 2 as unknown, naming the type.  One key set to
a value outside its domain exits 2, names that dotted key and writes no
summary.json.  The domains below are restated from the README tables, so
a table that accepts too much fails.
"""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dirac88.cli import COMMANDS, run_command

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=60,
                    suppress_health_check=[HealthCheck.too_slow])
# at most 16 grid points in all
GRIDS = [[2], [4], [8], [16], [2, 2], [2, 4], [4, 4], [8, 2], [2, 2, 2], [2, 2, 4], [4, 2, 2]]
REAL_PHOTON_STATES = ["zero_field", "travelling_wave", "standing_wave"]   # what a snapshot writes
PHOTON_STATES = REAL_PHOTON_STATES + ["circular_analytic"]
STATE_TYPES = PHOTON_STATES + ["electron_rest_mix", "electron_packet"]
# command -> the state types it takes: zitter fits the velocity of a state of
# nonzero norm, and the classical solver of compare-oracle evolves fields only
COMMAND_STATES = {"zitter": STATE_TYPES[1:], "compare-oracle": PHOTON_STATES}
# state.type or source.type -> the keys of its block that it reads, beside type
READS = {
    "zero_field": [],
    "travelling_wave": ["amplitude", "mode", "polarisation"],
    "standing_wave": ["amplitude", "mode", "polarisation"],
    "circular_analytic": ["amplitude", "mode", "helicity"],
    "electron_rest_mix": ["plus_weight", "minus_weight"],
    "electron_packet": ["plus_weight", "minus_weight", "sigma", "k0_mode", "center"],
    "uniform_current": ["direction", "amplitude", "omega"],
    "gaussian_dipole": ["direction", "amplitude", "omega", "sigma", "center"],
}
TYPED = {"state", "source"}   # the blocks whose type picks their keys
REQUIRED = {"grid", "grid.points", "grid.lengths", "duration", "samples", "state", "state.type",
            "source.type", "velocity", "e", "b"}
BLOCKS = {"grid", "units", "state", "source", "checks", "outputs"}
SERIES = {"evolve": ["angular_momentum"], "zitter": ["point"]}
CHECKS = ["norm_drift", "energy_drift", "constraint", "angular_momentum_drift"]


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


def value_strategies(command, points, samples, strict):
    """Key -> strategy of a value in its domain on a grid of ``points``.

    ``strict`` also keeps the cross-key rules that a value of one key alone
    cannot break: the branch weights are not both 0, and snapshots only
    appear for real photon states and point_index only with a series (drawn
    in ``configs``)."""
    ndim = len(points)
    axis_ints = st.lists(st.integers(-3, 3), min_size=ndim, max_size=ndim)
    # strict modes stay in the grid's band, 2|m| < n on every axis
    band = [st.integers(max(-3, 1 - n // 2), min(3, n // 2 - 1)) for n in points]
    axis_modes = st.tuples(*band).map(list) if strict else axis_ints
    axis_floats = st.lists(floats(-3.0, 3.0), min_size=ndim, max_size=ndim)
    positive, tolerance = floats(0.3, 3.0), st.sampled_from([0.0, 1e-12, 1e-8, 1e-3, 10.0])
    vector = st.lists(floats(-2.0, 2.0), min_size=3, max_size=3)
    return {
        "grid.points": st.just(points),
        "grid.lengths": st.lists(floats(1.0, 8.0), min_size=ndim, max_size=ndim),
        "mass": floats(0.0, 3.0),
        "units.c": positive, "units.hbar": positive,
        "duration": floats(0.1, 4.0),
        "samples": st.just(samples),
        "state.type": st.sampled_from(COMMAND_STATES.get(command, STATE_TYPES)),
        # zitter's state has a nonzero norm
        "state.amplitude": floats(-2.0, 2.0).filter(lambda v: command != "zitter" or v != 0.0),
        "state.mode": axis_modes | (band[0] if strict else st.integers(-3, 3)) if ndim == 1
        else axis_modes,
        "state.polarisation": st.sampled_from(["x", "y", "z"]),
        "state.helicity": st.sampled_from([1, -1]),
        "state.plus_weight": floats(0.1 if strict else 0.0, 2.0),
        "state.minus_weight": floats(0.0, 2.0),
        "state.sigma": floats(0.2, 2.0),
        "state.k0_mode": axis_modes,
        "state.center": axis_floats,
        "source.type": st.sampled_from(["uniform_current", "gaussian_dipole"]),
        "source.direction": vector,
        "source.amplitude": floats(-2.0, 2.0),
        "source.omega": floats(-5.0, 5.0),
        "source.sigma": floats(0.2, 2.0),
        "source.center": axis_floats,
        "substeps": st.sampled_from([2, 4, 8]),
        **{f"checks.{name}": tolerance for name in CHECKS},
        "series": st.sampled_from(SERIES.get(command, [""])),
        "point_index": st.tuples(*[st.integers(-n, n - 1) for n in points]).map(list),
        "tolerance": tolerance,
        "outputs.snapshots": st.lists(st.integers(-samples, samples - 1), max_size=3),
        "velocity": st.lists(floats(-0.57, 0.57), min_size=3, max_size=3),   # |v| < 1
        "e": vector,
        "b": vector,
    }


def unread(cfg, key):
    """Whether ``key`` is in a typed block of ``cfg`` whose type does not read it."""
    block, _, name = key.rpartition(".")
    return block in TYPED and name != "type" and name not in READS[cfg[block]["type"]]


@st.composite
def configs(draw, command, strict=False):
    """A config of ``command`` with every value in its key's domain.  Unless
    ``strict``, some configs also carry keys that their state or source type
    does not read."""
    table = COMMANDS[command][1]
    points, samples = draw(st.sampled_from(GRIDS)), draw(st.integers(2, 40))
    values = value_strategies(command, points, samples, strict)
    assert set(table) <= set(values) | BLOCKS, set(table) - set(values) - BLOCKS
    foreign = not strict and draw(st.integers(0, 3)) == 3   # about one config in four
    cfg, absent = {}, set()
    for key in table:
        block, _, name = key.rpartition(".")
        if block in absent or not foreign and unread(cfg, key) \
                or key not in REQUIRED and not draw(st.booleans()):
            absent.add(key)
            continue
        parent = cfg[block] if block else cfg
        parent[name] = {} if key in BLOCKS else draw(values[key])
    state = cfg.get("state", {})
    if strict and state.get("type") not in REAL_PHOTON_STATES:
        cfg.get("outputs", {}).pop("snapshots", None)
    if strict and "series" not in cfg:
        cfg.pop("point_index", None)
    return cfg


def run(command, cfg):
    """(exit code, stderr, whether summary.json was written) of one run."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out, err = Path(tmp, "cfg.json"), Path(tmp, "out"), io.StringIO()
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")    # degenerate drawn states warn; only the code counts
            code = run_command(command, str(path), str(out))
        return code, err.getvalue(), (out / "summary.json").exists()


@SETTINGS
@given(st.data())
def test_drawn_config_runs_or_exits_2_naming_a_key(data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    cfg = data.draw(configs(command))
    code, err, summary = run(command, cfg)
    assert code in (0, 1, 2), err
    if code == 2:
        unknown = re.match(r"error: unknown key '(\S+)' for a '(\w+)' (\w+)$", err)
        if unknown:
            key, kind, block = unknown.groups()
            assert key.startswith(f"{block}.") and cfg[block]["type"] == kind, err
            assert key in COMMANDS[command][1] and unread(cfg, key), err
        else:
            named = re.match(r"error: (\S+) must be", err)
            assert named and named.group(1) in COMMANDS[command][1], err
        assert not summary
    else:
        # a run that exits 0 or 1 names its checks, failed ones included
        assert summary, err


NUMBER = ["x", True, None, math.nan, math.inf, -math.inf, [1.0], {}]
INTEGER = [1.5, True, "2", None, math.nan, [2]]


def bad_values(command, key, cfg):
    """Values outside the domain of ``key`` in the valid config ``cfg`` of ``command``."""
    points = cfg.get("grid", {}).get("points", [2])
    samples, ndim = cfg.get("samples", 2), len(points)
    if key in BLOCKS:
        return [3, "x", [], None]
    if key == "state.amplitude":
        return NUMBER + ([0, 0.0, -0.0] if command == "zitter" else [])
    if key in ("source.amplitude", "source.omega"):
        return NUMBER
    if key in ("mass", "state.plus_weight", "state.minus_weight", "tolerance") \
            or key.startswith("checks."):
        return NUMBER + [-1.0, -1e-300]
    if key in ("units.c", "units.hbar", "duration", "state.sigma", "source.sigma"):
        return NUMBER + [0.0, -1.0]
    if key in ("samples", "substeps"):
        return INTEGER + {"samples": [1, 0, -3], "substeps": [3, 0, -2]}[key]
    if key == "grid.points":
        return ["x", 16, [], [2, 2, 2, 2], [3], [1], [16.7], ["16"], [True], [-16]]
    if key in ("grid.lengths", "state.center", "source.center"):
        bad = ["x", 1.0, [math.nan] * ndim, [True] * ndim, ["1"] * ndim, [1.0] * (ndim + 1)]
        return bad + ([[0.0] * ndim, [-1.0] * ndim] if key == "grid.lengths" else [])
    if key in ("state.mode", "state.k0_mode"):
        return ["a", True, 1.5, None, [1.5] * ndim, [True] * ndim, [1] * (ndim + 1),
                [n // 2 for n in points], [-(n // 2) for n in points]]
    if key == "point_index":
        return ["x", 0, [1.5] * ndim, [True] * ndim, [0] * (ndim + 1),
                [points[0]] + [0] * (ndim - 1), [-points[-1] - 1] * ndim]
    if key == "outputs.snapshots":
        return ["x", 0, [1.5], [True], [samples], [-samples - 1]]
    if key in ("velocity", "e", "b", "source.direction"):
        bad = ["x", [1.0, 0.0], [0.0, math.nan, 0.0], [True, 0.0, 0.0], [0.0] * 4]
        return bad + ([[1.0, 0.0, 0.0], [0.6, 0.6, 0.6]] if key == "velocity" else [])
    if key in ("state.type", "source.type", "state.polarisation", "series"):
        other = sorted(set(STATE_TYPES) - set(COMMAND_STATES.get(command, STATE_TYPES)))
        return ["bogus", True, 1, None, ["x"]] + (other if key == "state.type" else [])
    if key == "state.helicity":
        return [0, 2, True, 1.0, "1"]
    raise AssertionError(f"no out-of-domain values for {key}")


@settings(SETTINGS, max_examples=100)     # an exit 2 costs microseconds
@given(st.data())
def test_one_out_of_domain_key_exits_2_naming_it(data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    cfg = data.draw(configs(command, strict=True))
    table = COMMANDS[command][1]
    blocks = [""] + [key for key in BLOCKS & set(table) if key in cfg]
    keys = [key for key in table if key.rpartition(".")[0] in blocks and not unread(cfg, key)]
    key = data.draw(st.sampled_from(keys + [f"{block}.bogus_key".lstrip(".") for block in blocks]))
    block, _, name = key.rpartition(".")
    parent = cfg[block] if block else cfg
    parent[name] = 1 if name == "bogus_key" else data.draw(st.sampled_from(bad_values(command, key, cfg)))
    code, err, summary = run(command, cfg)
    assert code == 2, (key, parent[name], err)
    assert f"{key} must be" in err or f"unknown key '{key}'" in err, (key, err)
    assert not summary
