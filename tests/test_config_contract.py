"""Property tests of the config contract.

A config drawn from the command tables runs (exit 0 or 1) or exits 2
through a documented rule whose message names its key; it never exits 4
and never raises.  One key set to a value outside its domain exits 2,
names that dotted key and writes no summary.json.  The domains below are
restated from the README tables, so a table that accepts too much fails.
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
PHOTON_STATES = ["zero_field", "travelling_wave", "standing_wave", "circular_analytic"]
WAVES = PHOTON_STATES[1:]
STATE_TYPES = PHOTON_STATES + ["electron_rest_mix", "electron_packet"]
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
    cannot break: the branch weights are not both 0 and snapshots only
    appear for photon states (drawn in ``configs``)."""
    ndim = len(points)
    axis_ints = st.lists(st.integers(-3, 3), min_size=ndim, max_size=ndim)
    axis_floats = st.lists(floats(-3.0, 3.0), min_size=ndim, max_size=ndim)
    positive, tolerance = floats(0.3, 3.0), st.sampled_from([0.0, 1e-12, 1e-8, 1e-3, 10.0])
    vector = st.lists(floats(-2.0, 2.0), min_size=3, max_size=3)
    return {
        "seed": st.integers(-10, 10),
        "grid.points": st.just(points),
        "grid.lengths": st.lists(floats(1.0, 8.0), min_size=ndim, max_size=ndim),
        "mass": floats(0.0, 3.0),
        "units.c": positive, "units.hbar": positive, "c": positive, "hbar": positive,
        "duration": floats(0.1, 4.0),
        "samples": st.just(samples),
        "state.type": st.sampled_from(STATE_TYPES),
        "state.amplitude": floats(-2.0, 2.0),
        "state.mode": axis_ints | st.integers(-3, 3) if ndim == 1 else axis_ints,
        "state.polarisation": st.sampled_from(["x", "y", "z"]),
        "state.helicity": st.sampled_from([1, -1]),
        "state.plus_weight": floats(0.1 if strict else 0.0, 2.0),
        "state.minus_weight": floats(0.0, 2.0),
        "state.sigma": floats(0.2, 2.0),
        "state.k0_mode": axis_ints,
        "state.center": axis_floats,
        "source.type": st.sampled_from(["uniform_current", "gaussian_dipole"]),
        "source.direction": vector,
        "source.amplitude": floats(-2.0, 2.0),
        "source.omega": floats(-5.0, 5.0),
        "source.sigma": floats(0.2, 2.0),
        "source.center": axis_floats,
        "source.violate_continuity": st.booleans(),
        "substeps": st.sampled_from([2, 4, 8]),
        **{f"checks.{name}": tolerance for name in CHECKS},
        "series": st.sampled_from(SERIES.get(command, [""])),
        "point_index": st.tuples(*[st.integers(-n, n - 1) for n in points]).map(list),
        "expect_no_oscillation": st.booleans(),
        "tolerance": tolerance,
        "outputs.snapshots": st.lists(st.integers(-samples, samples - 1), max_size=3),
        "velocity": st.lists(floats(-0.57, 0.57), min_size=3, max_size=3),   # |v| < 1
        "e": vector,
        "b": vector,
    }


@st.composite
def configs(draw, command, strict=False):
    """A config of ``command`` with every value in its key's domain."""
    table = COMMANDS[command][1]
    points, samples = draw(st.sampled_from(GRIDS)), draw(st.integers(2, 40))
    values = value_strategies(command, points, samples, strict)
    assert set(table) <= set(values) | BLOCKS, set(table) - set(values) - BLOCKS
    cfg, absent = {}, set()
    for key in table:
        block, _, name = key.rpartition(".")
        if block in absent or key not in REQUIRED and not draw(st.booleans()):
            absent.add(key)
            continue
        parent = cfg[block] if block else cfg
        parent[name] = {} if key in BLOCKS else draw(values[key])
    state = cfg.get("state", {})
    if strict and state.get("type") not in PHOTON_STATES:
        cfg.get("outputs", {}).pop("snapshots", None)
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
        named = re.match(r"error: (\S+) must be", err)
        assert named and named.group(1) in COMMANDS[command][1], err
        assert not summary
    else:
        # exit 1 without a summary only when strict JSON refuses a NaN
        assert summary or re.search(r"error: \S+\.json: Out of range float", err), err


NUMBER = ["x", True, None, math.nan, math.inf, -math.inf, [1.0], {}]
INTEGER = [1.5, True, "2", None, math.nan, [2]]


def bad_values(key, cfg):
    """Values outside the domain of ``key`` in the valid config ``cfg``."""
    points = cfg.get("grid", {}).get("points", [2])
    samples, ndim = cfg.get("samples", 2), len(points)
    if key in BLOCKS:
        return [3, "x", [], None]
    if key in ("state.amplitude", "source.amplitude", "source.omega"):
        return NUMBER
    if key in ("mass", "state.plus_weight", "state.minus_weight", "tolerance") \
            or key.startswith("checks."):
        return NUMBER + [-1.0, -1e-300]
    if key in ("units.c", "units.hbar", "c", "hbar", "duration", "state.sigma", "source.sigma"):
        return NUMBER + [0.0, -1.0]
    if key in ("seed", "samples", "substeps"):
        return INTEGER + {"seed": [], "samples": [1, 0, -3], "substeps": [3, 0, -2]}[key]
    if key == "grid.points":
        return ["x", 16, [], [2, 2, 2, 2], [3], [1], [16.7], ["16"], [True], [-16]]
    if key in ("grid.lengths", "state.center", "source.center"):
        bad = ["x", 1.0, [math.nan] * ndim, [True] * ndim, ["1"] * ndim, [1.0] * (ndim + 1)]
        return bad + ([[0.0] * ndim, [-1.0] * ndim] if key == "grid.lengths" else [])
    if key in ("state.mode", "state.k0_mode"):
        bad = ["a", True, 1.5, None, [1.5] * ndim, [True] * ndim]
        wrong_length = key == "state.k0_mode" or cfg["state"]["type"] in WAVES
        return bad + ([[1] * (ndim + 1)] if wrong_length else [])
    if key == "point_index":
        return ["x", 0, [1.5] * ndim, [True] * ndim, [0] * (ndim + 1),
                [points[0]] + [0] * (ndim - 1), [-points[-1] - 1] * ndim]
    if key == "outputs.snapshots":
        return ["x", 0, [1.5], [True], [samples], [-samples - 1]]
    if key in ("velocity", "e", "b", "source.direction"):
        bad = ["x", [1.0, 0.0], [0.0, math.nan, 0.0], [True, 0.0, 0.0], [0.0] * 4]
        return bad + ([[1.0, 0.0, 0.0], [0.6, 0.6, 0.6]] if key == "velocity" else [])
    if key in ("state.type", "source.type", "state.polarisation", "series"):
        return ["bogus", True, 1, None, ["x"]]
    if key == "state.helicity":
        return [0, 2, True, 1.0, "1"]
    if key in ("source.violate_continuity", "expect_no_oscillation"):
        return ["no", 1, 0, None]
    raise AssertionError(f"no out-of-domain values for {key}")


@settings(SETTINGS, max_examples=100)     # an exit 2 costs microseconds
@given(st.data())
def test_one_out_of_domain_key_exits_2_naming_it(data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    cfg = data.draw(configs(command, strict=True))
    table = COMMANDS[command][1]
    blocks = [""] + [key for key in BLOCKS & set(table) if key in cfg]
    keys = [key for key in table if key.rpartition(".")[0] in blocks]
    key = data.draw(st.sampled_from(keys + [f"{block}.bogus_key".lstrip(".") for block in blocks]))
    block, _, name = key.rpartition(".")
    parent = cfg[block] if block else cfg
    parent[name] = 1 if name == "bogus_key" else data.draw(st.sampled_from(bad_values(key, cfg)))
    code, err, summary = run(command, cfg)
    assert code == 2, (key, parent[name], err)
    assert f"{key} must be" in err or f"unknown key '{key}'" in err, (key, err)
    assert not summary
