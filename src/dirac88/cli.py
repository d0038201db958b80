"""Batch entry points: JSON config in, reports and series out.

Every command writes a ``summary.json`` listing each enabled check with
its measured deviation, tolerance and pass flag, and exits 0 only when
all checks pass.  Exit codes: 0 success, 1 check failure, 2 config error,
3 I/O error, 4 internal error (a fault of the program, reported in one
line; no ``summary.json``).  Identical configs produce identical summaries
apart from the timestamp and wall-time fields.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import states
from .algebra import verify_identities
from .errors import ConfigError, ConstraintViolation, Dirac88Error, FitError
from .evolution import (alpha_density_series, alpha_expectation_series,
                        energy_expectation_series, evolve_sourced, omega_k, run_free,
                        zitter_decompose)
from .fields import (GridSpec, constraint_residual, extract_em, extract_em_amplitudes,
                     save_em_csv)
from .lorentz import (Boost, closed_form_field_boost, em_wavefunction_transform,
                      nonmomentum_boost_residual, tensor_boost_oracle)
from .oracle import compare, maxwell_evolve
from .spin import (angular_momentum_series, closure_deviation, photon_spin_selection,
                   spin_half, spin_one, verify_spin_evolution, write_angular_momentum_csv)

__all__ = ["main", "run_command"]


class _Checks:
    """Accumulates {name, anchor, deviation, tolerance, pass} rows."""

    def __init__(self):
        self.rows: list[dict] = []

    def add(self, name: str, anchor: str, deviation: float, tolerance: float):
        self.rows.append({
            "name": name,
            "paper_anchor": anchor,
            "deviation": float(deviation),
            "tolerance": float(tolerance),
            "pass": bool(deviation <= tolerance),
        })

    def add_failure(self, name: str, anchor: str, message: str):
        self.rows.append({
            "name": name,
            "paper_anchor": anchor,
            "deviation": None,
            "tolerance": 0.0,
            "pass": False,
            "error": message,
        })

    def add_info(self, name: str, anchor: str, deviation: float):
        self.rows.append({
            "name": name,
            "paper_anchor": anchor,
            "deviation": float(deviation),
            "tolerance": None,
            "pass": True,
        })

    @property
    def all_pass(self) -> bool:
        return all(row["pass"] for row in self.rows)


def _write_json(path: Path, obj):
    """Strict JSON: a NaN or an infinity is an error, never a bare token."""
    try:
        text = json.dumps(obj, indent=1, allow_nan=False)
    except ValueError as exc:
        raise Dirac88Error(f"{path.name}: {exc}") from exc
    path.write_text(text)


class _Type(NamedTuple):
    """A key's type and domain: ``text`` describes, ``test`` accepts, ``cast`` converts a value."""

    text: str
    test: Callable[[object], bool]
    cast: Callable = lambda v: v


def _choice(*options) -> _Type:  # matched in type too, so true is not 1
    return _Type("one of " + ", ".join(map(json.dumps, options)),
                 lambda v: any(type(v) is type(o) and v == o for o in options))


def _list(item: _Type, text: str, test=lambda v: True) -> _Type:
    return _Type(text, lambda v: isinstance(v, list) and all(map(item.test, v)) and test(v),
                 lambda v: [item.cast(x) for x in v])


_REQUIRED = "required"        # the default of a key that must be given
_OBJECT = _Type("an object", lambda v: isinstance(v, dict))
_BOOLEAN = _Type("true or false", lambda v: type(v) is bool)
_NUMBER = _Type("a finite number", lambda v: type(v) in (int, float)  # type(True) is bool
                and abs(v) <= sys.float_info.max, float)
_NONNEGATIVE = _Type("a finite number >= 0", lambda v: _NUMBER.test(v) and v >= 0, float)
_POSITIVE = _Type("a finite number > 0", lambda v: _NUMBER.test(v) and v > 0, float)
_INTEGER = _Type("an integer", lambda v: type(v) is int)
_VECTOR = _list(_NUMBER, "a list of 3 finite numbers", lambda v: len(v) == 3)
# the length of a list "per grid axis" is checked after the walk
_AXIS_NUMBERS = _list(_NUMBER, "a list of finite numbers, one per grid axis")
_AXIS_INTEGERS = _list(_INTEGER, "a list of integers, one per grid axis")
_MODE = _Type("an integer, or a list of integers, one per grid axis",
              lambda v: _INTEGER.test(v) or _AXIS_INTEGERS.test(v))
# state.type and source.type -> the function in ``states`` that makes it; the config
# keys that name its arguments, from the block or else the top level, are passed to it
_STATES = {"zero_field": "zero_field", "travelling_wave": "travelling_wave",
           "standing_wave": "standing_wave", "circular_analytic": "circular_wave_analytic",
           "electron_rest_mix": "electron_rest_mix", "electron_packet": "electron_gaussian_packet"}
_SOURCES = {"uniform_current": "uniform_current", "gaussian_dipole": "gaussian_dipole_current"}
_WAVES = ("travelling_wave", "standing_wave", "circular_analytic")
_PHOTON_STATES = ("zero_field",) + _WAVES

# dotted key -> (type and domain, default).  A default is a value (an object's is walked
# like a given block), a function f of the keys before it by dotted key, None or _REQUIRED.
_SEED = {"seed": (_INTEGER, None)}      # read by no command; existing configs carry it
_RUN = {
    "grid": (_OBJECT, _REQUIRED),
    "grid.points": (_list(_Type("", lambda n: type(n) is int and n >= 2 and not n & (n - 1)),
                          "a list of 1 to 3 integers, each a power of two >= 2",
                          lambda v: 1 <= len(v) <= 3), _REQUIRED),
    "grid.lengths": (_list(_POSITIVE, "a list of finite numbers > 0, one per grid axis"),
                     _REQUIRED),
    "mass": (_NONNEGATIVE, 0.0),
    "units": (_OBJECT, {}),
    "units.c": (_POSITIVE, 1.0),
    "units.hbar": (_POSITIVE, 1.0),
    "c": (_POSITIVE, lambda f: f["units.c"]),
    "hbar": (_POSITIVE, lambda f: f["units.hbar"]),
    "duration": (_POSITIVE, _REQUIRED),
    "samples": (_Type("an integer >= 2", lambda v: type(v) is int and v >= 2), _REQUIRED),
    "state": (_OBJECT, _REQUIRED),
    "state.type": (_choice(*_STATES), _REQUIRED),
    "state.amplitude": (_NUMBER, 1.0),
    "state.mode": (_MODE, 1),
    "state.polarisation": (_choice("x", "y", "z"), "x"),
    "state.helicity": (_choice(1, -1), 1),
    "state.plus_weight": (_NONNEGATIVE, 1.0),
    "state.minus_weight": (_NONNEGATIVE, lambda f: float(f["state.type"] == "electron_rest_mix")),
    "state.sigma": (_POSITIVE, lambda f: f["grid.lengths"][0] / 14.0),
    "state.k0_mode": (_MODE, None),
    "state.center": (_AXIS_NUMBERS, None),
    "source": (_OBJECT, None),
    "source.type": (_choice(*_SOURCES), _REQUIRED),
    "source.direction": (_VECTOR, [0.0, 1.0, 0.0]),
    "source.amplitude": (_NUMBER, 1.0),
    "source.omega": (_NUMBER, 1.0),
    "source.sigma": (_POSITIVE, lambda f: f["grid.lengths"][0] / 16.0),
    "source.center": (_AXIS_NUMBERS, None),
    "source.violate_continuity": (_BOOLEAN, False),
    # sets only the oracle's quadrature (compare-oracle); evolve and zitter accept it
    "substeps": (_Type("an even integer >= 2", lambda v: type(v) is int and v >= 2 and not v % 2),
                 64),
    **_SEED,
}


def _walk(table: dict, raw, flat: dict, prefix: str = "") -> dict:
    """Check one block of ``raw`` against ``table`` and fill in its defaults;
    ``flat`` holds the values walked so far by dotted key."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{prefix[:-1] or 'config'} must be an object, got {raw!r}")
    names = [key[len(prefix):] for key in table if key.rpartition(".")[0] == prefix[:-1]]
    for name in raw:
        if name not in names:
            raise ConfigError(f"unknown key '{prefix}{name}'")
    out = {}
    for name in names:
        key = prefix + name
        kind, value = table[key]
        if name in raw:
            value = raw[name]
            if not kind.test(value):
                raise ConfigError(f"{key} must be {kind.text}, got {value!r}")
        elif value is _REQUIRED:
            raise ConfigError(f"missing key '{key}'")
        elif callable(value):
            value = value(flat)
        if value is not None:
            value = _walk(table, value, flat, key + ".") if kind is _OBJECT else kind.cast(value)
        out[name] = flat[key] = value
    return out


def _checked_config(table: dict, raw: dict) -> dict:
    """The walked config, after the cross-key rules; a ConfigError names the bad key."""
    cfg = _walk(table, raw, flat := {})
    if "grid" not in cfg:
        return cfg
    points, kind = flat["grid.points"], flat["state.type"]
    axial = ["grid.lengths", "state.k0_mode", "state.center", "source.center", "point_index"]
    for key in axial + (["state.mode"] if kind in _WAVES else []):
        if flat.get(key) is not None and np.size(flat[key]) != len(points):
            raise ConfigError(f"{key} must be {table[key][0].text}, got {flat[key]!r}")
    index = flat.get("point_index", ())
    if not all(-n <= i < n for i, n in zip(index, points)):
        raise ConfigError(f"point_index must be in [-points, points) on grid {points}, got {index}")
    snaps, samples = flat.get("outputs.snapshots", []), flat["samples"]
    if snaps and kind not in _PHOTON_STATES or not all(-samples <= s < samples for s in snaps):
        raise ConfigError(f"outputs.snapshots must be sample indices in [{-samples}, {samples}) "
                          f"of a photon state, got {snaps} of a {kind!r} state")
    if cfg["source"] and kind not in _PHOTON_STATES:
        raise ConfigError(f"source must be absent: a source needs a photon state, not {kind!r}")
    if flat["state.plus_weight"] == 0.0 and flat["state.minus_weight"] == 0.0:
        raise ConfigError("state.plus_weight must be > 0 when state.minus_weight is 0")
    # zitter (the one table with expect_no_oscillation) fits the jitter of the
    # state's velocity; without a source, a state of norm 0 has none
    if "expect_no_oscillation" in flat and not cfg["source"]:
        if kind == "zero_field":
            raise ConfigError("state.type must be a state of nonzero norm for zitter "
                              "without a source, got 'zero_field'")
        if kind in _WAVES and flat["state.amplitude"] == 0.0:
            raise ConfigError("state.amplitude must be nonzero for zitter without a source, "
                              "got 0")
    return cfg


def _make(function: str, block: dict, cfg: dict, grid: GridSpec):
    make, args = getattr(states, function), {**cfg, **block, "grid": grid}
    return make(**{key: args[key] for key in inspect.signature(make).parameters if key in args})


def _run_from_config(cfg: dict):
    grid = GridSpec(tuple(cfg["grid"]["points"]), tuple(cfg["grid"]["lengths"]))
    psi0 = replace(_make(_STATES[cfg["state"]["type"]], cfg["state"], cfg, grid),
                   c=cfg["c"], hbar=cfg["hbar"])
    source = cfg["source"] and _make(_SOURCES[cfg["source"]["type"]], cfg["source"], cfg, grid)
    times = np.linspace(0.0, cfg["duration"], cfg["samples"])
    run = run_free(psi0, times) if source is None else evolve_sourced(psi0, source, times)
    return run, psi0, source


def _evolve_checks(wanted: dict, run, norms, energies, angular, checks: _Checks):
    if "norm_drift" in wanted:
        # meaningful for free runs; sourced runs inject norm and fail it
        # numpy's max and min propagate NaN, so a NaN sample cannot pass
        drift = (np.max(norms) - np.min(norms)) / max(norms[0], 1e-300)
        checks.add("norm conservation", "unitary per-mode phases", drift, wanted["norm_drift"])
    if "energy_drift" in wanted:
        # real classical fields have <H> = 0 exactly (balanced branches);
        # scale by the populated mode frequencies instead
        weights = np.sum(np.abs(run.grid.fft(run.values[0])) ** 2, axis=-1)
        w = omega_k(run.grid.wave_vectors(), run.mass, run.c, run.hbar)
        omega_scale = run.hbar * float(np.sum(weights * w) / max(np.sum(weights), 1e-300))
        scale = max(abs(energies[0]), omega_scale, 1e-300)
        checks.add("energy conservation", "Hamiltonian expectation constant",
                   (np.max(energies) - np.min(energies)) / scale, wanted["energy_drift"])
    if "constraint" in wanted:
        checks.add("constrained components stay zero", "Gauss-law rows of the wave-function",
                   constraint_residual(run.values), wanted["constraint"])
    if "angular_momentum_drift" in wanted:
        total = angular[2].values
        scale = max(float(np.max(np.abs(total))), 1.0)
        drift = float(np.ptp(total, axis=0).max()) / scale
        checks.add("total angular momentum constant", "orbital plus spin conservation",
                   drift, wanted["angular_momentum_drift"])


def _write_samples_csv(path: Path, times, norms, energies, series):
    with path.open("w") as fh:
        fh.write("t,norm,energy,alpha_x,alpha_y,alpha_z\n")
        for i, t in enumerate(times):
            ax, ay, az = series.values[i]
            fh.write(f"{t:.17g},{norms[i]:.17g},{energies[i]:.17g},"
                     f"{ax:.17g},{ay:.17g},{az:.17g}\n")


def _cmd_verify_algebra(cfg: dict, outdir: Path, checks: _Checks):
    reports = verify_identities()
    for rep in reports:
        checks.add(rep.identity, rep.identity, rep.deviation, rep.tolerance)
    _write_json(outdir / "algebra_reports.json", [r.to_dict() for r in reports])


def _cmd_spin_check(cfg: dict, outdir: Path, checks: _Checks):
    half, one = spin_half(), spin_one()
    for op in (half, one):
        rep = verify_spin_evolution(op)
        checks.add(rep.identity, "operator evolution identity", rep.deviation, rep.tolerance)
        checks.add(f"{op.label} su(2) closure", "commutator closure",
                   closure_deviation(op), 1e-15)
    evals_half = np.sort(np.linalg.eigvalsh(half.components[2]))
    checks.add("spin-1/2 z spectrum +-hbar/2 (4+4)", "operator spectrum",
               float(np.max(np.abs(evals_half - np.array([-0.5] * 4 + [0.5] * 4)))), 1e-12)
    evals_one = np.sort(np.linalg.eigvalsh(one.components[2]))
    checks.add("spin-1 z spectrum {-hbar,0,hbar} (2,4,2)", "operator spectrum",
               float(np.max(np.abs(evals_one - np.array([-1.0] * 2 + [0.0] * 4 + [1.0] * 2)))), 1e-12)
    grid = GridSpec((16,), (2 * np.pi,))
    psi = states.travelling_wave(grid, 1, "x")
    sel = photon_spin_selection(psi)
    checks.add("spin-1 preserves the constrained components", "photon spin selection",
               sel.spin_one_max, 0.0)
    checks.add("spin-1/2 leaks into the constrained components", "photon spin selection",
               0.0 if sel.spin_half_max > 0.0 else 1.0, 0.0)
    _write_json(outdir / "spin_selection.json", {
        "spin_one_leak": sel.spin_one_max,
        "spin_half_leak": sel.spin_half_max,
        "witness": {"component": sel.witness_component, "row": sel.witness_row,
                    "value": [sel.witness_value.real, sel.witness_value.imag]},
    })


def _cmd_evolve(cfg: dict, outdir: Path, checks: _Checks):
    wanted = {name: tol for name, tol in cfg["checks"].items() if tol is not None}
    run, psi0, source = _run_from_config(cfg)
    # every series below reads run.moments, one pass over the samples
    norms, energies = run.moments.norms * run.grid.cell_volume, energy_expectation_series(run)
    angular = (angular_momentum_series(run) if "angular_momentum_drift" in wanted
               or cfg["series"] == "angular_momentum" else None)
    _evolve_checks(wanted, run, norms, energies, angular, checks)
    _write_samples_csv(outdir / "samples.csv", run.times, norms, energies,
                       alpha_expectation_series(run))
    for snap in cfg["outputs"]["snapshots"]:
        em = extract_em(run.sample(snap), tol=1e-6)
        save_em_csv(outdir / f"fields-{snap % run.n_samples}.csv", em)
    if cfg["series"] == "angular_momentum":
        write_angular_momentum_csv(outdir / "angular_momentum.csv", *angular)


def _cmd_zitter(cfg: dict, outdir: Path, checks: _Checks):
    run, psi0, _ = _run_from_config(cfg)
    norms, energies = run.moments.norms * run.grid.cell_volume, energy_expectation_series(run)
    series = alpha = alpha_expectation_series(run)
    if cfg["series"] == "point":
        series = alpha_density_series(run, tuple(cfg["point_index"]))
    report = zitter_decompose(run, series)
    _write_json(outdir / "zitter.json", report.to_dict())
    _write_samples_csv(outdir / "samples.csv", run.times, norms, energies, alpha)
    tol = cfg["tolerance"]
    if cfg["expect_no_oscillation"]:
        checks.add("no oscillation for a single energy branch",
                   "monochromatic states show no jitter", float(report.amplitude.max()), tol)
    else:
        checks.add("fitted jitter frequency = doubled mode frequency",
                   "doubled-frequency interference term", report.relative_frequency_error, tol)


def _cmd_boost_demo(cfg: dict, outdir: Path, checks: _Checks):
    v = tuple(cfg["velocity"])
    e = np.array(cfg["e"]).astype(complex)
    b = np.array(cfg["b"]).astype(complex)
    tol = cfg["tolerance"]
    boost = Boost(v)
    psi = np.zeros(8, dtype=complex)
    psi[1:4] = e
    psi[5:8] = 1j * b
    out = em_wavefunction_transform(psi, boost)
    e_spinor, b_spinor = extract_em_amplitudes(out)
    e_tensor, b_tensor = tensor_boost_oracle(e, b, boost)
    e_closed, b_closed = closed_form_field_boost(e, b, boost)
    record = {
        "input": {"e": list(e.real), "b": list(b.real)},
        "velocity": list(v),
        "methods": {
            "spinor": {"e": [[x.real, x.imag] for x in e_spinor],
                       "b": [[x.real, x.imag] for x in b_spinor]},
            "tensor": {"e": [[x.real, x.imag] for x in e_tensor],
                       "b": [[x.real, x.imag] for x in b_tensor]},
            "closedform": {"e": [[x.real, x.imag] for x in e_closed],
                           "b": [[x.real, x.imag] for x in b_closed]},
        },
    }
    _write_json(outdir / "boost.json", record)
    dev = max(float(np.max(np.abs(e_spinor - e_closed))), float(np.max(np.abs(b_spinor - b_closed))),
              float(np.max(np.abs(e_tensor - e_closed))), float(np.max(np.abs(b_tensor - b_closed))))
    checks.add("spinor, tensor and closed-form boosts agree", "three-route field boost", dev, tol)
    checks.add("boost preserves the constrained components", "transversality under boosts",
               constraint_residual(out), tol)
    checks.add_info("four-current coupling residual (measured)", "source-term covariance",
                    nonmomentum_boost_residual(1.0, np.array([0.2, -0.4, 0.3]), boost))


def _cmd_compare_oracle(cfg: dict, outdir: Path, checks: _Checks):
    run, psi0, source = _run_from_config(cfg)
    em0 = extract_em(psi0)
    oracle_run = maxwell_evolve(em0, source, run.times, substeps=cfg["substeps"], c=run.c)
    rep = compare(run, oracle_run)
    checks.add("wave-equation fields match the classical solver",
               "exact embedding of the curl equations", rep.max_abs, cfg["tolerance"])
    _write_json(outdir / "compare.json", {
        "max_abs_e": rep.max_abs_e, "max_abs_b": rep.max_abs_b,
        "rel_e": rep.rel_e, "rel_b": rep.rel_b})


# command -> (handler, key table)
COMMANDS = {
    "verify-algebra": (_cmd_verify_algebra, _SEED),
    "spin-check": (_cmd_spin_check, _SEED),
    "evolve": (_cmd_evolve, {
        **_RUN,
        "checks": (_OBJECT, {"norm_drift": 1e-8, "energy_drift": 1e-8}),
        **{f"checks.{name}": (_NONNEGATIVE, None)
           for name in ("norm_drift", "energy_drift", "constraint", "angular_momentum_drift")},
        "series": (_choice("angular_momentum"), None),
        "outputs": (_OBJECT, {}),
        "outputs.snapshots": (_list(_INTEGER, "a list of integers"), []),
    }),
    "zitter": (_cmd_zitter, {
        **_RUN,
        "series": (_choice("point"), None),
        "point_index": (_AXIS_INTEGERS, lambda f: [0] * len(f["grid.points"])),
        "expect_no_oscillation": (_BOOLEAN, False),
        "tolerance": (_NONNEGATIVE, lambda f: 1e-12 if f["expect_no_oscillation"] else 1e-6),
    }),
    "boost-demo": (_cmd_boost_demo, {
        "velocity": (_list(_NUMBER, "a list of 3 finite numbers, |v| < 1",
                           lambda v: len(v) == 3 and np.linalg.norm(v) < 1.0), _REQUIRED),
        **dict.fromkeys(("e", "b"), (_VECTOR, _REQUIRED)),
        "tolerance": (_NONNEGATIVE, 1e-10),
        **_SEED,
    }),
    "compare-oracle": (_cmd_compare_oracle, {**_RUN, "tolerance": (_NONNEGATIVE, 1e-10)}),
}


def run_command(command: str, config_path: str, outdir: str) -> int:
    """Execute one command; returns the process exit code."""
    started = time.time()
    try:
        raw = Path(config_path).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 3
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2

    out = Path(outdir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return 3

    checks = _Checks()
    config_hash = hashlib.sha256(
        json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    try:
        handler, table = COMMANDS[command]
        handler(_checked_config(table, cfg), out, checks)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConstraintViolation, FitError) as exc:
        checks.add_failure(type(exc).__name__, "run-time invariant", str(exc))
    except Dirac88Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a fault of the program, not of the config or the run
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4

    summary = {
        "command": command,
        "config_hash": config_hash,
        "checks": checks.rows,
        "wall_time_s": round(time.time() - started, 6),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    try:
        _write_json(out / "summary.json", summary)
    except OSError as exc:
        print(f"error: cannot write summary: {exc}", file=sys.stderr)
        return 3
    except Dirac88Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for row in checks.rows:
        status = "PASS" if row["pass"] else "FAIL"
        if row["deviation"] is None:
            print(f"[{status}] {row['name']}: {row.get('error', '')}")
        elif row["tolerance"] is None:
            print(f"[info] {row['name']}: deviation {row['deviation']:.3e} (reported)")
        else:
            print(f"[{status}] {row['name']}: deviation {row['deviation']:.3e} "
                  f"(tol {row['tolerance']:.1e})")
    return 0 if checks.all_pass else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dirac88",
        description="Verification and simulation commands for the unified "
                    "8x8 electromagnetic/electron wave equation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)
    return run_command(args.command, args.config, args.out)


if __name__ == "__main__":
    sys.exit(main())
