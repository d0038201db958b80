"""Batch entry points: JSON config in, reports and series out.

Every command writes a ``summary.json`` listing each enabled check with
its measured deviation, tolerance and pass flag, and exits 0 only when
all checks pass.  Exit codes: 0 success, 1 check failure, 2 config error,
3 I/O error, 4 internal error (a fault of the program, reported in one
line; no ``summary.json``); the code does not depend on the warning filters.
Identical configs produce identical summaries apart from the timestamp and
wall-time fields.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import warnings
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import states
from .algebra import closure_deviation, verify_identities
from .errors import ConfigError, ConstraintViolation, Dirac88Error, FitError
from .evolution import (alpha_density_series, alpha_expectation_series,
                        energy_expectation_series, evolve_sourced, run_free,
                        zitter_decompose)
from .fields import (EMField, GridSpec, check_constraint, constraint_residual,
                     extract_em_amplitudes, save_em_csv)
from .lorentz import (Boost, closed_form_field_boost, em_wavefunction_transform,
                      tensor_boost_oracle)
from .oracle import compare, maxwell_evolve
from .spin import (angular_momentum_series, photon_spin_selection, spin_half, spin_one,
                   verify_spin_evolution)

__all__ = ["main", "run_command"]

# the interpreter's built-in sha256: hashlib's would map OpenSSL into the process
# for one digest of a few hundred bytes
try:
    from _sha2 import sha256   # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256   # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256


class _Checks:
    """Accumulates {name, anchor, deviation, tolerance, pass} rows."""

    def __init__(self):
        self.rows: list[dict] = []

    def add(self, name: str, anchor: str, deviation: float, tolerance: float):
        """A row that passes when deviation <= tolerance; a NaN or infinite
        deviation fails, as a row that strict JSON can hold."""
        if not np.isfinite(deviation):
            self.add_failure(name, anchor, f"non-finite deviation {float(deviation)}")
            return
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
# state.type and source.type -> the function in ``states`` that makes it; its block takes
# only the keys that name its arguments, and mass and the units come from the top level
_STATES = {"zero_field": "zero_field", "travelling_wave": "travelling_wave",
           "standing_wave": "standing_wave", "circular_analytic": "circular_wave_analytic",
           "electron_rest_mix": "electron_rest_mix", "electron_packet": "electron_gaussian_packet"}
_SOURCES = {"uniform_current": "uniform_current", "gaussian_dipole": "gaussian_dipole_current"}
_PHOTON_STATES = ("zero_field", "travelling_wave", "standing_wave", "circular_analytic")

# dotted key -> (type and domain, default).  A default is a value (an object's is walked
# like a given block), a function f of the keys before it by dotted key, None or _REQUIRED.
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
}
# a source term, which evolve and compare-oracle take; zitter analyses free runs only
_SOURCED = {
    "source": (_OBJECT, None),
    "source.type": (_choice(*_SOURCES), _REQUIRED),
    "source.direction": (_VECTOR, [0.0, 1.0, 0.0]),
    "source.amplitude": (_NUMBER, 1.0),
    "source.omega": (_NUMBER, 1.0),
    "source.sigma": (_POSITIVE, lambda f: f["grid.lengths"][0] / 16.0),
    "source.center": (_AXIS_NUMBERS, None),
    # read by no command; accepted because the benchmark's configs carry it
    "substeps": (_Type("an even integer >= 2", lambda v: type(v) is int and v >= 2 and not v % 2),
                 64),
}


def _walk(table: dict, raw, flat: dict, prefix: str = "") -> dict:
    """Check one block of ``raw`` against ``table`` and fill in its defaults;
    ``flat`` holds the values walked so far by dotted key."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{prefix[:-1] or 'config'} must be an object, got {raw!r}")
    names = [key[len(prefix):] for key in table if key.rpartition(".")[0] == prefix[:-1]]
    makers = {"state.": _STATES, "source.": _SOURCES}.get(prefix, {})
    chosen, of = raw.get("type"), ""
    # a type in the command's domain picks the keys; any other type keeps them all,
    # so that its own message comes out
    if makers and table[prefix + "type"][0].test(chosen):
        reads = inspect.signature(getattr(states, makers[chosen])).parameters
        names = [name for name in names if name == "type" or name in reads]
        of = f" for a {chosen!r} {prefix[:-1]}"
    for name in raw:
        if name not in names:
            raise ConfigError(f"unknown key '{prefix}{name}'{of}")
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
    for key in axial + ["state.mode"]:
        if flat.get(key) is not None and np.size(flat[key]) != len(points):
            raise ConfigError(f"{key} must be {table[key][0].text}, got {flat[key]!r}")
    for key in ("state.mode", "state.k0_mode"):   # a mode past n/2 aliases to another
        modes = np.ravel(flat.get(key) or 0).tolist()   # an unset key reads mode 0
        if not all(2 * abs(m) < n for m, n in zip(modes, points)):
            raise ConfigError(f"{key} must be below half the points on every grid axis, "
                              f"2|m| < n on {points}, got {flat[key]!r}")
    index = flat.get("point_index") or ()
    if not all(-n <= i < n for i, n in zip(index, points)):
        raise ConfigError(f"point_index must be in [-points, points) on grid {points}, got {index}")
    if index and flat["series"] != "point":
        raise ConfigError(f'point_index must be given only with series "point", got {index}')
    snaps, samples = flat.get("outputs.snapshots", []), flat["samples"]
    # a snapshot writes real fields, and the circular wave's are complex
    real = kind in _PHOTON_STATES and kind != "circular_analytic"
    if snaps and not real or not all(-samples <= s < samples for s in snaps):
        raise ConfigError(f"outputs.snapshots must be sample indices in [{-samples}, {samples}) "
                          f"of a real photon state, got {snaps} of a {kind!r} state")
    if cfg.get("source") and kind not in _PHOTON_STATES:
        raise ConfigError(f"source must be absent: a source needs a photon state, not {kind!r}")
    if kind in _PHOTON_STATES and flat["mass"] != 0.0:
        raise ConfigError(f"mass must be 0 for a photon state, got {flat['mass']!r}")
    return cfg


def _make(function: str, block: dict, cfg: dict, grid: GridSpec):
    make, args = getattr(states, function), {**cfg, **cfg["units"], **block, "grid": grid}
    return make(**{key: args[key] for key in inspect.signature(make).parameters if key in args})


def _run_from_config(cfg: dict):
    grid = GridSpec(tuple(cfg["grid"]["points"]), tuple(cfg["grid"]["lengths"]))
    psi0 = replace(_make(_STATES[cfg["state"]["type"]], cfg["state"], cfg, grid), **cfg["units"])
    source = cfg.get("source") and _make(_SOURCES[cfg["source"]["type"]], cfg["source"], cfg, grid)
    times = np.linspace(0.0, cfg["duration"], cfg["samples"])
    run = run_free(psi0, times) if source is None else evolve_sourced(psi0, source, times)
    return run, psi0, source


def _evolve_checks(wanted: dict, run, norms, energies, constraint, angular, checks: _Checks):
    if "norm_drift" in wanted:
        # meaningful for free runs; sourced runs inject norm and fail it
        # numpy's max and min propagate NaN, so a NaN sample cannot pass
        drift = (np.max(norms) - np.min(norms)) / max(norms[0], 1e-300)
        checks.add("norm conservation", "unitary per-mode phases", drift, wanted["norm_drift"])
    if "energy_drift" in wanted:
        # real classical fields have <H> = 0 exactly (balanced branches); scale by
        # hbar times the mean frequency of the t = 0 state's populated modes instead
        dec = run.branches
        weights = sum(dec.populations)
        omega_scale = dec.hbar * float(np.sum(weights * dec.omega) / max(np.sum(weights), 1e-300))
        scale = max(abs(energies[0]), omega_scale, 1e-300)
        checks.add("energy conservation", "Hamiltonian expectation constant",
                   (np.max(energies) - np.min(energies)) / scale, wanted["energy_drift"])
    if "constraint" in wanted:
        checks.add("constrained components stay zero", "Gauss-law rows of the wave-function",
                   constraint, wanted["constraint"])
    if "angular_momentum_drift" in wanted:
        total = angular[2]
        scale = max(float(np.max(np.abs(total))), 1.0)
        drift = float(np.ptp(total, axis=0).max()) / scale
        checks.add("total angular momentum constant", "orbital plus spin conservation",
                   drift, wanted["angular_momentum_drift"])


# a run-series CSV's name -> (header, line end)
_SERIES_CSV = {"samples.csv": ("t,norm,energy,alpha_x,alpha_y,alpha_z", "\n"),
               "angular_momentum.csv": ("t,Lx,Ly,Lz,Sx,Sy,Sz,Jx,Jy,Jz", "\r\n")}


def _write_series_csv(path: Path, times, *columns):
    """The header, then one row per sample: t and the values of each column, all %.17g."""
    header, newline = _SERIES_CSV[path.name]
    with path.open("w", newline=newline) as fh:   # each "\n" written ends a line in ``newline``
        fh.write(header + "\n")
        fh.writelines(",".join(f"{x:.17g}" for x in row) + "\n"
                      for row in np.column_stack((times, *columns)).tolist())


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
        s = op.components
        checks.add(f"{op.label} su(2) closure", "commutator closure",
                   closure_deviation(s, s, s), 1e-15)
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
    run = _run_from_config(cfg)[0]   # the t = 0 state is not kept alive through the pass
    snapshots = {snap % run.n_samples for snap in cfg["outputs"]["snapshots"]}
    snapshot_error = None
    angular = "angular_momentum_drift" in wanted or cfg["series"] == "angular_momentum"
    # the one pass over the samples: it fills run.moments, which every series below reads,
    # with the orbital sums of <L> only when they are wanted
    for i, psi in enumerate(run.samples(orbital=angular)):
        if i in snapshots and snapshot_error is None:
            try:
                save_em_csv(outdir / f"fields-{i}.csv", psi, tol=1e-6)
            except ConstraintViolation as exc:  # fails the run once the checks are in
                snapshot_error = exc
    norms, energies = run.moments.norms * run.grid.cell_volume, energy_expectation_series(run)
    angular = angular_momentum_series(run) if angular else None
    alpha = alpha_expectation_series(run)
    constraint = np.max(run.moments.constraint)   # keeps NaN
    _evolve_checks(wanted, run, norms, energies, constraint, angular, checks)
    _write_series_csv(outdir / "samples.csv", run.times, norms, energies, alpha)
    # whatever checks are enabled, a run must not write inf or NaN diagnostics
    series = {"norm": norms, "energy": energies, "<alpha>": alpha}
    if bad := [name for name, values in series.items() if not np.isfinite(values).all()]:
        checks.add_failure("finite diagnostics", "samples.csv", f"non-finite {', '.join(bad)}")
    if snapshot_error is not None:
        raise snapshot_error
    if cfg["series"] == "angular_momentum":
        _write_series_csv(outdir / "angular_momentum.csv", run.times, *angular)


def _cmd_zitter(cfg: dict, outdir: Path, checks: _Checks):
    run = _run_from_config(cfg)[0]
    # first, so that its pass over the samples is the one that fills run.moments
    point = (alpha_density_series(run, tuple(cfg["point_index"])) if cfg["series"] == "point"
             else None)
    norms, energies = run.moments.norms * run.grid.cell_volume, energy_expectation_series(run)
    alpha = alpha_expectation_series(run)
    report = zitter_decompose(run, alpha if point is None else point)
    _write_json(outdir / "zitter.json", report.to_dict())
    _write_series_csv(outdir / "samples.csv", run.times, norms, energies, alpha)
    # the t = 0 branches pick the row: a state with no interference line cannot jitter
    tol = (1e-6 if report.lines else 1e-12) if cfg["tolerance"] is None else cfg["tolerance"]
    if report.lines:
        checks.add("fitted jitter frequency = doubled mode frequency",
                   "doubled-frequency interference term", report.relative_frequency_error, tol)
    else:
        checks.add("no oscillation for a single energy branch",
                   "monochromatic states show no jitter", float(report.amplitude.max()), tol)


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
    routes = {"spinor": extract_em_amplitudes(out), "tensor": tensor_boost_oracle(e, b, boost),
              "closedform": closed_form_field_boost(e, b, boost)}
    _write_json(outdir / "boost.json", {
        "input": {"e": list(e.real), "b": list(b.real)},
        "velocity": list(v),
        "methods": {name: {"e": [[x.real, x.imag] for x in e_out],
                           "b": [[x.real, x.imag] for x in b_out]}
                    for name, (e_out, b_out) in routes.items()},
    })
    dev = max(float(np.max(np.abs(got - want))) for name in ("spinor", "tensor")
              for got, want in zip(routes[name], routes["closedform"]))
    checks.add("spinor, tensor and closed-form boosts agree", "three-route field boost", dev, tol)
    checks.add("boost preserves the constrained components", "transversality under boosts",
               constraint_residual(out), tol)


def _cmd_compare_oracle(cfg: dict, outdir: Path, checks: _Checks):
    run, psi0, source = _run_from_config(cfg)
    # the classical solver is linear: it evolves the embedded fields as they are,
    # complex ones too, once the constrained components vanish
    check_constraint(psi0.values)
    oracle_run = maxwell_evolve(EMField(run.grid, *extract_em_amplitudes(psi0.values)), source,
                                run.times, c=run.c)
    del psi0   # the pass below holds neither route's t = 0 state
    rep = compare(run, oracle_run)
    # relative to the oracle field's RMS, so the verdict does not scale with the amplitude
    checks.add("wave-equation fields match the classical solver",
               "exact embedding of the curl equations", max(rep.rel_e, rep.rel_b),
               cfg["tolerance"])
    _write_json(outdir / "compare.json", {
        "max_abs_e": rep.max_abs_e, "max_abs_b": rep.max_abs_b,
        "rel_e": rep.rel_e, "rel_b": rep.rel_b})


# command -> (handler, key table)
COMMANDS = {
    "verify-algebra": (_cmd_verify_algebra, {}),
    "spin-check": (_cmd_spin_check, {}),
    "evolve": (_cmd_evolve, {
        **_RUN, **_SOURCED,
        # a driven run conserves neither norm nor energy
        "checks": (_OBJECT, lambda f: {"constraint": 1e-10} if f["source"]
                   else {"norm_drift": 1e-8, "energy_drift": 1e-8}),
        **{f"checks.{name}": (_NONNEGATIVE, None)
           for name in ("norm_drift", "energy_drift", "constraint", "angular_momentum_drift")},
        "series": (_choice("angular_momentum"), None),
        "outputs": (_OBJECT, {}),
        "outputs.snapshots": (_list(_INTEGER, "a list of integers"), []),
    }),
    "zitter": (_cmd_zitter, {
        **_RUN,
        # it fits the velocity of a free state, and a state of norm 0 has none
        "state.type": (_choice(*(kind for kind in _STATES if kind != "zero_field")), _REQUIRED),
        "state.amplitude": (_Type("a finite number != 0", lambda v: _NUMBER.test(v) and v != 0,
                                  float), 1.0),
        "series": (_choice("point"), None),
        "point_index": (_AXIS_INTEGERS, lambda f: f["series"] and [0] * len(f["grid.points"])),
        "tolerance": (_NONNEGATIVE, None),   # off: the row's own, 1e-12 or 1e-6
    }),
    "boost-demo": (_cmd_boost_demo, {
        "velocity": (_list(_NUMBER, "a list of 3 finite numbers, |v| < 1",
                           lambda v: len(v) == 3 and np.linalg.norm(v) < 1.0), _REQUIRED),
        **dict.fromkeys(("e", "b"), (_VECTOR, _REQUIRED)),
        "tolerance": (_NONNEGATIVE, 1e-10),
    }),
    "compare-oracle": (_cmd_compare_oracle, {
        **_RUN, **_SOURCED,
        "state.type": (_choice(*_PHOTON_STATES), _REQUIRED),   # the classical solver evolves fields
        "tolerance": (_NONNEGATIVE, 1e-10),
    }),
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
    config_hash = sha256(json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    try:
        handler, table = COMMANDS[command]
        # a non-finite run fails its own rows whatever the warning filters say, and the
        # packet-width advisory is printed, never fatal
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.filterwarnings("default", "density RMS width")
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
        else:
            print(f"[{status}] {row['name']}: deviation {row['deviation']:.3e} "
                  f"(tol {row['tolerance']:.1e})")
    return 0 if checks.all_pass else 1


def main(argv: list[str] | None = None) -> int:
    import argparse   # the library imports of this module do not pay for it
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
