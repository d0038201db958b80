"""Batch entry points: JSON config in, reports and series out.

Every command writes a ``summary.json`` listing each enabled check with
its measured deviation, tolerance and pass flag, and exits 0 only when
all checks pass.  Exit codes: 0 success, 1 check failure, 2 config error,
3 I/O error.  Identical configs produce identical summaries apart from
the timestamp and wall-time fields.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import states
from .algebra import verify_identities
from .errors import ConfigError, ConstraintViolation, Dirac88Error, FitError
from .evolution import (EvolutionConfig, _alpha_series, _energies, _spectral,
                        alpha_density_series, evolve_sourced, run_free, zitter_decompose)
from .fields import PHOTON, EMField, GridSpec, _sample_moments, embed_em, extract_em, save_em_csv
from .lorentz import (Boost, closed_form_field_boost, em_wavefunction_transform,
                      nonmomentum_boost_residual, tensor_boost_oracle)
from .oracle import compare, maxwell_evolve
from .spin import (_angular_series, closure_deviation, photon_spin_selection, spin_half,
                   spin_one, verify_spin_evolution, write_angular_momentum_csv)

__all__ = ["main", "run_command"]

_COMMANDS = ("verify-algebra", "spin-check", "evolve", "zitter", "boost-demo", "compare-oracle")


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


def _expect_keys(cfg: dict, allowed: set[str], required: set[str], where: str):
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {where}")
    for key in required:
        if key not in cfg:
            raise ConfigError(f"missing key '{key}' in {where}")


def _write_json(path: Path, obj):
    """Strict JSON: a NaN or an infinity is an error, never a bare token."""
    try:
        text = json.dumps(obj, indent=1, allow_nan=False)
    except ValueError as exc:
        raise Dirac88Error(f"{path.name}: {exc}") from exc
    path.write_text(text)


def _finite(value, key: str, minimum: float = -math.inf, strict: bool = False) -> float:
    """A finite number >= ``minimum`` (> ``minimum`` if ``strict``), else a
    ConfigError naming ``key``."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number) or number < minimum or strict and number == minimum:
        bound = "" if minimum == -math.inf else f" {'>' if strict else '>='} {minimum:g}"
        raise ConfigError(f"{key} must be a finite number{bound}, got {value!r}")
    return number


def _finite_positive(value, key: str) -> float:
    return _finite(value, key, 0.0, strict=True)


def _finite_vector(value, key: str) -> np.ndarray:
    """Three finite numbers, else a ConfigError naming ``key``."""
    if not (isinstance(value, list) and len(value) == 3):
        raise ConfigError(f"{key} must be a list of three finite numbers, got {value!r}")
    return np.array([_finite(x, key) for x in value])


def _grid_from_config(cfg: dict) -> GridSpec:
    _expect_keys(cfg, {"points", "lengths"}, {"points", "lengths"}, "grid")
    try:
        return GridSpec(tuple(int(p) for p in cfg["points"]),
                        tuple(_finite_positive(x, "grid.lengths") for x in cfg["lengths"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid: {exc}") from exc


def _state_from_config(cfg: dict, grid: GridSpec, mass: float):
    _expect_keys(cfg, {"type", "mode", "polarisation", "amplitude", "helicity",
                       "plus_weight", "minus_weight", "sigma", "k0_mode", "center"},
                 {"type"}, "state")
    kind = cfg["type"]
    amplitude = _finite(cfg.get("amplitude", 1.0), "state.amplitude")
    mode = cfg.get("mode", 1)
    if not (isinstance(mode, int)
            or isinstance(mode, list) and all(isinstance(m, int) for m in mode)):
        raise ConfigError(f"state.mode must be an integer or a list of integers, got {mode!r}")
    if kind == "zero_field":
        return embed_em(EMField.zero(grid))
    if kind == "travelling_wave":
        return states.travelling_wave(grid, mode, cfg.get("polarisation", "x"), amplitude)
    if kind == "standing_wave":
        return states.standing_wave(grid, mode, cfg.get("polarisation", "x"), amplitude)
    if kind == "circular_analytic":
        return states.circular_wave_analytic(grid, mode, int(cfg.get("helicity", 1)), amplitude)
    if kind == "electron_rest_mix":
        return states.electron_rest_mix(grid, mass, cfg.get("plus_weight", 1.0),
                                        cfg.get("minus_weight", 1.0))
    if kind == "electron_packet":
        return states.electron_gaussian_packet(
            grid, mass, _finite_positive(cfg.get("sigma", grid.lengths[0] / 14.0), "state.sigma"),
            k0_mode=cfg.get("k0_mode"), center=cfg.get("center"),
            plus_weight=cfg.get("plus_weight", 1.0),
            minus_weight=cfg.get("minus_weight", 0.0))
    raise ConfigError(f"unknown state.type '{kind}'")


def _source_from_config(cfg: dict | None, grid: GridSpec):
    if cfg is None:
        return None
    _expect_keys(cfg, {"type", "direction", "amplitude", "omega", "sigma",
                       "center", "violate_continuity"}, {"type"}, "source")
    kind = cfg["type"]
    amplitude = _finite(cfg.get("amplitude", 1.0), "source.amplitude")
    omega = _finite(cfg.get("omega", 1.0), "source.omega")
    if kind == "uniform_current":
        return states.uniform_current(grid, cfg.get("direction", [0, 1, 0]), amplitude, omega)
    if kind == "gaussian_dipole":
        return states.gaussian_dipole_current(
            grid, cfg.get("direction", [0, 1, 0]), amplitude,
            _finite_positive(cfg.get("sigma", grid.lengths[0] / 16.0), "source.sigma"), omega,
            center=cfg.get("center"),
            violate_continuity=bool(cfg.get("violate_continuity", False)))
    raise ConfigError(f"unknown source.type '{kind}'")


def _check_snapshots(outputs: dict, samples: int, kind: str):
    """Field snapshots need a photon run and sample indices in [-samples, samples)."""
    _expect_keys(outputs, {"snapshots"}, set(), "outputs")
    snapshots = outputs.get("snapshots", [])
    if snapshots and kind != PHOTON:
        raise ConfigError(f"outputs.snapshots needs a photon state, not {kind!r}")
    bad = [s for s in snapshots if not isinstance(s, int) or not -samples <= s < samples]
    if bad:
        raise ConfigError(f"outputs.snapshots {bad} are not sample indices in [{-samples}, {samples})")


def _check_point_index(index, grid: GridSpec):
    """One integer per grid axis, each in [-points, points)."""
    if not (isinstance(index, list) and len(index) == grid.ndim
            and all(isinstance(i, int) and -n <= i < n for i, n in zip(index, grid.points))):
        raise ConfigError(f"point_index {index!r} is not {grid.ndim} integer(s) in "
                          f"[-points, points) for grid points {list(grid.points)}")


def _run_from_config(cfg: dict):
    _expect_keys(cfg, {"grid", "mass", "c", "hbar", "units", "duration", "samples",
                       "state", "source", "substeps", "checks", "series",
                       "point_index", "tolerance", "expect_no_oscillation",
                       "seed", "outputs"},
                 {"grid", "duration", "samples", "state"}, "config")
    units = cfg.get("units", {})
    _expect_keys(units, {"c", "hbar"}, set(), "units")
    grid = _grid_from_config(cfg["grid"])
    samples = cfg["samples"]
    if not isinstance(samples, int) or samples < 2:
        raise ConfigError(f"samples must be an integer >= 2, got {samples!r}")
    if "point_index" in cfg:
        _check_point_index(cfg["point_index"], grid)
    substeps = cfg.get("substeps", 64)
    if not isinstance(substeps, int) or substeps < 2 or substeps % 2:
        raise ConfigError(f"substeps must be an even integer >= 2, got {substeps!r}")
    econf = EvolutionConfig(grid=grid, mass=_finite(cfg.get("mass", 0.0), "mass", 0.0),
                            duration=_finite_positive(cfg["duration"], "duration"), samples=samples,
                            c=_finite_positive(cfg.get("c", units.get("c", 1.0)), "c"),
                            hbar=_finite_positive(cfg.get("hbar", units.get("hbar", 1.0)), "hbar"))
    psi0 = _state_from_config(cfg["state"], grid, econf.mass)
    _check_snapshots(cfg.get("outputs", {}), samples, psi0.kind)
    source = _source_from_config(cfg.get("source"), grid)
    times = econf.times()
    if source is None:
        run = run_free(psi0, times, c=econf.c, hbar=econf.hbar)
    else:
        run = evolve_sourced(psi0, source, times, substeps=substeps, c=econf.c, hbar=econf.hbar)
    return run, psi0, source


def _sample_diagnostics(run, angular: bool):
    """Norm, <H>, <alpha> and, if ``angular``, the angular-momentum series of
    every sample from one pass over the samples; shared by the checks and
    the CSVs."""
    moments = _sample_moments(run.grid, run.values)
    norms = moments.norms * run.grid.cell_volume
    energies = _energies(moments, run.mass, run.c, run.hbar)
    angular_series = _angular_series(run, moments, hbar=run.hbar) if angular else None
    return norms, energies, _alpha_series(run.times, moments), angular_series


def _evolve_checks(wanted: dict, run, norms, energies, angular, checks: _Checks):
    if "norm_drift" in wanted:
        # meaningful for free runs; sourced runs inject norm and fail it
        drift = (max(norms) - min(norms)) / max(norms[0], 1e-300)
        checks.add("norm conservation", "unitary per-mode phases", drift, wanted["norm_drift"])
    if "energy_drift" in wanted:
        # real classical fields have <H> = 0 exactly (balanced branches);
        # scale by the populated mode frequencies instead
        weights = np.sum(np.abs(run.grid.fft(run.values[0])) ** 2, axis=-1)
        w = _spectral(run.grid, run.mass, run.c, run.hbar).omega
        omega_scale = run.hbar * float(np.sum(weights * w) / max(np.sum(weights), 1e-300))
        scale = max(abs(energies[0]), omega_scale, 1e-300)
        checks.add("energy conservation", "Hamiltonian expectation constant",
                   (max(energies) - min(energies)) / scale, wanted["energy_drift"])
    if "constraint" in wanted:
        resid = float(max(np.max(np.abs(run.values[..., 0])), np.max(np.abs(run.values[..., 4]))))
        checks.add("constrained components stay zero", "Gauss-law rows of the wave-function",
                   resid, wanted["constraint"])
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
    _expect_keys(cfg, {"seed"}, set(), "config")
    reports = verify_identities()
    for rep in reports:
        checks.add(rep.identity, rep.identity, rep.deviation, rep.tolerance)
    _write_json(outdir / "algebra_reports.json", [r.to_dict() for r in reports])


def _cmd_spin_check(cfg: dict, outdir: Path, checks: _Checks):
    _expect_keys(cfg, {"seed"}, set(), "config")
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
    wanted = cfg.get("checks", {"norm_drift": 1e-8, "energy_drift": 1e-8})
    if not isinstance(wanted, dict):
        raise ConfigError(f"checks must be an object of tolerances, got {wanted!r}")
    wanted = {name: _finite(tol, f"checks.{name}", 0.0) for name, tol in wanted.items()}
    run, psi0, source = _run_from_config(cfg)
    norms, energies, alpha, angular = _sample_diagnostics(
        run, "angular_momentum_drift" in wanted or cfg.get("series") == "angular_momentum")
    _evolve_checks(wanted, run, norms, energies, angular, checks)
    _write_samples_csv(outdir / "samples.csv", run.times, norms, energies, alpha)
    for snap in cfg.get("outputs", {}).get("snapshots", []):
        em = extract_em(run.sample(snap), tol=1e-6)
        save_em_csv(outdir / f"fields-{snap % run.n_samples}.csv", em)
    if cfg.get("series") == "angular_momentum":
        write_angular_momentum_csv(outdir / "angular_momentum.csv", *angular)


def _cmd_zitter(cfg: dict, outdir: Path, checks: _Checks):
    no_oscillation = cfg.get("expect_no_oscillation")
    tol = _finite(cfg.get("tolerance", 1e-12 if no_oscillation else 1e-6), "tolerance", 0.0)
    run, psi0, _ = _run_from_config(cfg)
    norms, energies, alpha, _ = _sample_diagnostics(run, angular=False)
    series = alpha
    if cfg.get("series") == "point":
        series = alpha_density_series(run, tuple(cfg.get("point_index", [0] * run.grid.ndim)))
    report = zitter_decompose(run, series)
    _write_json(outdir / "zitter.json", report.to_dict())
    _write_samples_csv(outdir / "samples.csv", run.times, norms, energies, alpha)
    if no_oscillation:
        checks.add("no oscillation for a single energy branch",
                   "monochromatic states show no jitter", float(report.amplitude.max()), tol)
    else:
        checks.add("fitted jitter frequency = doubled mode frequency",
                   "doubled-frequency interference term", report.relative_frequency_error, tol)


def _cmd_boost_demo(cfg: dict, outdir: Path, checks: _Checks):
    _expect_keys(cfg, {"velocity", "e", "b", "tolerance", "seed"},
                 {"velocity", "e", "b"}, "config")
    v = tuple(float(x) for x in _finite_vector(cfg["velocity"], "velocity"))
    e = _finite_vector(cfg["e"], "e").astype(complex)
    b = _finite_vector(cfg["b"], "b").astype(complex)
    tol = _finite(cfg.get("tolerance", 1e-10), "tolerance", 0.0)
    try:
        boost = Boost(v)
    except ValueError as exc:
        raise ConfigError(f"velocity must be slower than light: {exc}") from exc
    psi = np.zeros(8, dtype=complex)
    psi[1:4] = e
    psi[5:8] = 1j * b
    out = em_wavefunction_transform(psi, boost)
    e_spinor, b_spinor = out[1:4], -1j * out[5:8]
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
    leak = max(abs(out[0]), abs(out[4]))
    checks.add("boost preserves the constrained components", "transversality under boosts",
               float(leak), tol)
    checks.add_info("four-current coupling residual (measured)", "source-term covariance",
                    nonmomentum_boost_residual(1.0, np.array([0.2, -0.4, 0.3]), boost))


def _cmd_compare_oracle(cfg: dict, outdir: Path, checks: _Checks):
    tol = _finite(cfg.get("tolerance", 1e-10), "tolerance", 0.0)
    run, psi0, source = _run_from_config(cfg)
    em0 = extract_em(psi0)
    oracle_run = maxwell_evolve(em0, source, run.times, substeps=cfg.get("substeps", 64), c=run.c)
    rep = compare(run, oracle_run)
    checks.add("wave-equation fields match the classical solver",
               "exact embedding of the curl equations", rep.max_abs, tol)
    _write_json(outdir / "compare.json", {
        "max_abs_e": rep.max_abs_e, "max_abs_b": rep.max_abs_b,
        "rel_e": rep.rel_e, "rel_b": rep.rel_b})


_HANDLERS = {
    "verify-algebra": _cmd_verify_algebra,
    "spin-check": _cmd_spin_check,
    "evolve": _cmd_evolve,
    "zitter": _cmd_zitter,
    "boost-demo": _cmd_boost_demo,
    "compare-oracle": _cmd_compare_oracle,
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
    if not isinstance(cfg, dict):
        print("error: config must be a JSON object", file=sys.stderr)
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
        _HANDLERS[command](cfg, out, checks)
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
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)
    return run_command(args.command, args.config, args.out)


if __name__ == "__main__":
    sys.exit(main())
