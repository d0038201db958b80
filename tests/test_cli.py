import json
from pathlib import Path

import numpy as np
import pytest

from dirac88.cli import main, run_command

TWO_PI = 6.283185307179586


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_summary(outdir):
    return json.loads((outdir / "summary.json").read_text())


def test_verify_algebra_passes(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", {})
    out = tmp_path / "out"
    assert run_command("verify-algebra", cfg, str(out)) == 0
    summary = read_summary(out)
    assert summary["command"] == "verify-algebra"
    assert len(summary["checks"]) >= 12
    assert all(row["pass"] for row in summary["checks"])
    assert (out / "algebra_reports.json").exists()


def test_spin_check_passes(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", {})
    out = tmp_path / "out"
    assert run_command("spin-check", cfg, str(out)) == 0
    witness = json.loads((out / "spin_selection.json").read_text())
    assert witness["spin_one_leak"] == 0.0
    assert witness["spin_half_leak"] > 0.0


def test_missing_config_is_error(tmp_path):
    assert run_command("verify-algebra", str(tmp_path / "nope.json"), str(tmp_path / "o")) == 3


def test_malformed_json_exit2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run_command("verify-algebra", str(path), str(tmp_path / "o")) == 2


def test_unknown_key_named(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", {"bogus_key": 1})
    assert run_command("verify-algebra", cfg, str(tmp_path / "o")) == 2
    assert "bogus_key" in capsys.readouterr().err


def test_missing_required_key_named(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", {"grid": {"points": [64], "lengths": [TWO_PI]},
                                           "duration": 1.0, "samples": 8})
    assert run_command("evolve", cfg, str(tmp_path / "o")) == 2
    assert "state" in capsys.readouterr().err


def evolve_cfg(samples=24):
    return {
        "grid": {"points": [128], "lengths": [TWO_PI]},
        "mass": 0.0,
        "duration": 2.0,
        "samples": samples,
        "state": {"type": "travelling_wave", "mode": 3, "polarisation": "x"},
        "checks": {"norm_drift": 1e-10, "energy_drift": 1e-10, "constraint": 1e-10},
    }


def test_evolve_free_run(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", evolve_cfg())
    out = tmp_path / "out"
    assert run_command("evolve", cfg, str(out)) == 0
    lines = (out / "samples.csv").read_text().splitlines()
    assert lines[0] == "t,norm,energy,alpha_x,alpha_y,alpha_z"
    assert len(lines) == 25


def test_evolve_snapshots(tmp_path):
    cfg = evolve_cfg()
    cfg["outputs"] = {"snapshots": [0, -1]}
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert run_command("evolve", path, str(out)) == 0
    assert (out / "fields-0.csv").exists()
    assert (out / "fields-23.csv").exists()
    from dirac88.fields import load_em_csv
    em = load_em_csv(out / "fields-0.csv")
    assert em.grid.points == (128,)


def test_evolve_continuity_violation_exit1(tmp_path, capsys):
    cfg = evolve_cfg(samples=8)
    cfg["source"] = {"type": "gaussian_dipole", "direction": [0, 0, 1],
                     "amplitude": 1.0, "sigma": 0.4, "omega": 2.0,
                     "violate_continuity": True}
    cfg["state"] = {"type": "standing_wave", "mode": 0}
    # a standing wave of mode 0 is invalid; use zero-amplitude travelling wave
    cfg["state"] = {"type": "travelling_wave", "mode": 1, "amplitude": 0.0}
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert run_command("evolve", path, str(out)) == 1
    summary = read_summary(out)
    failing = [row for row in summary["checks"] if not row["pass"]]
    assert failing and "ConstraintViolation" in failing[0]["name"]


def test_zitter_command(tmp_path):
    cfg = {
        "grid": {"points": [256], "lengths": [TWO_PI]},
        "mass": 0.0,
        "duration": 3.5,
        "samples": 64,
        "state": {"type": "standing_wave", "mode": 2},
        "series": "point",
        "point_index": [16],
        "tolerance": 1e-6,
    }
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert run_command("zitter", path, str(out)) == 0
    zit = json.loads((out / "zitter.json").read_text())
    assert zit["expected_frequency"] == pytest.approx(4.0)
    assert abs(zit["fitted_frequency"] - 4.0) < 1e-6


def test_boost_demo(tmp_path):
    cfg = {"velocity": [0, 0, 0.6], "e": [1, 0, 0], "b": [0, 1, 0], "tolerance": 1e-10}
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert run_command("boost-demo", path, str(out)) == 0
    rec = json.loads((out / "boost.json").read_text())
    assert set(rec["methods"]) == {"spinor", "tensor", "closedform"}
    assert rec["methods"]["spinor"]["e"][0][0] == pytest.approx(0.5, abs=1e-12)


def test_compare_oracle_command(tmp_path):
    cfg = {
        "grid": {"points": [128], "lengths": [TWO_PI]},
        "duration": 2.0,
        "samples": 40,
        "state": {"type": "travelling_wave", "mode": 2, "polarisation": "y"},
        "tolerance": 1e-10,
    }
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert run_command("compare-oracle", path, str(out)) == 0
    rep = json.loads((out / "compare.json").read_text())
    assert rep["max_abs_e"] < 1e-11


def test_compare_oracle_shipped_config_measures_oracle_quadrature(tmp_path):
    # the wave-equation route is exact, so the deviation is the oracle's own
    # Simpson error, not a difference of two identical quadratures
    config = Path(__file__).resolve().parents[1] / "configs" / "compare_oracle.json"
    out = tmp_path / "out"
    assert run_command("compare-oracle", str(config), str(out)) == 0
    row = read_summary(out)["checks"][0]
    assert 1e-13 < row["deviation"] <= row["tolerance"]


def test_evolve_angular_momentum_series(tmp_path):
    cfg = {
        "grid": {"points": [64], "lengths": [TWO_PI]},
        "mass": 0.0,
        "duration": 2.0,
        "samples": 17,
        "state": {"type": "circular_analytic", "mode": 2, "helicity": 1},
        "series": "angular_momentum",
        "checks": {"norm_drift": 1e-10},
    }
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert run_command("evolve", path, str(out)) == 0
    lines = (out / "angular_momentum.csv").read_text().splitlines()
    assert lines[0] == "t,Lx,Ly,Lz,Sx,Sy,Sz,Jx,Jy,Jz"
    sz = float(lines[1].split(",")[6])
    assert sz == pytest.approx(1.0, abs=1e-10)


def test_zitter_no_oscillation_path(tmp_path):
    cfg = {
        "grid": {"points": [64], "lengths": [TWO_PI]},
        "mass": 0.0,
        "duration": 2.0,
        "samples": 24,
        "state": {"type": "circular_analytic", "mode": 3, "helicity": -1},
        "expect_no_oscillation": True,
        "tolerance": 1e-12,
    }
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert run_command("zitter", path, str(out)) == 0
    zit = json.loads((out / "zitter.json").read_text())
    assert max(zit["oscillation_amplitude"]) < 1e-12


def test_units_block(tmp_path):
    cfg = {
        "grid": {"points": [16], "lengths": [TWO_PI]},
        "mass": 1.0,
        "units": {"c": 2.0, "hbar": 1.5},
        "duration": 3.0,
        "samples": 64,
        "state": {"type": "electron_rest_mix"},
        "tolerance": 1e-6,
    }
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert run_command("zitter", path, str(out)) == 0
    zit = json.loads((out / "zitter.json").read_text())
    assert zit["expected_frequency"] == pytest.approx(2.0 * 1.0 * 4.0 / 1.5)


def test_determinism(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", evolve_cfg())
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run_command("evolve", cfg, str(out1)) == 0
    assert run_command("evolve", cfg, str(out2)) == 0
    s1, s2 = read_summary(out1), read_summary(out2)
    for s in (s1, s2):
        s.pop("timestamp")
        s.pop("wall_time_s")
    assert json.dumps(s1, sort_keys=True) == json.dumps(s2, sort_keys=True)
    assert (out1 / "samples.csv").read_text() == (out2 / "samples.csv").read_text()


def test_main_entrypoint(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", {})
    assert main(["verify-algebra", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_unknown_flag_rejected(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", {})
    for extra in (["--frobnicate"], ["--parallel", "2"]):
        with pytest.raises(SystemExit):
            main(["verify-algebra", "--config", cfg, "--out", str(tmp_path / "o")] + extra)


@pytest.mark.parametrize("samples", [0, 1])
def test_too_few_samples_exit2(tmp_path, capsys, samples):
    cfg = write_cfg(tmp_path, "cfg.json", evolve_cfg(samples=samples))
    assert run_command("evolve", cfg, str(tmp_path / "o")) == 2
    assert "samples" in capsys.readouterr().err


@pytest.mark.parametrize("index", [24, -25])
def test_snapshot_index_out_of_range_exit2(tmp_path, capsys, index):
    cfg = evolve_cfg()
    cfg["outputs"] = {"snapshots": [0, index]}
    path = write_cfg(tmp_path, "cfg.json", cfg)
    assert run_command("evolve", path, str(tmp_path / "o")) == 2
    assert "outputs.snapshots" in capsys.readouterr().err


def test_snapshots_of_electron_run_exit2(tmp_path, capsys):
    cfg = {
        "grid": {"points": [16], "lengths": [TWO_PI]},
        "mass": 1.0,
        "duration": 1.0,
        "samples": 8,
        "state": {"type": "electron_rest_mix"},
        "outputs": {"snapshots": [0]},
    }
    path = write_cfg(tmp_path, "cfg.json", cfg)
    assert run_command("evolve", path, str(tmp_path / "o")) == 2
    assert "outputs.snapshots" in capsys.readouterr().err


def count_calls(monkeypatch, targets):
    """Count the calls to each function of ``targets`` (label -> function)
    made through any dirac88 module-level name bound to it."""
    import sys
    calls = dict.fromkeys(targets, 0)
    modules = [m for n, m in sys.modules.items() if n == "dirac88" or n.startswith("dirac88.")]
    for label, fn in targets.items():
        def wrapper(*args, _label=label, _fn=fn, **kwargs):
            calls[_label] += 1
            return _fn(*args, **kwargs)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)
    return calls


def angular_evolve_cfg(samples):
    cfg = evolve_cfg(samples=samples)
    cfg["state"] = {"type": "circular_analytic", "mode": 2, "helicity": 1}
    cfg["checks"] = {"norm_drift": 1e-10, "energy_drift": 1e-10, "angular_momentum_drift": 1e-8}
    cfg["series"] = "angular_momentum"
    return cfg


def test_evolve_diagnostics_computed_once(tmp_path, monkeypatch):
    import dirac88.evolution as evolution
    import dirac88.fields as fields
    import dirac88.spin as spin
    calls = count_calls(monkeypatch, {
        "kernel": fields._sample_moments,
        "energy": evolution.energy_expectation,
        "alpha": evolution.alpha_expectation_series,
        "angular": spin.angular_momentum_series,
    })
    path = write_cfg(tmp_path, "cfg.json", angular_evolve_cfg(samples=12))
    out = tmp_path / "out"
    assert run_command("evolve", path, str(out)) == 0
    assert calls == {"kernel": 1, "energy": 0, "alpha": 0, "angular": 0}
    assert (out / "angular_momentum.csv").exists()


def test_evolve_diagnostics_one_axis_transform_per_grid_axis(tmp_path, monkeypatch):
    import dirac88.cli as cli
    counts = {"fft": 0, "ifft": 0, "fftn": 0, "ifftn": 0}
    diagnostics = cli._sample_diagnostics

    def counted_diagnostics(*args, **kwargs):
        with pytest.MonkeyPatch.context() as mp:
            for name in counts:
                def wrapper(*a, _name=name, _fn=getattr(np.fft, name), **k):
                    counts[_name] += 1
                    return _fn(*a, **k)
                mp.setattr(np.fft, name, wrapper)
            return diagnostics(*args, **kwargs)

    monkeypatch.setattr(cli, "_sample_diagnostics", counted_diagnostics)
    samples = 5
    cfg = {
        "grid": {"points": [8, 8, 16], "lengths": [TWO_PI, 5.0, 9.0]},
        "mass": 2.0,
        "duration": 0.5,
        "samples": samples,
        "state": {"type": "electron_packet", "sigma": 0.45, "k0_mode": [1, 0, 1]},
        "checks": {"norm_drift": 1e-10, "energy_drift": 1e-10},
        "series": "angular_momentum",
    }
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert run_command("evolve", path, str(out)) == 0
    assert counts == {"fft": 3 * samples, "ifft": 0, "fftn": 0, "ifftn": 0}
    assert len((out / "angular_momentum.csv").read_text().splitlines()) == samples + 1


def zitter_point_cfg(point_index):
    return {
        "grid": {"points": [64], "lengths": [TWO_PI]},
        "mass": 0.0,
        "duration": 2.0,
        "samples": 16,
        "state": {"type": "standing_wave", "mode": 2},
        "series": "point",
        "point_index": point_index,
    }


@pytest.mark.parametrize("point_index", [[99], [-65], [1, 2], [1.5], ["a"], 3, [True]],
                         ids=["out-of-range", "negative-out-of-range", "wrong-length",
                              "float", "string", "not-a-list", "bool"])
def test_bad_point_index_exit2(tmp_path, capsys, point_index):
    path = write_cfg(tmp_path, "cfg.json", zitter_point_cfg(point_index))
    assert run_command("zitter", path, str(tmp_path / "o")) == 2
    assert "point_index" in capsys.readouterr().err


@pytest.mark.parametrize("key, edit", [
    ("grid.lengths", lambda cfg: cfg["grid"].update(lengths=[-TWO_PI])),
    ("grid.lengths", lambda cfg: cfg["grid"].update(lengths=[float("nan")])),
    ("grid.lengths", lambda cfg: cfg["grid"].update(lengths=[float("inf")])),
    ("c", lambda cfg: cfg.update(c=0)),
    ("c", lambda cfg: cfg.update(units={"c": float("nan")})),
    ("hbar", lambda cfg: cfg.update(hbar=-1.0)),
    ("hbar", lambda cfg: cfg.update(units={"hbar": "one"})),
    ("state.mode", lambda cfg: cfg["state"].update(mode="a")),
    ("state.mode", lambda cfg: cfg["state"].update(mode=[1.5])),
    ("grid.points", lambda cfg: cfg["grid"].update(points=[16.7])),
    ("grid.points", lambda cfg: cfg["grid"].update(points=["16"])),
    ("state.mode", lambda cfg: cfg["state"].update(mode=[1, 2])),
    ("state.mode", lambda cfg: cfg["state"].update(mode=True)),
    ("grid", lambda cfg: cfg.update(grid=3)),
    ("state", lambda cfg: cfg.update(state=3)),
    ("units", lambda cfg: cfg.update(units=3)),
    ("outputs", lambda cfg: cfg.update(outputs=3)),
], ids=["negative-length", "nan-length", "inf-length", "c-zero", "units-c-nan",
        "hbar-negative", "units-hbar-string", "mode-string", "mode-float", "points-float",
        "points-string", "mode-wrong-length", "mode-bool", "grid-not-object",
        "state-not-object", "units-not-object", "outputs-not-object"])
def test_config_domain_exit2(tmp_path, capsys, key, edit):
    cfg = evolve_cfg(samples=8)
    edit(cfg)
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "o"
    assert run_command("evolve", path, str(out)) == 2
    assert f"{key} must be" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_summary_is_strict_json(tmp_path, capsys, monkeypatch):
    import dataclasses
    import dirac88.cli as cli
    kernel = cli._sample_moments

    def nan_energies(*args, **kwargs):
        moments = kernel(*args, **kwargs)
        return dataclasses.replace(moments, kinetic=np.full_like(moments.kinetic, np.nan))

    monkeypatch.setattr(cli, "_sample_moments", nan_energies)
    path = write_cfg(tmp_path, "cfg.json", evolve_cfg(samples=8))
    out = tmp_path / "o"
    assert run_command("evolve", path, str(out)) == 1
    assert "summary.json" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_nan_sample_fails_drift_checks(tmp_path, capsys, monkeypatch):
    import dataclasses
    import dirac88.cli as cli
    kernel = cli._sample_moments

    def nan_last_norm(*args, **kwargs):
        moments = kernel(*args, **kwargs)
        norms = moments.norms.copy()
        norms[-1] = np.nan
        return dataclasses.replace(moments, norms=norms)

    monkeypatch.setattr(cli, "_sample_moments", nan_last_norm)
    path = write_cfg(tmp_path, "cfg.json", evolve_cfg(samples=8))
    out = tmp_path / "o"
    assert run_command("evolve", path, str(out)) == 1
    assert "summary.json" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def sourced_cfg():
    cfg = evolve_cfg(samples=8)
    cfg["state"] = {"type": "zero_field"}
    cfg["source"] = {"type": "gaussian_dipole", "direction": [0, 1, 0],
                     "amplitude": 1.0, "sigma": 0.4, "omega": 2.0}
    cfg["substeps"] = 8
    return cfg


def zitter_cfg():
    return {"grid": {"points": [16], "lengths": [TWO_PI]}, "mass": 1.0, "duration": 9.0,
            "samples": 32, "state": {"type": "electron_rest_mix"}, "tolerance": 1e-6}


def boost_cfg():
    return {"velocity": [0, 0, 0.6], "e": [1, 0, 0], "b": [0, 1, 0], "tolerance": 1e-10}


NAN = float("nan")


@pytest.mark.parametrize("command, make, key, edit", [
    ("evolve", sourced_cfg, "substeps", lambda cfg: cfg.update(substeps=0)),
    ("evolve", sourced_cfg, "substeps", lambda cfg: cfg.update(substeps=7)),
    ("evolve", evolve_cfg, "duration", lambda cfg: cfg.update(duration=NAN)),
    ("evolve", evolve_cfg, "mass", lambda cfg: cfg.update(mass=NAN)),
    ("evolve", evolve_cfg, "state.amplitude", lambda cfg: cfg["state"].update(amplitude=NAN)),
    ("evolve", evolve_cfg, "checks.energy_drift", lambda cfg: cfg["checks"].update(energy_drift=NAN)),
    ("evolve", sourced_cfg, "source.amplitude", lambda cfg: cfg["source"].update(amplitude=NAN)),
    ("evolve", sourced_cfg, "source.omega", lambda cfg: cfg["source"].update(omega=NAN)),
    ("evolve", sourced_cfg, "source.sigma", lambda cfg: cfg["source"].update(sigma=NAN)),
    ("zitter", zitter_cfg, "tolerance", lambda cfg: cfg.update(tolerance=NAN)),
    ("boost-demo", boost_cfg, "velocity", lambda cfg: cfg.update(velocity=[1.0, 0, 0])),
    ("boost-demo", boost_cfg, "velocity", lambda cfg: cfg.update(velocity=[0, NAN, 0])),
    ("boost-demo", boost_cfg, "e", lambda cfg: cfg.update(e=[1, 0])),
    ("boost-demo", boost_cfg, "tolerance", lambda cfg: cfg.update(tolerance=NAN)),
    ("evolve", evolve_cfg, "state.helicity",
     lambda cfg: cfg.update(state={"type": "circular_analytic", "mode": 2, "helicity": "a"})),
    ("evolve", evolve_cfg, "state.polarisation", lambda cfg: cfg["state"].update(polarisation="q")),
    ("zitter", zitter_cfg, "state.plus_weight",
     lambda cfg: cfg["state"].update(plus_weight=0, minus_weight=0)),
    ("zitter", zitter_cfg, "state.minus_weight", lambda cfg: cfg["state"].update(minus_weight=NAN)),
    ("evolve", sourced_cfg, "source.center", lambda cfg: cfg["source"].update(center="x")),
    ("evolve", evolve_cfg, "state.center",
     lambda cfg: cfg.update(mass=1.0, state={"type": "electron_packet", "center": [NAN]})),
    ("evolve", sourced_cfg, "source.direction",
     lambda cfg: cfg.update(source={"type": "uniform_current", "direction": [0, NAN, 0]})),
    ("evolve", evolve_cfg, "state.k0_mode",
     lambda cfg: cfg.update(mass=1.0, state={"type": "electron_packet", "k0_mode": "a"})),
    ("evolve", evolve_cfg, "state.k0_mode",
     lambda cfg: cfg.update(mass=1.0, state={"type": "electron_packet", "k0_mode": [1.5]})),
    ("evolve", evolve_cfg, "state.helicity",
     lambda cfg: cfg.update(state={"type": "circular_analytic", "mode": 2, "helicity": True})),
    ("evolve", evolve_cfg, "checks.norm_drift", lambda cfg: cfg["checks"].update(norm_drift=True)),
    ("evolve", sourced_cfg, "source.violate_continuity",
     lambda cfg: cfg["source"].update(violate_continuity="no")),
    ("zitter", zitter_cfg, "expect_no_oscillation", lambda cfg: cfg.update(expect_no_oscillation="no")),
    ("evolve", evolve_cfg, "series", lambda cfg: cfg.update(series="angular_momentun")),
    ("zitter", zitter_cfg, "series", lambda cfg: cfg.update(series="pointt")),
], ids=["substeps-zero", "substeps-odd", "duration-nan", "mass-nan", "state-amplitude-nan",
        "checks-tolerance-nan", "source-amplitude-nan", "source-omega-nan", "source-sigma-nan",
        "tolerance-nan", "velocity-light", "velocity-nan", "e-short", "boost-tolerance-nan",
        "helicity-string", "polarisation-unknown", "weights-zero", "weight-nan",
        "source-center-string", "state-center-nan", "direction-nan", "k0-mode-string",
        "k0-mode-float", "helicity-bool", "check-tolerance-bool", "violate-continuity-string",
        "no-oscillation-string", "evolve-series-unknown", "zitter-series-unknown"])
def test_config_value_exit2(tmp_path, capsys, command, make, key, edit):
    cfg = make()
    edit(cfg)
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "o"
    assert run_command(command, path, str(out)) == 2
    assert f"{key} must be" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def compare_cfg():
    cfg = sourced_cfg()
    del cfg["checks"]
    cfg["tolerance"] = 1e-8
    return cfg


@pytest.mark.parametrize("command, make, key, edit", [
    ("evolve", evolve_cfg, "checks.norm_drfit", lambda cfg: cfg.update(checks={"norm_drfit": 1e-8})),
    ("zitter", zitter_cfg, "checks", lambda cfg: cfg.update(checks={"norm_drift": 1e-30})),
    ("compare-oracle", compare_cfg, "checks", lambda cfg: cfg.update(checks={"norm_drift": 1e-30})),
    ("zitter", zitter_cfg, "outputs", lambda cfg: cfg.update(outputs={"snapshots": [0]})),
    ("evolve", evolve_cfg, "tolerance", lambda cfg: cfg.update(tolerance=1e-8)),
    ("evolve", sourced_cfg, "source.bogus", lambda cfg: cfg["source"].update(bogus=1)),
], ids=["check-name-typo", "checks-on-zitter", "checks-on-compare-oracle", "outputs-on-zitter",
        "tolerance-on-evolve", "unknown-source-key"])
def test_key_a_command_does_not_read_exit2(tmp_path, capsys, command, make, key, edit):
    cfg = make()
    edit(cfg)
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "o"
    assert run_command(command, path, str(out)) == 2
    assert f"unknown key '{key}'" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("units", [{"c": 2.0, "hbar": 1.5}, {"hbar": 0.5}],
                         ids=["c2-hbar1.5", "hbar0.5"])
def test_electron_packet_split_with_config_units(tmp_path, units):
    # the packet is projected on the positive branch of the run's own H, so a
    # single-branch packet shows no jitter whatever c and hbar are
    cfg = {"grid": {"points": [32], "lengths": [TWO_PI]}, "mass": 1.0, "units": units,
           "duration": 6.0, "samples": 32, "expect_no_oscillation": True,
           "state": {"type": "electron_packet", "plus_weight": 1.0, "minus_weight": 0.0,
                     "k0_mode": 1}}
    out = tmp_path / "o"
    assert run_command("zitter", write_cfg(tmp_path, "cfg.json", cfg), str(out)) == 0
    assert max(json.loads((out / "zitter.json").read_text())["oscillation_amplitude"]) < 1e-12


def test_internal_fault_exit4(tmp_path, capsys, monkeypatch):
    import dirac88.cli as cli

    def broken(cfg, outdir, checks):
        raise RuntimeError("deliberate fault")

    monkeypatch.setitem(cli.COMMANDS, "verify-algebra", (broken, cli.COMMANDS["verify-algebra"][1]))
    out = tmp_path / "o"
    assert run_command("verify-algebra", write_cfg(tmp_path, "cfg.json", {}), str(out)) == 4
    assert capsys.readouterr().err == "internal error: RuntimeError: deliberate fault\n"
    assert not (out / "summary.json").exists()


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


@pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_shipped_config_runs(tmp_path, config):
    # the file name starts with the command it is for
    command = {"verify": "verify-algebra", "zitter": "zitter", "evolve": "evolve",
               "compare": "compare-oracle", "boost": "boost-demo"}[config.stem.split("_")[0]]
    assert run_command(command, str(config), str(tmp_path / "o")) == 0


def readme_key_tables():
    """command -> the keys of the README tables whose heading names it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tables, commands = {}, []
    for line in readme.splitlines():
        if line.startswith("#### "):
            commands = line.split("`")[1::2]
        elif line.startswith("| `") and commands:
            key = line.split("`")[1]
            for command in commands:
                tables.setdefault(command, []).append(key)
        elif line.startswith("#"):
            commands = []
    return tables


def test_readme_tables_list_the_schema_keys():
    from dirac88.cli import COMMANDS
    tables = readme_key_tables()
    assert set(tables) == set(COMMANDS)
    for command, (_, table) in COMMANDS.items():
        assert sorted(tables[command]) == sorted(table), command
