import json

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


def test_evolve_diagnostics_computed_once(tmp_path, monkeypatch):
    import dirac88.cli as cli
    calls = {"angular": 0, "energy": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "angular_momentum_series", counted("angular", cli.angular_momentum_series))
    monkeypatch.setattr(cli, "energy_expectation", counted("energy", cli.energy_expectation))
    cfg = evolve_cfg(samples=12)
    cfg["state"] = {"type": "circular_analytic", "mode": 2, "helicity": 1}
    cfg["checks"] = {"norm_drift": 1e-10, "energy_drift": 1e-10, "angular_momentum_drift": 1e-8}
    cfg["series"] = "angular_momentum"
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert run_command("evolve", path, str(out)) == 0
    assert calls == {"angular": 1, "energy": 12}
    assert (out / "angular_momentum.csv").exists()


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


@pytest.mark.parametrize("point_index", [[99], [-65], [1, 2], [1.5], ["a"], 3],
                         ids=["out-of-range", "negative-out-of-range", "wrong-length",
                              "float", "string", "not-a-list"])
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
], ids=["negative-length", "nan-length", "inf-length", "c-zero", "units-c-nan",
        "hbar-negative", "units-hbar-string", "mode-string", "mode-float"])
def test_config_domain_exit2(tmp_path, capsys, key, edit):
    cfg = evolve_cfg(samples=8)
    edit(cfg)
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "o"
    assert run_command("evolve", path, str(out)) == 2
    assert f"{key} must be" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_summary_is_strict_json(tmp_path, capsys, monkeypatch):
    import dirac88.cli as cli
    monkeypatch.setattr(cli, "energy_expectation", lambda *args, **kwargs: float("nan"))
    path = write_cfg(tmp_path, "cfg.json", evolve_cfg(samples=8))
    out = tmp_path / "o"
    assert run_command("evolve", path, str(out)) == 1
    assert "summary.json" in capsys.readouterr().err
    assert not (out / "summary.json").exists()
