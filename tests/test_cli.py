import ast
import hashlib
import json
import os
import subprocess
import sys
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


def test_evolve_continuity_violation_exit1(tmp_path, capsys, monkeypatch):
    # the fault is planted on the built source: a current with no charge
    import functools
    from dirac88 import states
    build = states.gaussian_dipole_current

    @functools.wraps(build)   # the config's keys are matched to its signature
    def chargeless(*args, **kwargs):
        source = build(*args, **kwargs)
        source.rho_amp = np.zeros(source.grid.shape)
        return source

    monkeypatch.setattr(states, "gaussian_dipole_current", chargeless)
    cfg = evolve_cfg(samples=8)
    cfg["source"] = {"type": "gaussian_dipole", "direction": [0, 0, 1],
                     "amplitude": 1.0, "sigma": 0.4, "omega": 2.0}
    cfg["state"] = {"type": "standing_wave", "mode": 0}
    # a standing wave of mode 0 is invalid; use zero-amplitude travelling wave
    cfg["state"] = {"type": "travelling_wave", "mode": 1, "amplitude": 0.0}
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert run_command("evolve", path, str(out)) == 1
    summary = read_summary(out)
    failing = [row for row in summary["checks"] if not row["pass"]]
    assert failing and "ConstraintViolation" in failing[0]["name"]


def test_gauss_violation_of_a_sourced_run_is_one_failure_row(tmp_path, monkeypatch):
    # the constraint check runs in the pass, and a violation is still one failure row
    from dirac88 import states
    from dirac88.fields import EMField, embed_em

    def divergent(grid):
        e = np.zeros(grid.shape + (3,), dtype=complex)
        e[..., 2] = np.sin(grid.positions()[..., 2])
        return embed_em(EMField(grid, e, np.zeros_like(e)))

    monkeypatch.setattr(states, "zero_field", divergent)
    cfg = {**evolve_cfg(samples=8), "grid": {"points": [64], "lengths": [TWO_PI]},
           "duration": 1.0, "state": {"type": "zero_field"}, "checks": {"constraint": 1e-10},
           "source": {"type": "uniform_current", "direction": [0, 1, 0], "amplitude": 0.0,
                      "omega": 1.0}}
    out = tmp_path / "out"
    assert run_command("evolve", write_cfg(tmp_path, "cfg.json", cfg), str(out)) == 1
    assert read_summary(out)["checks"] == [{
        "name": "ConstraintViolation", "paper_anchor": "run-time invariant", "deviation": None,
        "tolerance": 0.0, "pass": False,
        "error": "constrained components reached 1.424e-01 at t = 0.142857; check source "
                 "continuity and the Gauss law of the initial data"}]


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


@pytest.mark.parametrize("points, mode", [([64], 3), ([16, 16, 16], [1, 2, 0])])
def test_compare_oracle_runs_a_complex_wave(tmp_path, points, mode):
    # the classical solver is linear, so it evolves the complex embedded fields
    # of a circularly polarised wave as they are: no reality check refuses them
    cfg = {"grid": {"points": points, "lengths": [TWO_PI] * len(points)}, "duration": 2.0,
           "samples": 9, "state": {"type": "circular_analytic", "mode": mode},
           "tolerance": 1e-12}
    out = tmp_path / "out"
    assert run_command("compare-oracle", write_cfg(tmp_path, "cfg.json", cfg), str(out)) == 0
    row = read_summary(out)["checks"][0]
    assert row["pass"] and row["deviation"] <= 1e-12


def test_compare_oracle_refuses_a_broken_constraint(tmp_path, monkeypatch):
    # the initial fields still need components 0 and 4 to vanish
    import functools
    from dirac88 import states
    wave = states.travelling_wave

    @functools.wraps(wave)   # the config keys follow its signature
    def broken(*args, **kwargs):
        psi = wave(*args, **kwargs)
        psi.values[3, 0] = 1e-6
        return psi

    monkeypatch.setattr(states, "travelling_wave", broken)
    cfg = {"grid": {"points": [16], "lengths": [TWO_PI]}, "duration": 1.0, "samples": 4,
           "state": {"type": "travelling_wave", "mode": 1}}
    out = tmp_path / "out"
    assert run_command("compare-oracle", write_cfg(tmp_path, "cfg.json", cfg), str(out)) == 1
    row = read_summary(out)["checks"][0]
    assert row["name"] == "ConstraintViolation" and "reach 1.000e-06" in row["error"]


SHIPPED_COMPARE_ORACLE = Path(__file__).resolve().parents[1] / "configs" / "compare_oracle.json"


def test_compare_oracle_shipped_config_measures_oracle_quadrature(tmp_path):
    # both routes integrate the source in closed form, each its own way, so the
    # sourced deviation is round-off
    out = tmp_path / "out"
    assert run_command("compare-oracle", str(SHIPPED_COMPARE_ORACLE), str(out)) == 0
    row = read_summary(out)["checks"][0]
    assert row["deviation"] <= 1e-13


def test_compare_oracle_routes_share_no_source_integral(tmp_path, monkeypatch):
    # a fault in either route's source integral moves that route alone, so the
    # shipped row reads it
    import dirac88.evolution as evolution
    import dirac88.oracle as oracle
    kernels, integrals = evolution._duhamel_kernels, oracle._source_integrals

    def scaled_kernel(*args):
        cc, cr, r = kernels(*args)
        return cc * (1.0 + 1e-6), cr, r

    monkeypatch.setattr(evolution, "_duhamel_kernels", scaled_kernel)
    out = tmp_path / "kernel"
    assert run_command("compare-oracle", str(SHIPPED_COMPARE_ORACLE), str(out)) == 1
    row = read_summary(out)["checks"][0]
    assert not row["pass"] and row["deviation"] > row["tolerance"]
    monkeypatch.setattr(evolution, "_duhamel_kernels", kernels)

    def flipped_d(*args):
        a, bd = integrals(*args)
        return a, bd * np.array([1.0, -1.0]).reshape((2,) + (1,) * (bd.ndim - 1))

    monkeypatch.setattr(oracle, "_source_integrals", flipped_d)
    out = tmp_path / "integrals"
    assert run_command("compare-oracle", str(SHIPPED_COMPARE_ORACLE), str(out)) == 1
    assert read_summary(out)["checks"][0]["deviation"] >= 1e-2


@pytest.mark.parametrize("amplitude", [1.0, 1e-12])
def test_compare_oracle_verdict_does_not_scale_with_the_amplitude(tmp_path, monkeypatch,
                                                                  amplitude):
    # an oracle that turns its fields backwards is wrong at any amplitude; the
    # row reads the deviation relative to the oracle field's RMS
    import dirac88.oracle as oracle
    rotate = oracle._rotate
    monkeypatch.setattr(oracle, "_rotate", lambda par, perp, crossed, cos_a, sin_a, *out:
                        rotate(par, perp, crossed, cos_a, -sin_a, *out))
    cfg = {"grid": {"points": [16], "lengths": [TWO_PI]}, "duration": 2.0, "samples": 8,
           "state": {"type": "travelling_wave", "mode": 1, "amplitude": amplitude},
           "tolerance": 1e-10}
    out = tmp_path / "out"
    assert run_command("compare-oracle", write_cfg(tmp_path, "cfg.json", cfg), str(out)) == 1
    rep = json.loads((out / "compare.json").read_text())
    assert read_summary(out)["checks"][0]["deviation"] == max(rep["rel_e"], rep["rel_b"]) > 1.0


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


def test_series_csv_headers_and_line_ends(tmp_path):
    # one writer, whose line end is LF for samples.csv and CRLF for
    # angular_momentum.csv; every value is %.17g, which round-trips a double
    out = tmp_path / "out"
    assert run_command("evolve", write_cfg(tmp_path, "cfg.json", angular_evolve_cfg(5)),
                       str(out)) == 0
    for name, header, end in [("samples.csv", "t,norm,energy,alpha_x,alpha_y,alpha_z", b"\n"),
                              ("angular_momentum.csv", "t,Lx,Ly,Lz,Sx,Sy,Sz,Jx,Jy,Jz", b"\r\n")]:
        data = (out / name).read_bytes()
        lines = data.split(end)
        assert lines[0] == header.encode() and lines[-1] == b"" and len(lines) == 7, name
        assert data.count(b"\n") == 6 and data.count(b"\r") == (6 if end == b"\r\n" else 0)
        for line in lines[1:-1]:
            assert all(f"{float(x):.17g}".encode() == x for x in line.split(b","))


def test_angular_momentum_csv(tmp_path):
    # the writer of both series CSVs, on a run's <L>, <S> and <J>
    from dirac88 import states
    from dirac88.cli import _write_series_csv
    from dirac88.evolution import run_free
    from dirac88.fields import GridSpec
    from dirac88.spin import angular_momentum_series
    run = run_free(states.circular_wave_analytic(GridSpec((16,), (TWO_PI,)), 1, +1),
                   np.linspace(0.0, 1.0, 17))
    path = tmp_path / "angular_momentum.csv"
    _write_series_csv(path, run.times, *angular_momentum_series(run))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,Lx,Ly,Lz,Sx,Sy,Sz,Jx,Jy,Jz"
    assert len(lines) == 18 and all(len(line.split(",")) == 10 for line in lines)


def test_zitter_no_oscillation_path(tmp_path):
    cfg = {
        "grid": {"points": [64], "lengths": [TWO_PI]},
        "mass": 0.0,
        "duration": 2.0,
        "samples": 24,
        "state": {"type": "circular_analytic", "mode": 3, "helicity": -1},
        "tolerance": 1e-12,
    }
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert run_command("zitter", path, str(out)) == 0
    zit = json.loads((out / "zitter.json").read_text())
    assert max(zit["oscillation_amplitude"]) < 1e-12


NO_OSCILLATION = "no oscillation for a single energy branch"
FREQUENCY = "fitted jitter frequency = doubled mode frequency"


@pytest.mark.parametrize("grid, keys, row, tolerance", [
    ([16], {"mass": 1.0, "duration": 9.0, "samples": 160, "state": {
        "type": "electron_rest_mix", "plus_weight": 1.0, "minus_weight": 0.0}}, NO_OSCILLATION, 1e-12),
    ([64], {"duration": 6.0, "samples": 64, "series": "point",
            "state": {"type": "circular_analytic", "mode": 2}}, NO_OSCILLATION, 1e-12),
    ([16], {"mass": 1.0, "duration": 9.0, "samples": 160,
            "state": {"type": "electron_rest_mix"}}, FREQUENCY, 1e-6),
    ([16], {"mass": 1.0, "duration": 9.0, "samples": 160, "tolerance": 1e-3, "state": {
        "type": "electron_rest_mix", "plus_weight": 1.0, "minus_weight": 0.0}}, NO_OSCILLATION, 1e-3),
], ids=["single-branch-rest-mix", "circular-point", "two-branch-rest-mix", "given-tolerance"])
def test_zitter_row_follows_the_branches(tmp_path, grid, keys, row, tolerance):
    # a state with an interference line gets the frequency row, one without it the
    # no-oscillation row: nothing passes the frequency row with nothing fitted
    cfg = {"grid": {"points": grid, "lengths": [TWO_PI]}, **keys}
    out = tmp_path / "out"
    assert run_command("zitter", write_cfg(tmp_path, "cfg.json", cfg), str(out)) == 0
    rows = read_summary(out)["checks"]
    assert [(r["name"], r["tolerance"]) for r in rows] == [(row, tolerance)]
    assert bool(json.loads((out / "zitter.json").read_text())["lines"]) == (row == FREQUENCY)


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
        "kernel": fields._Moments,
        "energy": evolution.energy_expectation_series,
        "alpha": evolution.alpha_expectation_series,
        "angular": spin.angular_momentum_series,
    })
    path = write_cfg(tmp_path, "cfg.json", angular_evolve_cfg(samples=12))
    out = tmp_path / "out"
    assert run_command("evolve", path, str(out)) == 0
    assert calls == {"kernel": 1, "energy": 1, "alpha": 1, "angular": 1}
    assert (out / "angular_momentum.csv").exists()


def test_an_angular_evolve_on_a_3d_grid_builds_one_moments_record(tmp_path, monkeypatch):
    # evolve asks its one pass for <L> up front, so reading <L> starts no second pass
    import dirac88.fields as fields
    calls = count_calls(monkeypatch, {"kernel": fields._Moments})
    cfg = {
        "grid": {"points": [8, 8, 16], "lengths": [TWO_PI, 5.0, 9.0]},
        "mass": 2.0,
        "duration": 0.5,
        "samples": 5,
        "state": {"type": "electron_packet", "sigma": 0.45, "k0_mode": [1, 0, 1]},
        "checks": {"norm_drift": 1e-10, "energy_drift": 1e-10},
        "series": "angular_momentum",
    }
    out = tmp_path / "out"
    assert run_command("evolve", write_cfg(tmp_path, "cfg.json", cfg), str(out)) == 0
    assert calls == {"kernel": 1}
    assert len((out / "angular_momentum.csv").read_text().splitlines()) == 6


def test_config_hash_is_the_sha256_of_the_canonical_config(tmp_path):
    cfg = {"grid": {"points": [16], "lengths": [TWO_PI]}, "duration": 1.0, "samples": 4,
           "state": {"type": "travelling_wave", "mode": 1, "amplitude": 0.5}}
    out = tmp_path / "out"
    assert run_command("evolve", write_cfg(tmp_path, "cfg.json", cfg), str(out)) == 0
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    assert read_summary(out)["config_hash"] == hashlib.sha256(canonical).hexdigest()


def test_importing_the_cli_loads_neither_openssl_nor_argparse():
    # the config digest comes from the interpreter's built-in sha256, and main()
    # imports argparse for itself
    import dirac88
    src = str(Path(dirac88.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, dirac88.cli; print(sorted({'_hashlib', 'argparse'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"


def test_cli_imports_no_private_names():
    # the commands read a run only through the library's public views
    import dirac88.cli
    tree = ast.parse(Path(dirac88.cli.__file__).read_text())
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_cli_does_no_spectral_work():
    # the t = 0 spectrum comes from run.branches; transforms live in the library
    import dirac88.cli
    tree = ast.parse(Path(dirac88.cli.__file__).read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    spectral = {"fft", "ifft", "fftn", "ifftn", "omega_k", "wave_vectors", "_omega_scale"}
    assert names & spectral == set()


def packet_cfg(points, samples):
    # the free3d-conservation packet on a smaller grid
    return {
        "grid": {"points": points, "lengths": [TWO_PI] * len(points)},
        "mass": 25.0, "duration": 10 * TWO_PI / 50.0, "samples": samples,
        "state": {"type": "electron_packet", "sigma": TWO_PI / 16, "k0_mode": [1, 0, 2],
                  "minus_weight": 0.7},
        "checks": {"norm_drift": 1e-8, "energy_drift": 1e-8},
        "series": "angular_momentum",
    }


def test_evolve_keeps_no_stack_of_a_free_run(tmp_path):
    import tracemalloc
    samples, points = 41, [16, 16, 16]
    stack_bytes = samples * 16 ** 3 * 8 * 16
    path = write_cfg(tmp_path, "cfg.json", packet_cfg(points, samples))
    tracemalloc.start()
    try:
        assert run_command("evolve", path, str(tmp_path / "out")) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stack_bytes / 3, (peak, stack_bytes)


def test_snapshots_add_less_than_a_mebibyte_to_an_evolve(tmp_path):
    # a snapshot is written from the pass's own sample a block of rows at a time,
    # so it adds one CSV block to the pass and no copy of the field
    import tracemalloc
    samples = 9

    def peak(snapshots):
        cfg = {"grid": {"points": [16, 16, 16], "lengths": [TWO_PI] * 3}, "duration": 1.0,
               "samples": samples, "checks": {"constraint": 1e-10},
               "state": {"type": "travelling_wave", "mode": [0, 1, 2], "polarisation": "x"},
               "outputs": {"snapshots": snapshots}}
        path = write_cfg(tmp_path, f"cfg-{len(snapshots)}.json", cfg)
        tracemalloc.start()
        try:
            assert run_command("evolve", path, str(tmp_path / f"out-{len(snapshots)}")) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    plain, written = peak([]), peak(list(range(samples)))
    assert len(list((tmp_path / f"out-{samples}").glob("fields-*.csv"))) == samples
    assert written <= plain + 2 ** 20, (plain, written)


def test_a_failing_snapshot_leaves_no_file(tmp_path, monkeypatch):
    # E with an imaginary part fails the snapshot's reality check, which runs
    # before the file is opened: the run fails on one row and writes no field file
    import functools
    from dirac88 import states
    wave = states.travelling_wave

    @functools.wraps(wave)   # the config keys follow its signature
    def complex_e(*args, **kwargs):
        psi = wave(*args, **kwargs)
        psi.values[..., 1:4] *= 1.0 + 1e-3j
        return psi

    monkeypatch.setattr(states, "travelling_wave", complex_e)
    cfg = {**evolve_cfg(samples=4), "outputs": {"snapshots": [0, -1]}}
    out = tmp_path / "out"
    assert run_command("evolve", write_cfg(tmp_path, "cfg.json", cfg), str(out)) == 1
    rows = [row for row in read_summary(out)["checks"] if not row["pass"]]
    assert [row["name"] for row in rows] == ["ConstraintViolation"]
    assert "imaginary residue" in rows[0]["error"]
    assert (out / "samples.csv").exists()
    assert list(out.glob("fields-*")) == []


def test_compare_oracle_reads_the_run_one_sample_at_a_time(tmp_path):
    # both routes form one sample at a time, so compare-oracle's memory is flat in
    # the sample count and within twice evolve's on the same run
    import tracemalloc

    def peak(command, samples, **keys):
        cfg = {"grid": {"points": [16, 16, 16], "lengths": [TWO_PI] * 3}, "duration": 2.0,
               "samples": samples, **keys,
               "state": {"type": "travelling_wave", "mode": [1, 0, 2], "polarisation": "y"}}
        path = write_cfg(tmp_path, f"{command}-{samples}.json", cfg)
        tracemalloc.start()
        try:
            assert run_command(command, path, str(tmp_path / f"{command}-{samples}")) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = (peak("compare-oracle", n, tolerance=1e-10) for n in (11, 41))
    assert abs(many - few) <= 0.1 * few, (few, many)
    assert many <= 2 * peak("evolve", 41), many


@pytest.mark.parametrize("command", ["evolve", "zitter", "evolve-sourced"])
def test_a_command_forms_each_free_sample_once(tmp_path, monkeypatch, command):
    import dirac88.evolution as evolution
    formed = []
    form_blocks = evolution.EvolutionRun._formed

    def counted(*args, **kwargs):
        for block in form_blocks(*args, **kwargs):
            formed.append(len(block))
            yield block

    monkeypatch.setattr(evolution.EvolutionRun, "_formed", counted)
    sourced = {**evolve_cfg(samples=9), "state": {"type": "zero_field"},
               "source": {"type": "gaussian_dipole", "direction": [0, 1, 0], "amplitude": 1.0,
                          "sigma": 0.4, "omega": 2.0},
               "checks": {"constraint": 1e-10}, "outputs": {"snapshots": [0, -1]}}
    cfg = {"evolve": packet_cfg([8, 8, 16], 7),
           "zitter": {**zitter_point_cfg([5]), "duration": 4.0, "samples": 32},
           "evolve-sourced": sourced}[command]
    path = write_cfg(tmp_path, "cfg.json", cfg)
    assert run_command(command.split("-")[0], path, str(tmp_path / "out")) == 0
    # one pass forms each sample; <L>'s width warning reads sample 0's density
    # from it, the jitter analysis reads the run's t = 0 branches, and a sourced
    # sample's constraint check runs as the pass forms it
    assert sum(formed) == cfg["samples"]


def snapshot_cfg():
    cfg = evolve_cfg(samples=6)
    cfg["grid"] = {"points": [8, 8, 16], "lengths": [TWO_PI, 5.0, 9.0]}
    cfg["state"] = {"type": "travelling_wave", "mode": [1, 0, 2], "polarisation": "y"}
    cfg["outputs"] = {"snapshots": [0, 3, -1, 5]}
    return cfg


def test_evolve_writes_snapshots_without_stacking_the_run(tmp_path, monkeypatch):
    # the snapshots are written from the one pass: no sample is formed twice
    import dirac88.evolution as evolution
    formed = []
    form_blocks = evolution.EvolutionRun._formed

    def counted(*args, **kwargs):
        for block in form_blocks(*args, **kwargs):
            formed.append(len(block))
            yield block

    monkeypatch.setattr(evolution.EvolutionRun, "_formed", counted)
    path = write_cfg(tmp_path, "cfg.json", snapshot_cfg())
    out = tmp_path / "out"
    assert run_command("evolve", path, str(out)) == 0
    assert sum(formed) == snapshot_cfg()["samples"]
    rows = read_summary(out)["checks"]
    assert [row["name"] for row in rows][-1] == "constrained components stay zero"
    assert sorted(p.name for p in out.glob("fields-*.csv")) == ["fields-0.csv", "fields-3.csv",
                                                                 "fields-5.csv"]


def test_snapshot_checks_read_the_sizes_of_the_pass(tmp_path, monkeypatch):
    # a snapshot's checks read the residue and largest |psi| that the pass took of
    # its sample: with a snapshot at every sample (one per time block on 8x8x16),
    # |psi| is read once per sample, and _scan runs for none
    import dirac88.fields as fields_module
    calls = {"_scan": 0, "_sizes": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(fields_module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(fields_module, name, counted)
    cfg = {**snapshot_cfg(), "outputs": {"snapshots": list(range(snapshot_cfg()["samples"]))}}
    out = tmp_path / "out"
    assert run_command("evolve", write_cfg(tmp_path, "cfg.json", cfg), str(out)) == 0
    assert calls == {"_scan": 0, "_sizes": cfg["samples"]}
    assert len(list(out.glob("fields-*.csv"))) == cfg["samples"]


def test_snapshots_of_the_pass_equal_snapshots_of_one_sample(tmp_path):
    from dirac88 import cli
    from dirac88.fields import extract_em, save_em_csv
    cfg = snapshot_cfg()
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert run_command("evolve", path, str(out)) == 0
    run, _, _ = cli._run_from_config(cli._checked_config(cli.COMMANDS["evolve"][1], cfg))
    for i in (0, 3, 5):
        save_em_csv(tmp_path / f"ref-{i}.csv", extract_em(run.sample(i), tol=1e-6))
        for suffix in ("", ".json"):
            assert ((out / f"fields-{i}.csv{suffix}").read_bytes()
                    == (tmp_path / f"ref-{i}.csv{suffix}").read_bytes())


def test_zitter_decompose_splits_the_state_once(monkeypatch):
    import dirac88.evolution as evolution
    from dirac88 import states
    from dirac88.fields import GridSpec
    run = evolution.run_free(states.electron_rest_mix(GridSpec((16,), (TWO_PI,)), mass=1.0),
                             np.linspace(0.0, 9.0, 32))
    calls = count_calls(monkeypatch, {"split": evolution.mode_decomposition,
                                      "core": evolution._Spectral})
    # a run already holds its t = 0 branches
    report = evolution.zitter_decompose(run)
    assert calls == {"split": 0, "core": 0}
    assert report.relative_frequency_error < 1e-6


def test_evolve_sourced_builds_one_spectral_core(monkeypatch):
    import dirac88.evolution as evolution
    from dirac88 import states
    from dirac88.fields import GridSpec
    g = GridSpec((32,), (TWO_PI,))
    src = states.gaussian_dipole_current(g, [0, 1, 0], 1.0, 0.4, 2.0)
    calls = count_calls(monkeypatch, {"core": evolution._Spectral})
    run = evolution.evolve_sourced(states.zero_field(g), src, np.linspace(0.0, 1.0, 5))
    assert calls == {"core": 1}
    assert run.n_samples == 5


def test_evolve_diagnostics_one_axis_transform_per_grid_axis(tmp_path, monkeypatch):
    import contextlib
    import dirac88.evolution as evolution
    counts = {"fft": 0, "ifft": 0, "fftn": 0, "ifftn": 0}
    form_blocks = evolution.EvolutionRun._formed

    @contextlib.contextmanager
    def counting():
        with pytest.MonkeyPatch.context() as mp:
            for name in counts:
                def wrapper(*a, _name=name, _fn=getattr(np.fft, name), **k):
                    counts[_name] += 1
                    return _fn(*a, **k)
                mp.setattr(np.fft, name, wrapper)
            yield

    def counted_samples(*args, **kwargs):
        # the transforms that form and measure each block: the pass's
        # _Moments.add runs within _formed
        samples = form_blocks(*args, **kwargs)
        while True:
            with counting():
                item = next(samples, None)
            if item is None:
                return
            yield item

    monkeypatch.setattr(evolution.EvolutionRun, "_formed", counted_samples)
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
    # forming and measuring a sample with <L> takes 2 ndim - 1 = 5 one-axis
    # transforms: the kinetic sums and rk along axis 0 read the stages of the
    # inverse transform, and rk along each other axis takes one forward transform
    assert counts == {"fft": 2 * samples, "ifft": 3 * samples, "fftn": 0, "ifftn": 0}
    assert len((out / "angular_momentum.csv").read_text().splitlines()) == samples + 1
    # without <L>, ndim = 3: the pass makes no forward transform
    del cfg["series"]
    counts.update(dict.fromkeys(counts, 0))
    assert run_command("evolve", write_cfg(tmp_path, "cfg.json", cfg), str(out)) == 0
    assert counts == {"fft": 0, "ifft": 3 * samples, "fftn": 0, "ifftn": 0}


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
    ("units.c", lambda cfg: cfg.update(units={"c": 0})),
    ("c", lambda cfg: cfg.update(units={"c": float("nan")})),
    ("units.hbar", lambda cfg: cfg.update(units={"hbar": -1.0})),
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


def failed_rows(outdir):
    """(name, deviation) of each failed row of a summary.json read as strict JSON."""
    def reject(token):
        raise ValueError(f"non-finite {token} in summary.json")

    rows = json.loads((outdir / "summary.json").read_text(), parse_constant=reject)["checks"]
    return [(row["name"], row["deviation"]) for row in rows if not row["pass"]]


def test_summary_is_strict_json(tmp_path, capsys, monkeypatch):
    import dirac88.evolution as evolution
    kernel = evolution._Moments.add

    def nan_energies(moments, s, *args, **kwargs):
        kernel(moments, s, *args, **kwargs)
        moments.kinetic[s] = np.nan

    monkeypatch.setattr(evolution._Moments, "add", nan_energies)
    path = write_cfg(tmp_path, "cfg.json", evolve_cfg(samples=8))
    out = tmp_path / "o"
    assert run_command("evolve", path, str(out)) == 1
    assert "summary.json" not in capsys.readouterr().err
    assert failed_rows(out) == [("energy conservation", None), ("finite diagnostics", None)]


def test_nan_sample_fails_drift_checks(tmp_path, capsys, monkeypatch):
    import dirac88.evolution as evolution
    kernel = evolution._Moments.add

    def nan_last_norm(moments, s0, block, *args, **kwargs):
        kernel(moments, s0, block, *args, **kwargs)
        if s0 + len(block) == len(moments.norms):
            moments.norms[-1] = np.nan

    monkeypatch.setattr(evolution._Moments, "add", nan_last_norm)
    path = write_cfg(tmp_path, "cfg.json", evolve_cfg(samples=8))
    out = tmp_path / "o"
    assert run_command("evolve", path, str(out)) == 1
    assert "summary.json" not in capsys.readouterr().err
    assert failed_rows(out)[0] == ("norm conservation", None)


def sourced_cfg():
    cfg = evolve_cfg(samples=8)
    cfg["state"] = {"type": "zero_field"}
    cfg["source"] = {"type": "gaussian_dipole", "direction": [0, 1, 0],
                     "amplitude": 1.0, "sigma": 0.4, "omega": 2.0}
    cfg["substeps"] = 8
    return cfg


def compare_cfg():
    cfg = sourced_cfg()
    del cfg["checks"]
    cfg["tolerance"] = 1e-8
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
    ("evolve", evolve_cfg, "series", lambda cfg: cfg.update(series="angular_momentun")),
    ("zitter", zitter_cfg, "series", lambda cfg: cfg.update(series="pointt")),
    ("zitter", zitter_cfg, "state.type", lambda cfg: cfg.update(state={"type": "zero_field"})),
    # a type outside the command's domain is named before the keys it does not read
    ("zitter", zitter_cfg, "state.type",
     lambda cfg: cfg.update(state={"type": "zero_field", "amplitude": 1.0})),
    ("compare-oracle", compare_cfg, "state.type", lambda cfg: (
        cfg.pop("source"), cfg.update(mass=1.0, state={"type": "electron_packet", "mode": 1}))),
    ("zitter", zitter_cfg, "state.amplitude",
     lambda cfg: cfg.update(state={"type": "travelling_wave", "mode": 1, "amplitude": 0})),
    *(("evolve", evolve_cfg, "state.mode", lambda cfg, wave=wave: cfg.update(
        state={"type": wave, "mode": 0})) for wave in ("travelling_wave", "standing_wave",
                                                        "circular_analytic")),
    ("evolve", evolve_cfg, "state.polarisation", lambda cfg: cfg["state"].update(polarisation="z")),
    ("zitter", zitter_cfg, "mass", lambda cfg: cfg.update(mass=0)),
    # the photon states take no mass: a given one is refused, never dropped
    ("evolve", evolve_cfg, "mass", lambda cfg: cfg.update(mass=1.0)),
    ("zitter", zitter_cfg, "mass", lambda cfg: cfg.update(state={"type": "travelling_wave"})),
    ("compare-oracle", compare_cfg, "mass", lambda cfg: cfg.update(mass=1.0)),
    # the classical solver evolves fields, so an electron state has nothing to compare
    *(("compare-oracle", compare_cfg, "state.type", lambda cfg, kind=kind: (
        cfg.pop("source"), cfg.update(mass=1.0, state={"type": kind})))
      for kind in ("electron_packet", "electron_rest_mix")),
    # a snapshot writes real fields, and the circular wave's are complex
    ("evolve", evolve_cfg, "outputs.snapshots", lambda cfg: cfg.update(
        state={"type": "circular_analytic", "mode": 2}, outputs={"snapshots": [0]})),
], ids=["substeps-zero", "substeps-odd", "duration-nan", "mass-nan", "state-amplitude-nan",
        "checks-tolerance-nan", "source-amplitude-nan", "source-omega-nan", "source-sigma-nan",
        "tolerance-nan", "velocity-light", "velocity-nan", "e-short", "boost-tolerance-nan",
        "helicity-string", "polarisation-unknown", "weights-zero", "weight-nan",
        "source-center-string", "state-center-nan", "direction-nan", "k0-mode-string",
        "k0-mode-float", "helicity-bool", "check-tolerance-bool",
        "evolve-series-unknown", "zitter-series-unknown",
        "zitter-zero-field", "zitter-zero-field-with-amplitude",
        "electron-packet-with-mode-compare-oracle", "zitter-zero-amplitude", "travelling-mode-zero",
        "standing-mode-zero", "circular-mode-zero", "polarisation-along-mode",
        "rest-mix-massless", "photon-mass-evolve", "photon-mass-zitter",
        "photon-mass-compare-oracle", "electron-packet-compare-oracle",
        "electron-rest-mix-compare-oracle", "snapshots-of-circular-wave"])
def test_config_value_exit2(tmp_path, capsys, command, make, key, edit):
    cfg = make()
    edit(cfg)
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "o"
    assert run_command(command, path, str(out)) == 2
    assert f"{key} must be" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def wave_cfg(mode, **extra):
    return {**evolve_cfg(samples=8), "grid": {"points": [256], "lengths": [TWO_PI]},
            "state": {"type": "travelling_wave", "mode": mode}, **extra}


@pytest.mark.parametrize("command, key, cfg", [
    ("evolve", "state.mode", wave_cfg(200)),
    ("evolve", "state.mode", wave_cfg([-128])),
    ("evolve", "state.mode", wave_cfg(128, outputs={"snapshots": [0]})),
    ("zitter", "state.mode", {**zitter_cfg(), "grid": {"points": [4], "lengths": [TWO_PI]},
                              "mass": 0.0, "state": {"type": "travelling_wave", "mode": 2}}),
    ("evolve", "state.k0_mode", {**packet_cfg([8, 8, 16], 4), "state": {
        "type": "electron_packet", "sigma": 0.5, "k0_mode": [1, -4, 2]}}),
], ids=["mode-200-of-256", "mode-minus-half", "mode-half-with-snapshot", "zitter-mode-half",
        "k0-mode-half"])
def test_a_mode_at_or_past_half_the_grid_exit2(tmp_path, capsys, command, key, cfg):
    # such a mode aliases: 200 of 256 would run as -56, and 128 lands whole in the minus branch
    out = tmp_path / "o"
    assert run_command(command, write_cfg(tmp_path, "cfg.json", cfg), str(out)) == 2
    assert f"{key} must be below half the points" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_norm_samples_have_zero_expectations(tmp_path, capsys):
    cfg = {"grid": {"points": [16], "lengths": [TWO_PI]}, "duration": 1.0, "samples": 5,
           "state": {"type": "zero_field"}, "series": "angular_momentum",
           "checks": {"norm_drift": 1e-8, "angular_momentum_drift": 1e-12}}
    out = tmp_path / "evolve"
    assert run_command("evolve", write_cfg(tmp_path, "evolve.json", cfg), str(out)) == 0
    rows = (out / "angular_momentum.csv").read_text().splitlines()[1:]
    assert len(rows) == 5 and all(float(x) == 0.0 for row in rows for x in row.split(",")[1:])
    assert all(row["pass"] for row in read_summary(out)["checks"])
    # zitter analyses free runs only, so a driven zero state cannot pass a check
    # with nothing fitted
    cfg = {**zitter_cfg(), "mass": 0.0, "state": {"type": "zero_field"},
           "source": {"type": "gaussian_dipole", "direction": [0, 1, 0], "sigma": 0.4}}
    out = tmp_path / "zitter"
    assert run_command("zitter", write_cfg(tmp_path, "zitter.json", cfg), str(out)) == 2
    assert "unknown key 'source'" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_zitter_too_short_run_records_fit_error(tmp_path):
    # the dominant line 2ck = 2 needs a run of 2 pi; FitError is a failed row
    cfg = {"grid": {"points": [16], "lengths": [TWO_PI]}, "duration": 0.5, "samples": 16,
           "state": {"type": "standing_wave", "mode": 1}}
    out = tmp_path / "o"
    assert run_command("zitter", write_cfg(tmp_path, "cfg.json", cfg), str(out)) == 1
    rows = read_summary(out)["checks"]
    assert [(row["name"], row["pass"]) for row in rows] == [("FitError", False)]


def overflowing_cfg(amplitude):
    return {"grid": {"points": [16], "lengths": [TWO_PI]}, "duration": 7.0, "samples": 40,
            "state": {"type": "standing_wave", "mode": 1, "amplitude": amplitude}}


# |psi|^2 overflows, so the diagnostics are NaN: a failed run, not an internal
# error, also where numpy's RuntimeWarning is an error, as it is in this suite
@pytest.mark.parametrize("amplitude", [1e300, 1e200])
def test_zitter_of_an_overflowing_state_records_fit_error(tmp_path, amplitude):
    out = tmp_path / "o"
    path = write_cfg(tmp_path, "cfg.json", overflowing_cfg(amplitude))
    assert run_command("zitter", path, str(out)) == 1
    rows = read_summary(out)["checks"]
    assert [(row["name"], row["pass"]) for row in rows] == [("FitError", False)]
    assert "not finite" in rows[0]["error"]


@pytest.mark.parametrize("amplitude", [1e300, 1e200])
def test_evolve_of_an_overflowing_state_is_a_failed_run(tmp_path, capsys, amplitude):
    cfg = {**overflowing_cfg(amplitude), "checks": {"norm_drift": 1e-8, "energy_drift": 1e-8}}
    out = tmp_path / "o"
    assert run_command("evolve", write_cfg(tmp_path, "cfg.json", cfg), str(out)) == 1
    assert "Out of range float values" not in capsys.readouterr().err
    assert failed_rows(out) == [("norm conservation", None), ("energy conservation", None),
                                ("finite diagnostics", None)]
    errors = [row.get("error") for row in read_summary(out)["checks"]]
    assert errors[:2] == ["non-finite deviation nan"] * 2


def test_evolve_fails_a_run_whose_diagnostics_are_not_finite(tmp_path):
    # no drift check reads the norms, energies or <alpha>: the run still fails,
    # with a strict summary.json naming what samples.csv holds
    cfg = {**overflowing_cfg(1e300), "checks": {"constraint": 1e-8}}
    out = tmp_path / "o"
    assert run_command("evolve", write_cfg(tmp_path, "cfg.json", cfg), str(out)) == 1
    rows = read_summary(out)["checks"]
    failed = [row for row in rows if not row["pass"]]
    assert [row["name"] for row in failed] == ["finite diagnostics"]
    assert failed[0]["deviation"] is None
    assert "non-finite norm, energy, <alpha>" in failed[0]["error"]


# a valid config whose float squares overflow is a run, never an internal error:
# each square is a product, which gives inf where a float's ** 2 raised
# OverflowError (exit 4)
@pytest.mark.parametrize("key, edit", [
    ("mass", lambda cfg: cfg.update(mass=1e300)),
    ("units.c", lambda cfg: cfg.update(units={"c": 1e300})),
    ("units.hbar", lambda cfg: cfg.update(units={"hbar": 1e-300})),
], ids=["mass", "c", "hbar"])
def test_an_overflowing_rest_frequency_is_a_failed_run(tmp_path, key, edit):
    # m c^2 / hbar overflows by design downstream; numpy's warnings on the way are
    # not errors of the run, even where RuntimeWarning is an error, as in this suite
    cfg = zitter_cfg()
    edit(cfg)
    assert run_command("zitter", write_cfg(tmp_path, "cfg.json", cfg), str(tmp_path / "o")) == 1


def photon_overflow_cfg(command, c, duration):
    cfg = {**sourced_cfg(), "units": {"c": c}, "duration": duration}
    del cfg["checks"], cfg["substeps"]
    if command == "zitter":
        del cfg["source"]
        cfg["state"] = {"type": "standing_wave", "mode": 1}
    return cfg


# A valid config's exit code is the run's, whatever the warning filters: numpy's
# floating-point warnings are off inside a command, so a non-finite run fails its
# own rows, and the packet-width advisory is printed, never raised.
@pytest.mark.parametrize("command, cfg, code", [
    ("zitter", {**zitter_cfg(), "mass": 1e300}, 1),
    ("evolve", {**evolve_cfg(samples=8), "mass": 1.0, "units": {"hbar": 1e-300},
                "state": {"type": "electron_packet"}, "checks": {"norm_drift": 1e-8}}, 1),
    ("zitter", photon_overflow_cfg("zitter", 1e300, 1e10), 1),
    ("evolve", photon_overflow_cfg("evolve", 1e160, 1.0), 0),
    ("compare-oracle", photon_overflow_cfg("compare-oracle", 1e200, 1e300), 1),
    ("evolve", {"grid": {"points": [16, 16], "lengths": [TWO_PI, TWO_PI]}, "mass": 1.0,
                "duration": 1.0, "samples": 4, "series": "angular_momentum",
                "state": {"type": "electron_packet", "sigma": 1.5}}, 0),
], ids=["electron-mass", "electron-hbar", "photon-zitter-c", "photon-sourced-c",
        "photon-oracle-c", "wide-packet"])
def test_exit_code_does_not_depend_on_warning_filters(tmp_path, command, cfg, code):
    import warnings
    path = write_cfg(tmp_path, "cfg.json", cfg)
    for action, category in [("default", Warning), ("error", RuntimeWarning),
                             ("error", UserWarning)]:
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter(action, category)
            assert run_command(command, path, str(tmp_path / action)) == code, (action, category)
        wide = cfg.get("series") == "angular_momentum"
        assert wide == any("density RMS width" in str(w.message) for w in seen)


@pytest.mark.parametrize("command, make, edit", [
    ("evolve", evolve_cfg,
     lambda cfg: cfg.update(mass=1.0, state={"type": "electron_packet", "sigma": 1e300})),
    # a driven run checks its constraint by default
    ("evolve", sourced_cfg, lambda cfg: (cfg.pop("checks"), cfg["source"].update(sigma=1e300))),
], ids=["state-sigma", "source-sigma"])
def test_a_gaussian_of_huge_width_is_flat(tmp_path, command, make, edit):
    cfg = make()
    edit(cfg)
    assert run_command(command, write_cfg(tmp_path, "cfg.json", cfg), str(tmp_path / "o")) == 0


@pytest.mark.parametrize("tiny", [1e-300, 1e-200])
def test_electron_packet_tiny_weight_is_the_unit_weight(tmp_path, tiny):
    # only the ratio of the branch weights matters, however small they are; the
    # one-branch projection spreads over the 4x2x2 box, so <L> warns by design
    def artifacts(weight):
        cfg = {"grid": {"points": [4, 2, 2], "lengths": [4.0, 4.0, 4.0]}, "mass": 1.0,
               "duration": 1.0, "samples": 4, "series": "angular_momentum",
               "state": {"type": "electron_packet", "sigma": 0.3, "plus_weight": 0,
                         "minus_weight": weight}}
        out = tmp_path / str(weight)
        with pytest.warns(UserWarning, match="density RMS width"):
            assert run_command("evolve", write_cfg(tmp_path, f"{weight}.json", cfg),
                               str(out)) == 0
        return [(out / name).read_bytes() for name in ("samples.csv", "angular_momentum.csv")]

    assert artifacts(tiny) == artifacts(1)


@pytest.mark.parametrize("command, make, key, edit", [
    ("evolve", evolve_cfg, "checks.norm_drfit", lambda cfg: cfg.update(checks={"norm_drfit": 1e-8})),
    ("zitter", zitter_cfg, "checks", lambda cfg: cfg.update(checks={"norm_drift": 1e-30})),
    ("compare-oracle", compare_cfg, "checks", lambda cfg: cfg.update(checks={"norm_drift": 1e-30})),
    ("zitter", zitter_cfg, "outputs", lambda cfg: cfg.update(outputs={"snapshots": [0]})),
    ("evolve", evolve_cfg, "tolerance", lambda cfg: cfg.update(tolerance=1e-8)),
    ("evolve", sourced_cfg, "source.bogus", lambda cfg: cfg["source"].update(bogus=1)),
    # units are set in the units block only, so two settings of c cannot disagree
    ("evolve", evolve_cfg, "c", lambda cfg: cfg.update(units={"c": 2.0}, c=3.0)),
    ("zitter", zitter_cfg, "hbar", lambda cfg: cfg.update(hbar=1.0)),
    ("compare-oracle", compare_cfg, "c", lambda cfg: cfg.update(c=1.0)),
    # a source is its current: its charge follows by continuity and cannot be dropped
    ("evolve", sourced_cfg, "source.violate_continuity",
     lambda cfg: cfg["source"].update(violate_continuity="no")),
    ("evolve", sourced_cfg, "source.violate_continuity",
     lambda cfg: cfg["source"].update(violate_continuity=False)),
    ("compare-oracle", compare_cfg, "source.violate_continuity",
     lambda cfg: cfg["source"].update(violate_continuity=True)),
    # no command reads a seed
    ("verify-algebra", dict, "seed", lambda cfg: cfg.update(seed=1)),
    ("spin-check", dict, "seed", lambda cfg: cfg.update(seed=1)),
    ("evolve", evolve_cfg, "seed", lambda cfg: cfg.update(seed=1)),
    ("zitter", zitter_cfg, "seed", lambda cfg: cfg.update(seed=0)),
    ("boost-demo", boost_cfg, "seed", lambda cfg: cfg.update(seed=3)),
    ("compare-oracle", compare_cfg, "seed", lambda cfg: cfg.update(seed=1)),
    # zitter reads its check from the run's branches and analyses free runs only
    ("zitter", zitter_cfg, "expect_no_oscillation", lambda cfg: cfg.update(expect_no_oscillation="no")),
    ("zitter", zitter_cfg, "expect_no_oscillation", lambda cfg: cfg.update(expect_no_oscillation=True)),
    ("zitter", zitter_cfg, "source", lambda cfg: cfg.update(source={"type": "uniform_current"})),
    ("zitter", zitter_cfg, "substeps", lambda cfg: cfg.update(substeps=32)),
    # a state or source block takes only the keys its type reads
    ("evolve", evolve_cfg, "state.helicity", lambda cfg: cfg["state"].update(helicity=-1)),
    ("evolve", evolve_cfg, "state.sigma", lambda cfg: cfg["state"].update(sigma=0.3)),
    ("evolve", evolve_cfg, "state.k0_mode", lambda cfg: cfg["state"].update(k0_mode=1)),
    ("evolve", evolve_cfg, "state.plus_weight", lambda cfg: cfg["state"].update(plus_weight=1.0)),
    ("evolve", evolve_cfg, "state.polarisation", lambda cfg: cfg.update(
        state={"type": "circular_analytic", "mode": 2, "polarisation": "y"})),
    *(("evolve", evolve_cfg, f"state.{name}", lambda cfg, name=name, value=value: cfg.update(
        mass=1.0, state={"type": "electron_packet", name: value}))
      for name, value in (("mode", [1]), ("amplitude", 5.0), ("polarisation", "y"))),
    *(("evolve", evolve_cfg, f"state.{name}", lambda cfg, name=name, value=value: cfg.update(
        state={"type": "zero_field", name: value}))
      for name, value in (("amplitude", 1.0), ("mode", 1), ("polarisation", "x"),
                          ("helicity", 1), ("plus_weight", 1.0), ("minus_weight", 0.0),
                          ("sigma", 0.3), ("k0_mode", 1), ("center", [0.0]))),
    ("evolve", sourced_cfg, "source.sigma",
     lambda cfg: cfg.update(source={"type": "uniform_current", "sigma": 0.4})),
    ("compare-oracle", compare_cfg, "source.center",
     lambda cfg: cfg.update(source={"type": "uniform_current", "center": [1.0]})),
    # point_index is read only beside series "point"
    ("zitter", zitter_cfg, "point_index", lambda cfg: cfg.update(point_index=[5])),
], ids=["check-name-typo", "checks-on-zitter", "checks-on-compare-oracle", "outputs-on-zitter",
        "tolerance-on-evolve", "unknown-source-key", "c-beside-units-c", "top-level-hbar",
        "top-level-c", "violate-continuity-string", "violate-continuity-false",
        "violate-continuity-on-compare-oracle", "seed-on-verify-algebra", "seed-on-spin-check",
        "seed-on-evolve", "seed-on-zitter", "seed-on-boost-demo", "seed-on-compare-oracle",
        "no-oscillation-string", "no-oscillation-true", "source-on-zitter", "substeps-on-zitter",
        "helicity-on-travelling-wave", "sigma-on-travelling-wave", "k0-mode-on-travelling-wave",
        "plus-weight-on-travelling-wave", "polarisation-on-circular-wave",
        "mode-on-electron-packet", "amplitude-on-electron-packet",
        "polarisation-on-electron-packet", "amplitude-on-zero-field", "mode-on-zero-field",
        "polarisation-on-zero-field", "helicity-on-zero-field", "plus-weight-on-zero-field",
        "minus-weight-on-zero-field", "sigma-on-zero-field", "k0-mode-on-zero-field",
        "center-on-zero-field", "sigma-on-uniform-current", "center-on-uniform-current",
        "point-index-without-series"])
def test_key_a_command_does_not_read_exit2(tmp_path, capsys, command, make, key, edit):
    cfg = make()
    edit(cfg)
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = tmp_path / "o"
    assert run_command(command, path, str(out)) == 2
    err = capsys.readouterr().err
    block, dot, _ = key.partition(".")
    if dot and block in ("state", "source"):
        assert f"unknown key '{key}' for a '{cfg[block]['type']}' {block}\n" in err
    elif key == "point_index":
        assert 'point_index must be given only with series "point"' in err
    else:
        assert f"unknown key '{key}'\n" in err
    assert not (out / "summary.json").exists()


def test_sourced_evolve_checks_its_constraint_by_default(tmp_path):
    # a driven run conserves neither norm nor energy, so those rows are not its default
    cfg = sourced_cfg()
    del cfg["checks"]
    out = tmp_path / "o"
    assert run_command("evolve", write_cfg(tmp_path, "cfg.json", cfg), str(out)) == 0
    rows = read_summary(out)["checks"]
    assert [(row["name"], row["tolerance"]) for row in rows] == [
        ("constrained components stay zero", 1e-10)]


@pytest.mark.parametrize("units", [{"c": 2.0, "hbar": 1.5}, {"hbar": 0.5}],
                         ids=["c2-hbar1.5", "hbar0.5"])
def test_electron_packet_split_with_config_units(tmp_path, units):
    # the packet is projected on the positive branch of the run's own H, so a
    # single-branch packet shows no jitter whatever c and hbar are
    cfg = {"grid": {"points": [32], "lengths": [TWO_PI]}, "mass": 1.0, "units": units,
           "duration": 6.0, "samples": 32,
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
    command = {"verify": "verify-algebra", "spin": "spin-check", "zitter": "zitter",
               "evolve": "evolve", "compare": "compare-oracle",
               "boost": "boost-demo"}[config.stem.split("_")[0]]
    assert run_command(command, str(config), str(tmp_path / "o")) == 0
    # a row without a bound checks nothing: each is a measurement against its tolerance
    rows = read_summary(tmp_path / "o")["checks"]
    assert rows and all(type(row["tolerance"]) is float for row in rows)


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


def test_readme_library_sketch_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sketch = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(sketch, "README.md", "exec"), {})


def test_readme_tables_list_the_schema_keys():
    from dirac88.cli import COMMANDS
    tables = readme_key_tables()
    assert set(tables) == {command for command, (_, table) in COMMANDS.items() if table}
    for command, (_, table) in COMMANDS.items():
        assert sorted(tables.get(command, [])) == sorted(table), command


def typed_blocks():
    """(block, type, builder, the block's keys of the command tables beside type)."""
    import inspect

    import dirac88.cli as cli
    from dirac88 import states
    keys = {key for _, table in cli.COMMANDS.values() for key in table}
    for block, makers in (("state", cli._STATES), ("source", cli._SOURCES)):
        names = sorted(key.split(".")[1] for key in keys
                       if key.startswith(f"{block}.") and key != f"{block}.type")
        for kind, function in makers.items():
            yield block, kind, inspect.signature(getattr(states, function)).parameters, names


# a value in the domain of each state and source key
TYPED_VALUES = {"amplitude": 2.0, "mode": 1, "polarisation": "y", "helicity": -1,
                "plus_weight": 1.0, "minus_weight": 1.0, "sigma": 0.5, "k0_mode": 1,
                "center": [0.5], "direction": [0, 0, 1], "omega": 2.0}


def test_a_typed_block_takes_exactly_its_builders_parameters():
    import dirac88.cli as cli
    from dirac88.errors import ConfigError
    table = cli.COMMANDS["evolve"][1]
    for block, kind, parameters, names in typed_blocks():
        accepted = []
        for name in names:
            cfg = {**evolve_cfg(), "state": {"type": "zero_field"},
                   block: {"type": kind, name: TYPED_VALUES[name]}}
            try:
                cli._walk(table, cfg, {})
            except ConfigError as exc:
                assert str(exc) == f"unknown key '{block}.{name}' for a '{kind}' {block}"
            else:
                accepted.append(name)
        assert accepted == [name for name in names if name in parameters], kind


def test_every_typed_key_is_read_by_some_type():
    keys, reads = {}, {}
    for block, _, parameters, names in typed_blocks():
        keys[block] = set(names)
        reads.setdefault(block, set()).update(parameters)
    for block, names in keys.items():
        assert names <= reads[block], (block, names - reads[block])
