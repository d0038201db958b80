"""Seeded workload generation for the dirac88 benchmark.

A workload is a list of CLI commands with their JSON configs.  The seed
draws only state and source parameters, inside ranges where every check
of the command passes; grid sizes, sample counts and substeps are fixed
per workload, so the work done does not depend on the seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
BYTES_PER_POINT = 8 * 16  # eight complex128 components


@dataclass
class Command:
    command: str
    config: dict
    grid_points: int = 0
    samples: int = 0
    substeps: int = 0
    snapshots: int = 0
    artifacts: tuple[str, ...] = ()

    @property
    def grid_samples(self) -> int:
        return self.grid_points * self.samples


@dataclass
class Workload:
    name: str
    why: str
    seed: int
    commands: list[Command] = field(default_factory=list)
    fft_shape: tuple[int, ...] = ()

    def size(self) -> dict:
        """Problem size; bytes are computed from array shapes, not measured."""
        return {
            "commands": len(self.commands),
            "grid_points": [c.grid_points for c in self.commands],
            "samples": [c.samples for c in self.commands],
            "substeps": [c.substeps for c in self.commands],
            "snapshots": sum(c.snapshots for c in self.commands),
            "grid_samples": sum(c.grid_samples for c in self.commands),
            "computed_bytes_per_sample": max(c.grid_points for c in self.commands) * BYTES_PER_POINT,
            "computed_bytes_sample_tensor": max(c.grid_samples for c in self.commands) * BYTES_PER_POINT,
            "fft_ref_shape": list(self.fft_shape),
        }

    def write_configs(self, directory: Path) -> list[tuple[str, str, str]]:
        """Write one JSON config per command; returns (command, config, outdir)."""
        directory.mkdir(parents=True, exist_ok=True)
        jobs = []
        for i, cmd in enumerate(self.commands):
            path = directory / f"{i:02d}-{cmd.command}.json"
            path.write_text(json.dumps(cmd.config, indent=1))
            jobs.append((cmd.command, str(path), str(directory / f"out-{i:02d}-{cmd.command}")))
        return jobs


def _unit(rng: np.random.Generator) -> list[float]:
    v = rng.standard_normal(3)
    return [float(x) for x in v / np.linalg.norm(v)]


def _signed_permutation(rng: np.random.Generator, magnitudes) -> list[int]:
    return [int(m * s) for m, s in zip(rng.permutation(magnitudes), rng.choice([-1, 1], 3))]


def _dipole(rng: np.random.Generator) -> dict:
    return {
        "type": "gaussian_dipole",
        "direction": [0, 1, 0] if rng.random() < 0.5 else [1, 0, 0],
        "amplitude": float(rng.uniform(0.5, 1.5)),
        "sigma": float(TWO_PI / 16 * rng.uniform(0.95, 1.05)),
        "omega": float(rng.uniform(3.5, 4.5)),
    }


def _line(points: int) -> dict:
    return {"points": [points], "lengths": [TWO_PI]}


def configs_suite(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    w = Workload("configs-suite", "the shipped configs plus spin-check: the canonical "
                 "user traffic, many small 1-D arrays, Simpson source quadrature and oracle",
                 seed, fft_shape=(256, 8))
    w.commands.append(Command("verify-algebra", {}, artifacts=("algebra_reports.json",)))
    w.commands.append(Command("spin-check", {}, artifacts=("spin_selection.json",)))
    w.commands.append(Command("zitter", {
        "grid": _line(256), "mass": 0.0, "duration": 3.5, "samples": 64,
        "state": {"type": "standing_wave", "mode": 2,
                  "polarisation": "x" if rng.random() < 0.5 else "y",
                  "amplitude": float(rng.uniform(0.5, 2.0))},
        "series": "point", "point_index": [16], "tolerance": 1e-6,
    }, grid_points=256, samples=64, artifacts=("zitter.json", "samples.csv")))
    w.commands.append(Command("zitter", {
        "grid": _line(16), "mass": 1.0, "duration": 9.0, "samples": 160,
        "state": {"type": "electron_rest_mix", "plus_weight": float(rng.uniform(0.5, 1.5)),
                  "minus_weight": float(rng.uniform(0.5, 1.5))},
        "tolerance": 1e-6,
    }, grid_points=16, samples=160, artifacts=("zitter.json", "samples.csv")))
    w.commands.append(Command("evolve", {
        "grid": _line(256), "mass": 0.0, "duration": 3.0, "samples": 100,
        "state": {"type": "zero_field"}, "source": _dipole(rng), "substeps": 32,
        "checks": {"constraint": 1e-10}, "outputs": {"snapshots": [0, -1]},
    }, grid_points=256, samples=100, substeps=32, snapshots=2,
        artifacts=("samples.csv", "fields-0.csv", "fields-99.csv")))
    w.commands.append(Command("compare-oracle", {
        "grid": _line(256), "mass": 0.0, "duration": 3.0, "samples": 100,
        "state": {"type": "zero_field"}, "source": _dipole(rng), "substeps": 32,
        "tolerance": 1e-8,
    }, grid_points=256, samples=100, substeps=32, artifacts=("compare.json",)))
    w.commands.append(Command("boost-demo", {
        "velocity": [float(x) * float(rng.uniform(0.3, 0.8)) for x in _unit(rng)],
        "e": _unit(rng), "b": _unit(rng), "tolerance": 1e-10,
    }, artifacts=("boost.json",)))
    return w


def free3d_conservation(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    mass = 25.0
    samples = 41
    w = Workload("free3d-conservation", "32^3 electron packet, 41 samples: large-array "
                 "FFT, H-apply, propagator and diagnostics, no source and no oracle",
                 seed, fft_shape=(32, 32, 32, 8))
    w.commands.append(Command("evolve", {
        "grid": {"points": [32, 32, 32], "lengths": [TWO_PI] * 3},
        "mass": mass, "duration": 10 * TWO_PI / (2.0 * mass), "samples": samples,
        # Width, carrier and centre are fixed: the Gaussian tail at the box
        # edge and the carrier's orientation on the lattice set the
        # angular-momentum drift, so drawing them would move min_headroom by
        # up to two decades.  The seed draws the branch mixture.
        "state": {"type": "electron_packet", "sigma": TWO_PI / 16, "k0_mode": [1, 0, 2],
                  "plus_weight": 1.0, "minus_weight": float(rng.uniform(0.6, 0.8))},
        "checks": {"norm_drift": 1e-8, "energy_drift": 1e-8, "angular_momentum_drift": 1e-8},
        "series": "angular_momentum",
    }, grid_points=32 ** 3, samples=samples, artifacts=("samples.csv", "angular_momentum.csv")))
    return w


def photon3d_snapshots(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 3])
    samples = 9
    pol = ("x", "y", "z")[int(rng.integers(3))]
    mode = _signed_permutation(rng, (1, 2, 0))
    # the polarisation axis must carry no wave number
    axis = "xyz".index(pol)
    zero = mode.index(0)
    mode[axis], mode[zero] = mode[zero], mode[axis]
    w = Workload("photon3d-snapshots", "32^3 photon wave with a field snapshot at every "
                 "sample: artifact writes beside light evolution and diagnostics",
                 seed, fft_shape=(32, 32, 32, 8))
    w.commands.append(Command("evolve", {
        "grid": {"points": [32, 32, 32], "lengths": [TWO_PI] * 3},
        "mass": 0.0, "duration": float(rng.uniform(0.9, 1.1)), "samples": samples,
        "state": {"type": "travelling_wave", "mode": mode, "polarisation": pol,
                  "amplitude": float(rng.uniform(0.9, 1.1))},
        "checks": {"constraint": 1e-10, "norm_drift": 1e-8, "energy_drift": 1e-8},
        "outputs": {"snapshots": list(range(samples))},
    }, grid_points=32 ** 3, samples=samples, snapshots=samples,
        artifacts=("samples.csv",) + tuple(f"fields-{i}.csv" for i in range(samples))))
    return w


WORKLOADS = {
    "configs-suite": configs_suite,
    "free3d-conservation": free3d_conservation,
    "photon3d-snapshots": photon3d_snapshots,
}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
