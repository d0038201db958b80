"""dirac88 benchmark: drives the CLI on seeded workloads.

    python3 bench/run.py --workload configs-suite --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every repetition runs ``run_command`` for
each of the workload's commands in a fresh single-threaded worker process
(``worker.py``), because every CLI user pays per-process costs: caches that
persisted between repetitions would hide work, and import-time work must
show up in ``setup_s``.  Repetitions start until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics, with wall times scaled to a
reference machine speed (``REFERENCE_S``); ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics, timed
from outside at the calls into each module's public functions
(``spans.py``).  Each command's outputs are checked; the last line of
standard output is one JSON object, and the exit code is 1 if any output
was wrong.  Full records (environment, problem size, every repetition) go
to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
RUN_LIMIT_S = 170  # a run, set-up included, ends within this
SETUP_REPEATS = 5
HEADROOM_CEILING = 16.0  # decades reported for a zero deviation
# Nominal time of the worker's reference kernel; wall times are reported at
# the machine speed where the kernel takes this long (see worker._reference_s).
REFERENCE_S = 0.25
COMMANDS = ("verify-algebra", "spin-check", "evolve", "zitter", "boost-demo", "compare-oracle")
# Single-threaded workers: BLAS and FFT threads stay within the cores.
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                     "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

END_TO_END = {
    "wall_s": "s",
    "grid_samples_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "pass_frac": "ratio",
    "min_headroom": "decades",
}

PER_LAYER = {
    "evolution.run_free.s": "s",
    "evolution.run_free.samples": "count",
    "evolution.run_free.per_sample_over_fft": "ratio",
    "evolution.energy_expectation.s": "s",
    "evolution.energy_expectation.calls": "count",
    "evolution.alpha_expectation_series.s": "s",
    "evolution.alpha_expectation_series.calls": "count",
    "evolution.alpha_density_series.s": "s",
    "evolution.zitter_decompose.s": "s",
    "evolution.evolve_sourced.s": "s",
    "evolution.evolve_sourced.per_sample_ms": "ms",
    "spin.angular_momentum_series.s": "s",
    "spin.angular_momentum_series.calls": "count",
    "algebra.transformed_dirac88.calls": "count",
    "algebra.verify_identities.s": "s",
    "fields.wave_vectors.calls": "count",
    "fields.save_em_csv.s": "s",
    "fields.save_em_csv.bytes": "bytes",
    "fields.save_em_csv.MBps": "MB/s",
    "fields.fftn_ref.s": "s",
    "oracle.maxwell_evolve.s": "s",
    "oracle.compare.s": "s",
    "states.build.s": "s",
    "lorentz.boosts.s": "s",
    **{f"cli.{command}.s": "s" for command in COMMANDS},
    "cli.run_command.self_s": "s",
    "process.cpu_s": "s",
    "process.wall_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


class WorkerFailed(RuntimeError):
    pass


def environment() -> dict:
    """Versions, cores, affinity, thread settings and source identity."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def spawn(spec: dict, tag: str, workdir: Path, deadline: float) -> dict:
    """Run worker.py on one spec, killing it at ``deadline``; returns its result record."""
    spec_path, result_path = workdir / f"{tag}.spec.json", workdir / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec))
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
    with open(workdir / f"{tag}.log", "w") as log:
        spawned = time.monotonic()
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), repr(spawned),
                               str(spec_path), str(result_path)],
                              stdout=log, stderr=subprocess.STDOUT, env=env,
                              cwd=workdir, timeout=max(deadline - spawned, 1.0))
    if proc.returncode != 0 or not result_path.exists():
        raise WorkerFailed(f"worker {tag} exited {proc.returncode}; see {workdir / (tag + '.log')}")
    result = json.loads(result_path.read_text())
    if Path(result["module_file"]).resolve().parents[1] != (ROOT / "src").resolve():
        raise WorkerFailed(f"worker imported dirac88 from {result['module_file']}")
    return result


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in JSON")


def headroom(row: dict) -> float:
    """log10(tolerance / deviation), capped for a zero deviation."""
    deviation, tolerance = row["deviation"], row["tolerance"]
    if deviation is None:
        return -HEADROOM_CEILING
    if deviation <= 0.0:
        return HEADROOM_CEILING
    if tolerance <= 0.0:
        return -HEADROOM_CEILING
    return min(math.log10(tolerance / deviation), HEADROOM_CEILING)


def check_outputs(workload: workloads.Workload, jobs, codes) -> tuple[int, list[float], list[str]]:
    """Failed command count, headrooms of the tolerance checks, and problems found.

    A command fails when its exit code is not 0, a check row does not
    pass, an expected artifact is missing or empty, or summary.json is not
    strict JSON.
    """
    failed, headrooms, problems = 0, [], []
    for cmd, (command, _, outdir), code in zip(workload.commands, jobs, codes):
        bad = []
        if code != 0:
            bad.append(f"exit code {code}")
        try:
            summary = json.loads((Path(outdir) / "summary.json").read_text(),
                                 parse_constant=_reject_constant)
            rows = summary["checks"]
            if summary["command"] != command or not rows:
                bad.append("summary names another command or has no checks")
            bad += [f"check failed: {r['name']}" for r in rows if r["pass"] is not True]
            headrooms += [headroom(r) for r in rows if r["tolerance"] is not None]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            bad.append(f"summary.json unreadable: {exc}")
        for name in cmd.artifacts:
            path = Path(outdir) / name
            if not path.is_file() or path.stat().st_size == 0:
                bad.append(f"missing artifact {name}")
        if bad:
            failed += 1
            problems.append(f"{command} ({Path(outdir).name}): " + "; ".join(bad))
    return failed, headrooms, problems


def layer_metrics(rep: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition; absent layers read 0."""
    layers, counters = rep["layers"], rep["counters"]

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    free_s, free_n = self_s("evolution.run_free"), counters.get("evolution.run_free.samples", 0)
    src_s, src_n = self_s("evolution.evolve_sourced"), counters.get("evolution.evolve_sourced.samples", 0)
    save_s, save_b = self_s("fields.save_em_csv"), counters.get("fields.save_em_csv.bytes", 0)
    return {
        "evolution.run_free.s": free_s,
        "evolution.run_free.samples": free_n,
        "evolution.run_free.per_sample_over_fft": free_s / free_n / rep["fft_ref_s"] if free_n else 0.0,
        "evolution.energy_expectation.s": self_s("evolution.energy_expectation"),
        "evolution.energy_expectation.calls": calls("evolution.energy_expectation"),
        "evolution.alpha_expectation_series.s": self_s("evolution.alpha_expectation_series"),
        "evolution.alpha_expectation_series.calls": calls("evolution.alpha_expectation_series"),
        "evolution.alpha_density_series.s": self_s("evolution.alpha_density_series"),
        "evolution.zitter_decompose.s": self_s("evolution.zitter_decompose"),
        "evolution.evolve_sourced.s": src_s,
        "evolution.evolve_sourced.per_sample_ms": 1e3 * src_s / src_n if src_n else 0.0,
        "spin.angular_momentum_series.s": self_s("spin.angular_momentum_series"),
        "spin.angular_momentum_series.calls": calls("spin.angular_momentum_series"),
        "algebra.transformed_dirac88.calls": calls("algebra.transformed_dirac88"),
        "algebra.verify_identities.s": self_s("algebra.verify_identities"),
        "fields.wave_vectors.calls": calls("fields.wave_vectors"),
        "fields.save_em_csv.s": save_s,
        "fields.save_em_csv.bytes": save_b,
        "fields.save_em_csv.MBps": save_b / save_s / 1e6 if save_s else 0.0,
        "fields.fftn_ref.s": rep["fft_ref_s"],
        "oracle.maxwell_evolve.s": self_s("oracle.maxwell_evolve"),
        "oracle.compare.s": self_s("oracle.compare"),
        "states.build.s": self_s("states.build"),
        "lorentz.boosts.s": self_s("lorentz.boosts"),
        **{f"cli.{c}.s": layers.get(f"cli.{c}", {}).get("s", 0.0) for c in COMMANDS},
        "cli.run_command.self_s": sum(self_s(f"cli.{c}") for c in COMMANDS),
        "trace.wall_s": rep["wall_s"],
        "trace.unattributed_s": rep["wall_s"] - sum(row["self_s"] for row in layers.values()),
    }


def measure(workload: workloads.Workload, seconds: float, trace: bool, workdir: Path,
            deadline: float) -> dict:
    """Run repetitions until ``seconds`` have passed; returns raw records."""
    jobs = workload.write_configs(workdir / "configs")
    spawn({"jobs": []}, "warmup", workdir, deadline)  # byte-compiles the package, untimed
    setups = [spawn({"jobs": []}, f"setup{i}", workdir, deadline)["setup_s"]
              for i in range(SETUP_REPEATS)]
    reps, traced, problems = [], [], []
    failed = attempted = 0
    headrooms: list[float] = []
    start = time.monotonic()

    def enough() -> bool:
        return bool(reps) and (bool(traced) or not trace) and time.monotonic() - start >= seconds

    while not enough():
        is_traced = trace and len(traced) < len(reps)
        spec = {"jobs": jobs}
        if is_traced:
            spec.update(trace=True, fft_shape=list(workload.fft_shape))
        for _, _, outdir in jobs:
            shutil.rmtree(outdir, ignore_errors=True)
        tag = f"rep{len(reps) + len(traced)}"
        attempted += len(jobs)
        try:
            rep = spawn(spec, tag, workdir, deadline)
        except (WorkerFailed, subprocess.TimeoutExpired) as exc:
            failed += len(jobs)
            problems.append(str(exc))
            break
        n_failed, rows, bad = check_outputs(workload, jobs, rep["exit_codes"])
        failed += n_failed
        headrooms += rows
        problems += bad
        setups.append(rep["setup_s"])
        (traced if is_traced else reps).append(rep)
    return {"setups": setups, "reps": reps, "traced": traced, "attempted": attempted,
            "failed": failed, "headrooms": headrooms, "problems": problems}


def scaled_wall_s(rep: dict) -> float:
    """Wall time at the reference machine speed."""
    return rep["wall_s"] * REFERENCE_S / rep["reference_s"]


def end_to_end(workload: workloads.Workload, raw: dict) -> dict[str, float]:
    wall = statistics.median(scaled_wall_s(r) for r in raw["reps"])
    return {
        "wall_s": wall,
        "grid_samples_per_s": workload.size()["grid_samples"] / wall,
        "setup_s": statistics.median(raw["setups"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in raw["reps"]),
        "pass_frac": 1.0 - raw["failed"] / raw["attempted"],
        "min_headroom": min(raw["headrooms"]),
    }


def per_layer(raw: dict) -> dict[str, float]:
    rows = [layer_metrics(rep) for rep in raw["traced"]]
    out = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    out["process.cpu_s"] = statistics.median(r["cpu_s"] for r in raw["reps"])
    out["process.wall_s"] = statistics.median(r["wall_s"] for r in raw["reps"])
    out["trace.overhead_s"] = (statistics.median(scaled_wall_s(r) for r in raw["traced"])
                               - statistics.median(scaled_wall_s(r) for r in raw["reps"]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "dirac88" / "cli.py").is_file():
        print(f"error: no dirac88 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.seed)
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    try:
        raw = measure(workload, args.seconds, bool(args.trace), workdir, deadline)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct = raw["failed"] == 0 and not raw["problems"]
    if not raw["reps"] or (args.trace and not raw["traced"]):
        for problem in raw["problems"]:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    metrics, units = (per_layer(raw), PER_LAYER) if args.trace else (end_to_end(workload, raw), END_TO_END)

    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": workload.size(),
        "environment": environment(), "repetitions": len(raw["reps"]),
        "traced_repetitions": len(raw["traced"]), "setup_samples": raw["setups"],
        "walls": [r["wall_s"] for r in raw["reps"]],
        "reference_s": [r["reference_s"] for r in raw["reps"] + raw["traced"]],
        "traced_walls": [r["wall_s"] for r in raw["traced"]],
        "failed_frac": raw["failed"] / raw["attempted"], "problems": raw["problems"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (workdir / "record.json").write_text(json.dumps(record, indent=1))

    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    print("size " + json.dumps(record["size"]))
    print("environment " + json.dumps(record["environment"]))
    print(f"repetitions {record['repetitions']} untraced, {record['traced_repetitions']} traced; "
          f"failed_frac {record['failed_frac']:.6g}; unscaled wall median "
          f"{statistics.median(record['walls']):.6g} s, reference kernel median "
          f"{statistics.median(record['reference_s']):.6g} s (nominal {REFERENCE_S} s)")
    for problem in raw["problems"]:
        print(f"FAIL {problem}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": raw["attempted"], "failed": raw["failed"],
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
