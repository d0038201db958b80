"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from dirac88 import cli  # noqa: E402


def _run_commands(workload, directory):
    jobs = workload.write_configs(directory)
    codes = [cli.run_command(command, config, outdir) for command, config, outdir in jobs]
    return jobs, codes


def _outputs(jobs):
    """Every artifact's bytes, with the summaries' timing fields dropped."""
    out = {}
    for _, _, outdir in jobs:
        for path in sorted(Path(outdir).iterdir()):
            if path.name == "summary.json":
                summary = json.loads(path.read_text())
                del summary["timestamp"], summary["wall_time_s"]
                out[f"{outdir}/{path.name}"] = json.dumps(summary, sort_keys=True)
            else:
                out[f"{outdir}/{path.name}"] = path.read_bytes()
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [11, 12])
def test_generated_configs_pass_on_every_check(name, seed, tmp_path, capsys):
    workload = workloads.make(name, seed)
    jobs, codes = _run_commands(workload, tmp_path)
    failed, headrooms, problems = run.check_outputs(workload, jobs, codes)
    assert (failed, problems) == (0, [])
    assert codes == [0] * len(jobs)
    assert min(headrooms) > 0.0


def test_seed_changes_inputs_but_not_sizes():
    for name in workloads.WORKLOADS:
        a, b = workloads.make(name, 1), workloads.make(name, 2)
        assert a.size() == b.size()
        assert [c.config for c in a.commands] != [c.config for c in b.commands]
        assert [c.config for c in a.commands] == [c.config for c in workloads.make(name, 1).commands]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, names", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_emitted_metrics_match(trace, names):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "configs-suite",
                           "--seed", "3", "--seconds", "0", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_tracer_leaves_outputs_unchanged(tmp_path, capsys):
    workload = workloads.make("configs-suite", 5)
    plain_jobs, plain_codes = _run_commands(workload, tmp_path / "plain")
    originals = {name: getattr(cli, name) for name in ("run_command", "run_free", "evolve_sourced")}
    tracer = spans.Tracer().install()
    try:
        assert cli.run_command is not originals["run_command"]
        traced_jobs, traced_codes = _run_commands(workload, tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert {name: getattr(cli, name) for name in originals} == originals
    assert traced_codes == plain_codes
    strip = lambda outputs, root: {k.replace(str(root), ""): v for k, v in outputs.items()}  # noqa: E731
    assert strip(_outputs(traced_jobs), tmp_path / "traced") == strip(_outputs(plain_jobs), tmp_path / "plain")
    layers = tracer.summary()
    assert layers["fields.wave_vectors"]["calls"] > 0
    assert layers["cli.compare-oracle"]["calls"] == 1


def test_self_times_add_up_to_outer_spans():
    tracer = spans.Tracer()
    tracer.spans[:] = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    summary = tracer.summary()
    assert summary["a"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert summary["b"] == {"calls": 2, "s": 4.0, "self_s": 3.0}
    assert sum(row["self_s"] for row in summary.values()) == 10.0


def test_headroom():
    assert run.headroom({"deviation": 1e-12, "tolerance": 1e-8}) == pytest.approx(4.0)
    assert run.headroom({"deviation": 0.0, "tolerance": 0.0}) == run.HEADROOM_CEILING
    assert run.headroom({"deviation": None, "tolerance": 0.0}) < 0.0
