"""One benchmark repetition in a fresh interpreter.

    python3 worker.py <spawn_time> <spec.json> <result.json>

``spawn_time`` is the parent's ``time.monotonic()`` just before it started
this process; set-up time runs from there to the end of ``import dirac88``.
The spec names the commands to run and, for a traced repetition, the shape
of the reference FFT timed after the commands.  A fixed reference kernel
is timed just before and after the commands.  Nothing but the standard
library is imported before dirac88, so set-up time includes numpy's
import, as a CLI user pays it.
"""

import sys
import time

import dirac88
import dirac88.cli

SETUP_END = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _fft_ref_s(shape, repeats: int = 7) -> float:
    """Median time of one numpy fftn over the spatial axes of a (*grid, 8) array."""
    import numpy as np

    values = np.exp(1j * np.arange(float(np.prod(shape)))).reshape(shape)
    axes = tuple(range(len(shape) - 1))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.fft.fftn(values, axes=axes)
        times.append(time.perf_counter() - start)
    return sorted(times)[repeats // 2]


def _reference_s() -> float:
    """Time of a fixed kernel: float formatting into CSV rows, small numpy
    calls and small FFTs, the kinds of work the workloads do.

    It is run just before and just after the commands.  The host's speed
    drifts by tens of percent over seconds to minutes, so the end-to-end
    times are scaled by this kernel's nominal over its measured time.  The
    array lengths are ones the workloads never transform, so no FFT plan
    the commands use is cached in advance.
    """
    import csv
    import os
    import numpy as np

    # numpy.random is not imported: its extension alone would add to peak RSS
    small = np.exp(1j * np.arange(192 * 8.0)).reshape(192, 8)
    mid = np.exp(1j * np.arange(12 ** 3 * 8.0)).reshape(12, 12, 12, 8)
    eye = np.eye(8)
    with open(os.devnull, "w", newline="") as sink:
        start = time.perf_counter()
        writer = csv.writer(sink)
        for i in range(20_000):
            writer.writerow([i, i % 6, f"{i / 7.0:.17g}", f"{-i / 7.0:.17g}"])
        for _ in range(1_800):
            np.einsum("ab,...b->...a", eye, np.fft.fft(small, axis=0))
        for _ in range(120):
            np.fft.ifftn(np.fft.fftn(mid, axes=(0, 1, 2)), axes=(0, 1, 2))
        return time.perf_counter() - start


def main(spawn_time: float, spec_path: str, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    result = {"setup_s": SETUP_END - spawn_time, "module_file": dirac88.__file__}
    tracer = None
    if spec.get("trace"):
        from spans import Tracer
        tracer = Tracer().install()

    codes = []
    log = io.StringIO()
    before = _reference_s() if spec["jobs"] else None
    cpu0 = _cpu_s()
    start = time.perf_counter()
    with contextlib.redirect_stdout(log):
        for command, config, outdir in spec["jobs"]:
            codes.append(dirac88.cli.run_command(command, config, outdir))
    wall = time.perf_counter() - start
    result.update(wall_s=wall, cpu_s=_cpu_s() - cpu0, exit_codes=codes,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if before is not None:
        result["reference_s"] = (before + _reference_s()) / 2.0
    if tracer is not None:
        tracer.uninstall()
        tracer.write(Path(result_path).with_suffix(".spans.json"))
        result["layers"] = tracer.summary()
        result["counters"] = dict(tracer.counters)
        result["fft_ref_s"] = _fft_ref_s(tuple(spec["fft_shape"]))
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(float(sys.argv[1]), sys.argv[2], sys.argv[3])
