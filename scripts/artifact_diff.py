"""Compare two trees of run outputs file by file, and say what moved and by how much.

    python scripts/artifact_diff.py A B

Files pair by their path under each tree.  A ``summary.json`` is compared
without ``wall_time_s`` and ``timestamp``, which differ between any two runs;
every other file must match byte for byte.  The script prints how many files
are identical, then one line per difference:

- a CSV file (a header, then rows of numbers, as ``samples.csv`` and the
  snapshots are): each column that moved, with its largest |delta| over the
  column's largest |value| in A;
- a JSON file: the number that moved most for its size, |delta| over the
  larger |value|, with its path in the file, and any other value that changed;
- a CSV or JSON file whose shape differs, or any other file: that it differs;
- a file that one tree lacks: that it is missing.

It exits 0 when every file is identical and 1 when anything moved or is missing.
"""
import json
import math
import sys
from pathlib import Path

_RUN_FIELDS = ("wall_time_s", "timestamp")   # of summary.json


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _leaves(data, path=""):
    """(path, value) of each leaf of a JSON value, in document order."""
    if isinstance(data, dict):
        for key, value in data.items():
            yield from _leaves(value, f"{path}.{key}")
    elif isinstance(data, list):
        for i, value in enumerate(data):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path or ".", data


def _json_moves(a, b) -> list[str]:
    leaves_a, leaves_b = list(_leaves(a)), list(_leaves(b))
    if [p for p, _ in leaves_a] != [p for p, _ in leaves_b]:
        return ["keys or lengths differ"]
    worst, moves = None, []
    for (path, x), (_, y) in zip(leaves_a, leaves_b):
        if x == y and type(x) is type(y):
            continue
        if _is_number(x) and _is_number(y):
            rel = abs(x - y) / max(abs(x), abs(y))
            if worst is None or rel > worst[0]:
                worst = (rel, path, x, y)
        else:
            moves.append(f"{path}: {x!r} -> {y!r}")
    if worst is not None:
        rel, path, x, y = worst
        moves.insert(0, f"largest move {rel:.3g} of the value, at {path}: {x!r} -> {y!r}")
    return moves


def _csv_moves(text_a: str, text_b: str) -> list[str]:
    rows_a, rows_b = ([line.split(",") for line in text.splitlines()] for text in (text_a, text_b))
    if (len(rows_a) != len(rows_b) or rows_a[0] != rows_b[0]
            or any(len(x) != len(y) for x, y in zip(rows_a, rows_b))):
        return ["header or shape differs"]
    moves = []
    for col, name in enumerate(rows_a[0]):
        pairs = [(x[col], y[col]) for x, y in zip(rows_a[1:], rows_b[1:])]
        if all(x == y for x, y in pairs):
            continue
        try:
            values = [(float(x), float(y)) for x, y in pairs]
        except ValueError:
            moves.append(f"column {name}: text differs")
            continue
        delta = max(abs(x - y) for x, y in values)
        scale = max((abs(x) for x, _ in values if math.isfinite(x)), default=0.0)
        moves.append(f"column {name}: max |delta| {delta:.3g} over max |value| {scale:.3g}"
                     f" = {delta / scale if scale else math.inf:.3g}")
    return moves or ["bytes differ, same cells"]


def compare(a: Path, b: Path, name: str) -> list[str]:
    """The differences of file ``name`` between trees a and b; [] when identical."""
    path_a, path_b = a / name, b / name
    if Path(name).name == "summary.json":
        summary_a, summary_b = (json.loads(p.read_text()) for p in (path_a, path_b))
        for summary in (summary_a, summary_b):
            for key in _RUN_FIELDS:
                summary.pop(key, None)
        return _json_moves(summary_a, summary_b)
    bytes_a, bytes_b = path_a.read_bytes(), path_b.read_bytes()
    if bytes_a == bytes_b:
        return []
    try:
        if name.endswith(".json"):
            return _json_moves(json.loads(bytes_a), json.loads(bytes_b)) or ["bytes differ"]
        if name.endswith(".csv"):
            return _csv_moves(bytes_a.decode(), bytes_b.decode())
    except (ValueError, UnicodeDecodeError):
        pass
    return ["bytes differ"]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    a, b = (Path(x) for x in argv)
    files_a, files_b = _files(a), _files(b)
    identical, report = 0, []
    for name in sorted(files_a | files_b):
        if name not in files_b or name not in files_a:
            report.append(f"{name}: missing from {b if name not in files_b else a}")
            continue
        moves = compare(a, b, name)
        identical += not moves
        report += [f"{name}: {move}" for move in moves]
    print(f"identical: {identical} of {len(files_a | files_b)} files")
    for line in report:
        print(line)
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
