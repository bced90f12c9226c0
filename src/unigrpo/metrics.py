"""Metrics emission: a deterministic CSV, a detail record stream, and timings.

The metrics CSV must be byte-identical across fixed-seed re-runs, so
wall-clock goes to a sidecar timings file instead of the main table.
Floats are written with repr (shortest round-trip), which is
deterministic for identical doubles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import CheckpointError

TIMINGS_HEADER = ["update", "wall_clock", "rollout_s", "update_s", "eval_s", "io_s"]


@dataclass
class MetricsRow:
    update: int  # the defaults are the baseline row's, update 0
    mean_train_reward: float = 0.0
    eval_reward: float | None = None  # None when this update had no evaluation pass
    j_text: float = 0.0
    j_flow: float = 0.0
    clip_frac_text: float = 0.0
    clip_frac_flow: float = 0.0
    velocity_drift: float | None = None
    text_accuracy: float | None = None
    nonfinite_samples: int = 0


METRICS_HEADER = [f.name for f in fields(MetricsRow)]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


class MetricsWriter:
    """Append-only writers for metrics.csv, groups.jsonl, and timings.csv."""

    def __init__(self, out_dir, append: bool = False):
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        mode = "a" if append else "w"
        self._csv, self._jsonl, self._timings = (
            open(out / name, mode) for name in ("metrics.csv", "groups.jsonl", "timings.csv"))
        if not append:
            self._csv.write(",".join(METRICS_HEADER) + "\n")
            self._timings.write(",".join(TIMINGS_HEADER) + "\n")

    def write_row(self, row: MetricsRow) -> None:
        self._csv.write(",".join(_fmt(getattr(row, name)) for name in METRICS_HEADER) + "\n")
        self._csv.flush()

    def write_timings(self, update: int, wall_clock: float, rollout_s: float,
                      update_s: float, eval_s: float, io_s: float) -> None:
        seconds = (wall_clock, rollout_s, update_s, eval_s, io_s)
        self._timings.write(f"{update}," + ",".join(f"{s:.6f}" for s in seconds) + "\n")
        self._timings.flush()

    def write_group_record(self, record: dict) -> None:
        self._jsonl.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._jsonl.flush()

    def close(self) -> None:
        for fh in (self._csv, self._jsonl, self._timings):
            fh.close()


def _parse_row(header: list[str], line: str) -> dict:
    """One CSV row as python values (None for a blank field).  ValueError
    unless it has one field per column and its update reads as the writers
    print it."""
    parts = line.split(",")
    if len(parts) != len(header):
        raise ValueError(f"{len(parts)} fields for {len(header)} columns")
    row = {name: None if raw == "" else int(raw) if name in ("update", "nonfinite_samples")
           else float(raw)
           for name, raw in zip(header, parts)}
    if parts[0] != str(row["update"]):
        raise ValueError(f"update {parts[0]!r}")
    return row


def read_metrics(path) -> list[dict]:
    """Parse a metrics.csv back into python values (None for blank evals)."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return [_parse_row(header, line) for line in lines[1:]]


def rewind_run(out_dir, update: int) -> None:
    """Rewind a run directory to its checkpoint at `update`: read and parse
    every line of its three run files, CheckpointError naming a file that is
    missing, lacks its header or has a line that does not parse, or unless
    the metrics rows up to `update` are exactly 0..update; only then drop
    every row past `update`.  timings.csv may lack rows: `train` writes an
    update's timings after its checkpoint."""
    out = Path(out_dir)
    files = (("metrics.csv", METRICS_HEADER), ("timings.csv", TIMINGS_HEADER),
             ("groups.jsonl", None))
    kept = {}
    for name, header in files:
        path = out / name
        try:
            lines = path.read_text().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise CheckpointError(f"cannot resume: cannot read {path}: {exc}") from exc
        head = [",".join(header)] if header else []
        if lines[:len(head)] != head:
            raise CheckpointError(f"cannot resume: {path} lacks its header")
        rows = []
        for n, line in enumerate(lines[len(head):], len(head) + 1):
            try:
                u = _parse_row(header, line)["update"] if header else json.loads(line)["update"]
                if type(u) is not int:
                    raise ValueError(f"update {u!r}")
            except (ValueError, TypeError, KeyError) as exc:
                raise CheckpointError(f"cannot resume: {path} line {n} does not parse: "
                                      f"{exc!r}") from exc
            if u <= update:
                rows.append((u, line))
        kept[path] = head, rows
    path = out / "metrics.csv"
    if [u for u, _ in kept[path][1]] != list(range(update + 1)):
        raise CheckpointError(f"cannot resume: {path} does not hold exactly updates 0..{update}")
    for path, (head, rows) in kept.items():
        path.write_text("".join(line + "\n" for line in head + [line for _, line in rows]))
