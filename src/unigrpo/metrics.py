"""Metrics emission: a deterministic CSV, a detail record stream, and timings.

The metrics CSV must be byte-identical across fixed-seed re-runs, so
wall-clock goes to a sidecar timings file instead of the main table.
Floats are written with repr (shortest round-trip), which is
deterministic for identical doubles.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

METRICS_HEADER = [
    "update",
    "mean_train_reward",
    "eval_reward",
    "j_text",
    "j_flow",
    "clip_frac_text",
    "clip_frac_flow",
    "velocity_drift",
    "text_accuracy",
    "nonfinite_samples",
]

TIMINGS_HEADER = ["update", "wall_clock", "rollout_s", "update_s", "eval_s", "io_s"]


@dataclass
class MetricsRow:
    update: int
    mean_train_reward: float
    eval_reward: float | None  # None when this update had no evaluation pass
    j_text: float
    j_flow: float
    clip_frac_text: float
    clip_frac_flow: float
    velocity_drift: float
    text_accuracy: float
    nonfinite_samples: int


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
        self.csv_path = out / "metrics.csv"
        self.jsonl_path = out / "groups.jsonl"
        self.timings_path = out / "timings.csv"
        mode = "a" if append else "w"
        self._csv = open(self.csv_path, mode)
        self._jsonl = open(self.jsonl_path, mode)
        self._timings = open(self.timings_path, mode)
        if not append:
            self._csv.write(",".join(METRICS_HEADER) + "\n")
            self._timings.write(",".join(TIMINGS_HEADER) + "\n")

    def write_row(self, row: MetricsRow) -> None:
        rec = asdict(row)
        self._csv.write(",".join(_fmt(rec[name]) for name in METRICS_HEADER) + "\n")
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
        self._csv.close()
        self._jsonl.close()
        self._timings.close()


def read_metrics(path) -> list[dict]:
    """Parse a metrics.csv back into python values (None for blank evals)."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        rec = {}
        for name, raw in zip(header, parts):
            if raw == "":
                rec[name] = None
            elif name in ("update", "nonfinite_samples"):
                rec[name] = int(raw)
            else:
                rec[name] = float(raw)
        rows.append(rec)
    return rows


def truncate_metrics(out_dir, keep_through_update: int) -> None:
    """Drop rows after a checkpoint boundary so a resume reproduces the file."""
    out = Path(out_dir)
    for name in ("metrics.csv", "timings.csv"):
        path = out / name
        if not path.exists():
            continue
        lines = path.read_text().splitlines()
        kept = [lines[0]]
        kept += [
            ln for ln in lines[1:] if ln and int(ln.split(",")[0]) <= keep_through_update
        ]
        path.write_text("\n".join(kept) + "\n")
    jsonl = out / "groups.jsonl"
    if jsonl.exists():
        kept = [
            ln for ln in jsonl.read_text().splitlines()
            if ln and json.loads(ln)["update"] <= keep_through_update
        ]
        jsonl.write_text("".join(k + "\n" for k in kept))
