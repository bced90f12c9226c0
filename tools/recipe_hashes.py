"""Byte-identity check: run the fixed-seed recipe and compare its output hashes.

    python3 tools/recipe_hashes.py           # exit 0 iff all 26 entries match
    python3 tools/recipe_hashes.py --write   # compare, then record the current hashes

The recipe runs `unigrpo pretrain --seed 101` at desk defaults, then
`unigrpo train --seed 101` seven times from that pretraining, all in a
temporary directory:

    desk     desk defaults
    guided   frozen text, train_cfg = true, latent-kl, group 16
    t07      reg_mode none, temperature 0.7
    binary   reward_mode binary
    odd      3 prompts x group 5, train_cfg = true: 15-row guided batches
    evalcfg  desk defaults evaluated with guidance, eval_cfg_scale = 2.0
    cfgnone  reg_mode none, train_cfg = true: guided updates with no reference

and takes the sha256 of the 25 outputs that a fixed seed determines: the
pretraining text.ckpt, flow.ckpt and pretrain_report.json, each run's
metrics.csv, groups.jsonl and state.ckpt, and the output of `unigrpo
verify` with each oracle's ` (x.xxs)` timing removed, plus a 26th entry,
`blas_kernel`: the runtime kernel of the OpenBLAS library in numpy's wheel
("unknown" where it cannot be read).  The hashes hold only for the kernel
they were recorded with, so a host with another kernel reports it by name.  It compares all 26 with
tools/recipe_hashes.json.  A change that is not meant to move any number
must keep every hash.  The commands run from this checkout's `src`, each
with one BLAS thread: the pretraining first, then the seven trainings and
`unigrpo verify` concurrently, one per CPU this process may run on.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HASHES = Path(__file__).with_name("recipe_hashes.json")
SEED = "101"
RUNS = {
    "desk": {},
    "guided": {"train_text": "false", "train_cfg": "true", "reg_mode": "latent-kl",
               "group_size": "16"},
    "t07": {"reg_mode": "none", "temperature": "0.7"},
    "binary": {"reward_mode": "binary"},
    "odd": {"prompts_per_batch": "3", "group_size": "5", "train_cfg": "true"},
    "evalcfg": {"eval_cfg_scale": "2.0"},
    "cfgnone": {"reg_mode": "none", "train_cfg": "true"},
}
PRETRAIN_FILES = ("text.ckpt", "flow.ckpt", "pretrain_report.json")
RUN_FILES = ("metrics.csv", "groups.jsonl", "state.ckpt")


def config_text(overrides: dict) -> str:
    """configs/desk.cfg with each overridden key's line replaced; a KeyError
    naming an overridden key the file does not set."""
    lines, missing = [], set(overrides)
    for line in (ROOT / "configs" / "desk.cfg").read_text().splitlines():
        key = line.split("=", 1)[0].strip()
        if "=" in line and not line.lstrip().startswith("#") and key in overrides:
            line = f"{key} = {overrides[key]}"
            missing.discard(key)
        lines.append(line)
    if missing:
        raise KeyError(f"configs/desk.cfg sets no key '{min(missing)}'")
    return "\n".join(lines) + "\n"


def run_cli(*args: str) -> str:
    """The command's stdout; its BLAS runs on one thread, so that concurrent
    commands do not contend for the CPUs."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "unigrpo.cli", *args], env=env, check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def blas_kernel() -> str:
    """The runtime kernel (OpenBLAS's core name) of the scipy-openblas library
    in numpy's wheel, or "unknown"."""
    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = (), ctypes.c_char_p
        return corename().decode()
    return "unknown"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def recipe_hashes(work: Path) -> dict:
    pre = work / "pretrain"
    run_cli("pretrain", "--seed", SEED, "--out", str(pre))
    hashes = {f"pretrain/{name}": sha256((pre / name).read_bytes()) for name in PRETRAIN_FILES}

    def train(run: str) -> dict:
        cfg = work / f"{run}.cfg"
        cfg.write_text(config_text({**RUNS[run], "pretrain_dir": str(pre)}))
        run_cli("train", "--config", str(cfg), "--seed", SEED, "--out", str(work / run))
        return {f"{run}/{name}": sha256((work / run / name).read_bytes()) for name in RUN_FILES}

    with ThreadPoolExecutor(min(len(RUNS) + 1, len(os.sched_getaffinity(0)))) as pool:
        runs = pool.map(train, RUNS)  # yields in RUNS order, so the hashes keep theirs
        verify = pool.submit(run_cli, "verify")
        for part in runs:
            hashes.update(part)
        oracles = re.sub(r" \(\d+\.\d+s\)", "", verify.result())
    hashes["verify/oracles"] = sha256(oracles.encode())
    hashes["blas_kernel"] = blas_kernel()
    return hashes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"record the hashes in {HASHES.name} instead of comparing")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="recipe-") as tmp:
        got = recipe_hashes(Path(tmp))
    want = json.loads(HASHES.read_text())
    names = sorted(want.keys() | got.keys())
    bad = 0
    for name in names:
        ok = want.get(name) == got.get(name)
        bad += not ok
        print(f"ok       {name}" if ok else
              f"MISMATCH {name}: got {got.get(name)}, want {want.get(name)}")
    print(f"{len(names) - bad}/{len(names)} hashes match")
    if args.write:
        HASHES.write_text(json.dumps(got, indent=2) + "\n")
        print(f"wrote {len(got)} hashes to {HASHES}")
        return 0
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
