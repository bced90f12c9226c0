"""Smoke test of the benchmark itself: python3 -m pytest perfbench -q

Runs every workload with --quick (tiny pretraining, 2 updates) in this
process, untraced and traced.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bindings():
    """Identity of every attribute of the modules and classes the hooks touch."""
    from unigrpo import autodiff, flow_policy, metrics, text_policy

    owners = tracer.unigrpo_modules()
    owners += [autodiff.Tape, flow_policy.FlowPolicy, text_policy.TextPolicy,
               metrics.MetricsWriter]
    return {(id(o), k): id(v) for o in owners for k, v in vars(o).items()}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["paths"] == [HERE.name]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--quick"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float) and math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name
    for name in emitted:  # the human-readable lines carry sample counts
        assert any(line.startswith(name + " ") and " n=" in line for line in lines), name


def test_metronome_takes_ticks_out_and_scales_by_local_speed():
    met = run.Metronome()
    met.tick()
    a = time.perf_counter()
    time.sleep(0.01)
    met.tick()
    time.sleep(0.01)
    b = time.perf_counter()
    met.tick()
    before, after = met.starts[1] - a, b - met.ends[1]
    assert met.seconds(a, b, nominal=False) == pytest.approx(before + after)
    slow = met.slowdown()
    expected = before / ((slow[0] + slow[1]) / 2) + after / ((slow[1] + slow[2]) / 2)
    assert met.seconds(a, b) == pytest.approx(expected)
    with pytest.raises(RuntimeError):
        met.seconds(a, met.ends[-1] + 1.0)


def test_every_wrapped_span_fires_and_is_restored():
    run.import_program()
    before = _bindings()
    with tracer.Patch() as patch:
        names = tracer.install(patch, tracer.Tracer())
        assert _bindings() != before
    assert _bindings() == before

    res = run.measure("train-desk", 0, 0, trace=True, quick=True)
    assert res["correct"], res["failures"]
    assert {n for n in names if not res["spans"].get(n)} == set()
    assert _bindings() == before

    res = run.measure("train-guided", 0, 0, trace=False, quick=True)
    assert res["correct"], res["failures"]
    assert _bindings() == before


def test_trainer_streams_are_traced_where_imported_by_name():
    run.import_program()
    from unigrpo import rng, trainer

    t = tracer.Tracer()
    with tracer.Patch() as patch:
        tracer.install(patch, t)
        assert trainer.stream is rng.stream
        trainer.stream(0, "probe")
    assert t.get("rng.stream", "calls") == 1
    assert trainer.stream is rng.stream and not hasattr(rng.stream, "__wrapped__")


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "train-desk", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
