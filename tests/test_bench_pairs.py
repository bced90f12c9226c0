"""tools/bench_pairs.py: the benchmark-code check and per-workload claims,
with perfbench runs replaced by canned result lines."""

import importlib.util
import json
import shutil
from dataclasses import fields
from pathlib import Path

import pytest

from unigrpo.config import TrainConfig

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools/bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _checkout(path: Path) -> Path:
    (path / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", path / "BENCHMARK.json")
    (path / "perfbench/run.py").write_text("print('run')\n")
    (path / "perfbench/README.md").write_text("bench\n")
    (path / "src/unigrpo").mkdir(parents=True)
    shutil.copy(ROOT / "src/unigrpo/config.py", path / "src/unigrpo/config.py")
    return path


@pytest.fixture
def pair(tmp_path):
    return _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")


def _result(scale: float) -> dict:
    """A result line whose every end-to-end metric is `scale` times 1.0,
    so scale < 1 improves lower-is-better metrics and worsens the rest."""
    return {"metrics": {m["name"]: {"value": scale if m["better"] == "lower" else 2.0 - scale}
                        for m in SPEC["end_to_end"]},
            "correct": True, "failed": 0, "attempted": 10}


def _main(pair, *extra):
    parent, change = pair
    return bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--seeds", "1-3", *extra])


class TestBenchmarkCode:
    def test_equal_trees_ignore_pycache(self, pair):
        parent, change = pair
        (change / "perfbench/__pycache__").mkdir()
        (change / "perfbench/__pycache__/run.cpython-311.pyc").write_bytes(b"\0")
        a, b = bench_pairs.benchmark_files(parent), bench_pairs.benchmark_files(change)
        assert sorted(a) == ["BENCHMARK.json", "perfbench/README.md", "perfbench/run.py"]
        assert bench_pairs.first_difference(a, b) is None

    @pytest.mark.parametrize("edit,name", [
        (lambda c: (c / "perfbench/run.py").write_text("print('fast')\n"), "perfbench/run.py"),
        (lambda c: (c / "perfbench/new.py").write_text(""), "perfbench/new.py"),
        (lambda c: (c / "perfbench/README.md").unlink(), "perfbench/README.md"),
        (lambda c: (c / "BENCHMARK.json").write_text("{}"), "BENCHMARK.json"),
    ])
    def test_refuses_differing_benchmark_code(self, pair, monkeypatch, capsys, edit, name):
        edit(pair[1])
        monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("ran a pair"))
        with pytest.raises(SystemExit) as exc:
            _main(pair, "--workload", "train-desk")
        assert exc.value.code == 2
        assert f"benchmark code differs between --parent and --change: {name}" \
            in capsys.readouterr().err

    def test_names_the_first_difference_in_path_order(self):
        a = {"BENCHMARK.json": b"1", "perfbench/a.py": b"x", "perfbench/b.py": b"y"}
        b = {"BENCHMARK.json": b"1", "perfbench/b.py": b"z", "perfbench/c.py": b""}
        assert bench_pairs.first_difference(a, b) == "perfbench/a.py"


class TestClaims:
    @pytest.mark.parametrize("claim,message", [
        ("update_ms.p50", "expected WORKLOAD:METRIC"),
        ("train-desk:", "expected WORKLOAD:METRIC"),
        ("train-guided:update_ms.p50", "claim on a workload not run"),
        ("train-desk:update_ms", "not an end-to-end metric"),
    ])
    def test_bad_claims_exit_2(self, pair, monkeypatch, capsys, claim, message):
        monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("ran a pair"))
        with pytest.raises(SystemExit) as exc:
            _main(pair, "--workload", "train-desk", "--claim", claim)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_claim_applies_to_its_workload_only(self, pair, monkeypatch, tmp_path):
        # the change is 10% faster on train-guided and 10% slower on
        # train-desk: the claim holds where it is made, and train-desk's
        # update_ms.p50 is held to its bound instead
        def run_once(checkout, workload, seed, seconds):
            if checkout == pair[0]:
                return _result(1.0 + 0.001 * seed)
            return _result(0.9 if workload == "train-guided" else 1.1)

        monkeypatch.setattr(bench_pairs, "run_once", run_once)
        out = tmp_path / "bench.json"
        status = _main(pair, "--workload", "train-desk", "--workload", "train-guided",
                       "--claim", "train-guided:update_ms.p50", "--out", str(out))
        record = json.loads(out.read_text())
        guided = record["train-guided"]["pairs"]["update_ms.p50"]
        desk = record["train-desk"]["pairs"]["update_ms.p50"]
        assert guided["claim_shown"] and guided["wins"] == 3 and "within_bound" not in guided
        assert desk["within_bound"] and desk["wins"] == 0 and "claim_shown" not in desk
        assert status == 0

    def test_unshown_claim_fails(self, pair, monkeypatch):
        monkeypatch.setattr(bench_pairs, "run_once",
                            lambda checkout, workload, seed, seconds: _result(1.0))
        assert _main(pair, "--workload", "train-guided",
                     "--claim", "train-guided:update_ms.p50") == 1


def test_records_every_runs_end_to_end_values(pair, monkeypatch, tmp_path):
    # each pair's values by seed and side, every end-to-end metric of
    # BENCHMARK.json and nothing else, for each workload
    def run_once(checkout, workload, seed, seconds):
        result = _result(1.0 + 0.01 * seed if checkout == pair[0] else 0.9)
        result["metrics"]["trace.overhead_s"] = {"value": 5.0}
        if workload == "train-guided":
            result["metrics"]["eval_ms.p50"]["value"] = 100.0 * seed
        return result

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    _main(pair, "--workload", "train-desk", "--workload", "train-guided", "--out", str(out))
    record = json.loads(out.read_text())
    for workload in ("train-desk", "train-guided"):
        runs = record[workload]["runs"]
        assert [r["seed"] for r in runs] == [1, 2, 3]
        for seed, r in zip((1, 2, 3), runs):
            for side, scale in (("parent", 1.0 + 0.01 * seed), ("change", 0.9)):
                want = _result(scale)["metrics"]
                if workload == "train-guided":
                    want["eval_ms.p50"]["value"] = 100.0 * seed
                assert r[side] == {name: v["value"] for name, v in want.items()}


def test_counts_pairs_with_identical_eval_reward(pair, monkeypatch, capsys, tmp_path):
    # seeds 1 and 3 read the same eval_reward on both sides, seed 2 does not;
    # the count is reported and recorded, and does not change the verdict
    def run_once(checkout, workload, seed, seconds):
        result = _result(1.0)
        if checkout == pair[1] and seed == 2:
            result["metrics"]["eval_reward"]["value"] += 1e-12
        return result

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    assert _main(pair, "--workload", "train-desk", "--out", str(out)) == 0
    assert "eval_reward      identical in 2/3 pairs" in capsys.readouterr().out
    assert json.loads(out.read_text())["train-desk"]["eval_reward_identical"] == 2



@pytest.mark.parametrize("failing, status", [("both", 0), ("change", 1)])
def test_failures_compare_seed_by_seed(pair, monkeypatch, tmp_path, failing, status):
    # seed 2 fails its 3 set-ups on both sides, where the change attempts
    # fewer operations (the same failures, a larger share of its run), or on
    # the change side only
    def run_once(checkout, workload, seed, seconds):
        result = _result(1.0)
        if seed == 2 and (failing == "both" or checkout == pair[1]):
            result.update(correct=False, failed=3)
        if seed == 2 and checkout == pair[1]:
            result["attempted"] = 7
        return result

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    assert _main(pair, "--workload", "train-desk", "--out", str(out)) == status
    failed = json.loads(out.read_text())["train-desk"]["failed_per_seed"]
    assert failed["change"] == {"2": 3}
    assert failed["parent"] == ({"2": 3} if failing == "both" else {})
    assert failed["more_failed"] == ([] if failing == "both" else [2])


def test_records_config_keys_next_to_src_lines(pair, monkeypatch, capsys, tmp_path):
    # the TrainConfig fields of each checkout, read without importing it (its
    # methods are no fields): the parent is this repository's config, and
    # the change drops one field
    config = pair[1] / "src/unigrpo/config.py"
    config.write_text(config.read_text().replace("    ablate_seeds: int = 3\n", ""))
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda checkout, workload, seed, seconds: _result(1.0))
    out = tmp_path / "bench.json"
    _main(pair, "--workload", "train-desk", "--out", str(out))
    keys = len(fields(TrainConfig))
    assert json.loads(out.read_text())["config_keys"] == {"parent": keys, "change": keys - 1}
    assert f"TrainConfig keys: parent {keys}  change {keys - 1}" in capsys.readouterr().out
