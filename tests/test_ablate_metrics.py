"""Ablation harness artifacts and the metrics file machinery."""

import json
from dataclasses import replace

import pytest

from unigrpo.ablate import ablate
from unigrpo.config import TrainConfig
from unigrpo.errors import ConfigError
from unigrpo.metrics import MetricsRow, MetricsWriter, read_metrics, rewind_run
from unigrpo.trainer import pretrain_all

TINY = TrainConfig(
    seed=0,
    total_updates=4,
    eval_every=2,
    checkpoint_every=4,
    group_size=4,
    prompts_per_batch=2,
    train_timesteps=8,
    eval_timesteps=10,
    sde_window_hi=4,
    text_hidden=24,
    flow_hidden=32,
    eval_samples=4,
    pretrain_text_n=256,
    pretrain_text_epochs=3,
    pretrain_flow_n=512,
    pretrain_flow_epochs=6,
    ablate_seeds=1,
)


class TestMetricsFiles:
    def _row(self, update, eval_reward=None):
        return MetricsRow(
            update=update, mean_train_reward=0.5, eval_reward=eval_reward,
            j_text=0.1, j_flow=-0.2, clip_frac_text=0.0, clip_frac_flow=0.25,
            velocity_drift=0.01 if eval_reward is not None else None,
            text_accuracy=0.9 if eval_reward is not None else None,
            nonfinite_samples=0,
        )

    def test_round_trip_with_blanks(self, tmp_path):
        w = MetricsWriter(tmp_path)
        w.write_row(self._row(0, eval_reward=0.75))
        w.write_timings(0, 0.123, 0.0, 0.0, 0.1, 0.023)
        w.write_row(self._row(1))
        w.write_timings(1, 0.5, 0.2, 0.1, 0.0, 0.2)
        w.write_group_record({"update": 1, "slot": 0, "rewards": [0.5]})
        w.close()
        rows = read_metrics(tmp_path / "metrics.csv")
        assert rows[0]["eval_reward"] == 0.75
        assert rows[1]["eval_reward"] is None
        assert rows[1]["velocity_drift"] is None
        assert rows[0]["update"] == 0
        timings = (tmp_path / "timings.csv").read_text().splitlines()
        assert timings[0] == "update,wall_clock,rollout_s,update_s,eval_s,io_s"
        assert timings[1] == "0,0.123000,0.000000,0.000000,0.100000,0.023000"
        assert len(timings) == 3

    def test_wall_clock_not_in_metrics_csv(self, tmp_path):
        w = MetricsWriter(tmp_path)
        w.write_row(self._row(0, eval_reward=0.5))
        w.close()
        header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
        assert "wall_clock" not in header

    def test_truncate_for_resume(self, tmp_path):
        w = MetricsWriter(tmp_path)
        for u in range(5):
            w.write_row(self._row(u, eval_reward=0.1 * u))
            w.write_group_record({"update": u, "slot": 0})
        w.close()
        rewind_run(tmp_path, 2)
        rows = read_metrics(tmp_path / "metrics.csv")
        assert [r["update"] for r in rows] == [0, 1, 2]
        recs = [json.loads(l) for l in (tmp_path / "groups.jsonl").read_text().splitlines()]
        assert [r["update"] for r in recs] == [0, 1, 2]

    def test_truncate_keeps_timings_rows_whole(self, tmp_path):
        w = MetricsWriter(tmp_path)
        for u in range(5):
            w.write_row(self._row(u))
            w.write_timings(u, 1.0 + u, 0.25, 0.5, 0.0, 0.125)
        w.close()
        rewind_run(tmp_path, 2)
        timings = (tmp_path / "timings.csv").read_text().splitlines()
        assert timings[0] == "update,wall_clock,rollout_s,update_s,eval_s,io_s"
        assert timings[1:] == [f"{u},{1.0 + u:.6f},0.250000,0.500000,0.000000,0.125000"
                               for u in range(3)]


class TestAblate:
    def test_unknown_mode(self, tmp_path):
        with pytest.raises(ConfigError, match="bogus"):
            ablate(TINY, "bogus", tmp_path)

    def test_arm_that_trains_no_policy_refused_before_any_run(self, tmp_path):
        # from frozen text the text-only arm would train nothing; it is
        # refused before the sweep pretrains or trains its other arms
        with pytest.raises(ConfigError, match="train_text and train_flow are both false"):
            ablate(replace(TINY, train_text=False), "component-sweep", tmp_path / "comp")
        assert not (tmp_path / "comp").exists()

    def test_component_sweep_artifacts(self, tmp_path):
        report = ablate(TINY, "component-sweep", tmp_path / "comp")
        assert set(report["runs"]) == {"unified", "flow-only", "text-only"}
        assert (tmp_path / "comp/seed0/pretrain/text.ckpt").exists()
        for arm in report["runs"]:
            assert (tmp_path / f"comp/seed0/{arm}/metrics.csv").exists()
        verdicts = (tmp_path / "comp/verdicts.txt").read_text().splitlines()
        assert len(verdicts) == 3
        for line in verdicts:
            parts = line.split()
            assert parts[0] == "VERDICT"
            assert parts[1] == "component-sweep"
            assert parts[3] in ("PASS", "FAIL", "WARN")
        comparison = (tmp_path / "comp/comparison.csv").read_text().splitlines()
        assert comparison[0].startswith("update,")
        assert "unified_eval" in comparison[0]

    def test_reg_sweep_emits_three_runs_sharing_seed(self, tmp_path):
        report = ablate(TINY, "reg-sweep", tmp_path / "reg")
        assert set(report["runs"]) == {"reg-none", "reg-latent-kl", "reg-velocity-mse"}
        manifests = [
            json.loads((tmp_path / f"reg/seed0/{arm}/run_manifest.json").read_text())
            for arm in report["runs"]
        ]
        assert len({m["seed"] for m in manifests}) == 1
        assert {m["config_resolved"]["reg_mode"] for m in manifests} == {
            "none", "latent-kl", "velocity-mse",
        }

    def test_unfinished_pretraining_is_run_again(self, tmp_path):
        # pretrain_all writes pretrain_report.json after both checkpoints; a
        # seed's pretraining that stopped before it is redone, not trained from
        pre = tmp_path / "cfg/seed0/pretrain"
        pretrain_all(TINY, pre)
        whole = {name: (pre / name).read_bytes() for name in ("text.ckpt", "flow.ckpt")}
        for name in ("flow.ckpt", "pretrain_report.json", "pretrain_timings.json"):
            (pre / name).unlink()
        report = ablate(TINY, "cfg-on-vs-off", tmp_path / "cfg")
        assert set(report["runs"]) == {"cfg-free", "cfg-on"}
        assert {name: (pre / name).read_bytes() for name in whole} == whole
        assert (pre / "pretrain_report.json").exists()

    def test_cfg_mode_reports_eval_budget(self, tmp_path):
        report = ablate(TINY, "cfg-on-vs-off", tmp_path / "cfg")
        free = report["runs"]["cfg-free"][0]
        on = report["runs"]["cfg-on"][0]
        assert free["rollout_evals_per_step"] == 1.0
        assert on["rollout_evals_per_step"] == 2.0
        names = [v[0] for v in report["verdicts"]]
        assert "eval-budget" in names
