"""Command-line entry points.

Commands: pretrain, train, ablate, verify, eval (which reads its config,
policies and reference from the run directory).  Exit codes: 0 success,
2 configuration error, 3 checkpoint error, 4 numeric/oracle failure.
"""

from __future__ import annotations

import os
# one BLAS thread unless the caller chose otherwise; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

from .ablate import MODES, ablate  # noqa: E402
from .config import TrainConfig, load_config  # noqa: E402
from .errors import CheckpointError, ConfigError, NumericError  # noqa: E402
from .verify import run_all  # noqa: E402


def _load(args) -> tuple[TrainConfig, str | None]:
    """The config and its file's text; None without a file: `train` then dumps `cfg`."""
    cfg, text = load_config(args.config) if args.config else (TrainConfig().validate(), None)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed).validate()
    return cfg, text


def _add_common(p: argparse.ArgumentParser, out_default: str) -> None:
    p.add_argument("--config", type=str, default=None, help="path to key = value config file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", type=str, default=out_default, help="output directory")


def cmd_pretrain(args) -> int:
    from .trainer import pretrain_all

    cfg, _ = _load(args)
    report = pretrain_all(cfg, args.out)
    print(f"text greedy accuracy:    {report['text_greedy_accuracy']:.4f}")
    print(f"flow quadrant accuracy:  {report['flow_quadrant_accuracy_mean']:.4f} "
          f"(min {report['flow_quadrant_accuracy_min']:.4f})")
    print(f"checkpoints written to {args.out}")
    return 0


def cmd_train(args) -> int:
    from .trainer import train

    cfg, text = _load(args)
    summary = train(cfg, args.out, resume=args.resume, config_text=text)
    print(json.dumps(summary, indent=2))
    return 0


def cmd_ablate(args) -> int:
    cfg, _ = _load(args)
    report = ablate(cfg, args.mode, args.out)
    for name, status, detail in report["verdicts"]:
        print(f"VERDICT {args.mode} {name} {status} ({detail})")
    print(f"comparison table: {Path(args.out) / 'comparison.csv'}")
    return 0


def cmd_verify(args) -> int:
    report = run_all()
    for line in report.lines():
        print(line)
    if not report.passed:
        print("one or more oracles FAILED")
        return NumericError.exit_code
    print("all oracles PASS")
    return 0


def cmd_eval(args) -> int:
    from .trainer import evaluate_run

    print(json.dumps(evaluate_run(args.run), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unigrpo",
        description="joint group-relative RL for a reasoning policy and a flow generator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="supervised warm starts for both policies")
    _add_common(p, "pretrain")
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("train", help="run the unified training loop")
    _add_common(p, "run")
    p.add_argument("--resume", action="store_true", help="continue from the latest state")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("ablate", help="paired-configuration studies with verdicts")
    _add_common(p, "ablation")
    p.add_argument("--mode", type=str, required=True, choices=MODES)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("verify", help="run every analytic and Monte-Carlo oracle")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("eval", help="re-run a run directory's last evaluation")
    p.add_argument("--run", type=str, required=True,
                   help="run directory: its manifest's config, checkpoints and reference")
    p.set_defaults(fn=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return ConfigError.exit_code
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return CheckpointError.exit_code
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return NumericError.exit_code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
