"""Outside-in instrumentation of the unigrpo modules.

Nothing under src/ knows about it: functions and methods are replaced by
timing wrappers for the duration of a `with Patch():` block and put back
afterwards.  A module-level function is replaced in every loaded
``unigrpo.*`` module that holds it, because the package imports by name
(``from .rng import stream`` in the trainer): patching only the defining
module would silently miss those callers.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

_perf = time.perf_counter


def unigrpo_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "unigrpo" or n.startswith("unigrpo."))]


class Patch:
    """Replaces names for the life of a `with` block and restores them."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def function(self, module: str, attr: str, make_wrapper) -> int:
        """Wrap `module.attr` under every name any unigrpo module binds it to.
        Returns how many bindings were replaced."""
        orig = getattr(sys.modules[module], attr)
        wrapped = make_wrapper(orig)
        hits = 0
        for mod in unigrpo_modules():
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._saved.append((mod, name, orig))
                    setattr(mod, name, wrapped)
                    hits += 1
        return hits

    def method(self, cls: type, attr: str, make_wrapper) -> None:
        orig = cls.__dict__[attr]
        self._saved.append((cls, attr, orig))
        setattr(cls, attr, make_wrapper(orig))

    def restore(self) -> None:
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)
        self._saved.clear()

    def __enter__(self) -> "Patch":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    return int(shape[0]) if len(shape) == 2 else 1


# Spans that set the phase of everything they enclose; everything else is
# "setup".  Per-update layer numbers count only the "train" phase, so
# evaluation passes and the pretraining inside set-up do not inflate them.
PHASE_OF = {"trainer.train": "train", "trainer.evaluate": "eval"}


class Tracer:
    """Aggregates spans in memory, keyed by (span name, phase).

    For each key it keeps calls, total seconds, self seconds (total minus
    the time of directly nested traced spans) and rows.  `counters` holds
    quantities read off return values.
    """

    def __init__(self):
        self.stats: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[list] = []  # [phase, child seconds]

    def phase(self) -> str:
        return self._stack[-1][0] if self._stack else "setup"

    def span(self, name: str, rows=None, after=None):
        """Wrapper factory for Patch.  `rows(args, kwargs)` counts rows of work;
        `after(tracer, phase, args, result)` reads counters off the result."""
        phase_here = PHASE_OF.get(name)

        def make(orig):
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                phase = phase_here or self.phase()
                frame = [phase, 0.0]
                self._stack.append(frame)
                t0 = _perf()
                try:
                    result = orig(*args, **kwargs)
                finally:
                    dt = _perf() - t0
                    self._stack.pop()
                    if self._stack:
                        self._stack[-1][1] += dt
                    st = self.stats[(name, phase)]
                    st[0] += 1
                    st[1] += dt
                    st[2] += dt - frame[1]
                    if rows is not None:
                        st[3] += rows(args, kwargs)
                if after is not None:
                    after(self, phase, args, result)
                return result

            return wrapper

        return make

    def count(self, key: str, phase: str, amount: float) -> None:
        self.counters[(key, phase)] += amount

    # ---- reading ----

    def get(self, name: str, field: str, phase: str | None = None) -> float:
        idx = {"calls": 0, "s": 1, "self_s": 2, "rows": 3}[field]
        return sum(v[idx] for (n, p), v in self.stats.items()
                   if n == name and (phase is None or p == phase))

    def counter(self, key: str, phase: str | None = None) -> float:
        return sum(v for (k, p), v in self.counters.items()
                   if k == key and (phase is None or p == phase))

    def span_calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for (name, _), v in self.stats.items():
            out[name] += v[0]
        return dict(out)

    def exact_counts(self) -> dict:
        """Everything that must repeat exactly on a re-run of the same seed."""
        out = {f"{n}@{p}.calls": v[0] for (n, p), v in self.stats.items()}
        out.update({f"{n}@{p}.rows": v[3] for (n, p), v in self.stats.items() if v[3]})
        out.update({f"{k}@{p}": v for (k, p), v in self.counters.items()})
        return out


def _x_rows(index: int):
    return lambda args, kwargs: _rows(args[index] if len(args) > index else kwargs.get("x"))


def _after_collect(tr: Tracer, phase: str, args, groups) -> None:
    tr.count("groups", phase, len(groups))
    tr.count("degenerate_groups", phase, sum(g.degenerate for g in groups))


def _after_hybrid(tr: Tracer, phase: str, args, traj) -> None:
    tr.count("velocity_evals", phase, traj.velocity_evals)


def _after_param_grads(tr: Tracer, phase: str, args, _result) -> None:
    tr.count("tape_nodes", phase, len(args[0]))


def _after_save(tr: Tracer, phase: str, args, _result) -> None:
    tr.count("checkpoint_bytes", phase, os.path.getsize(args[0]))


def install(patch: Patch, tracer: Tracer) -> list[str]:
    """Wrap every layer boundary the per-layer metrics name; returns the
    span names."""
    from unigrpo.autodiff import Tape
    from unigrpo.flow_policy import FlowPolicy
    from unigrpo.metrics import MetricsWriter
    from unigrpo.text_policy import TextPolicy

    functions = [
        ("unigrpo.trainer", "train", "trainer.train", {}),
        ("unigrpo.trainer", "collect_rollouts", "trainer.collect_rollouts",
         {"after": _after_collect}),
        ("unigrpo.trainer", "unified_update", "trainer.unified_update", {}),
        ("unigrpo.trainer", "evaluate", "trainer.evaluate", {}),
        ("unigrpo.nn", "adam_step", "nn.adam_step", {}),
        ("unigrpo.nn", "mlp_forward_np", "nn.mlp_forward_np", {"rows": _x_rows(1)}),
        ("unigrpo.rng", "stream", "rng.stream", {}),
        ("unigrpo.task", "score", "task.score", {}),
        ("unigrpo.checkpoint", "save_blocks", "checkpoint.save_blocks", {"after": _after_save}),
        ("unigrpo.checkpoint", "load_blocks", "checkpoint.load_blocks", {}),
    ]
    methods = [
        (FlowPolicy, "velocity_np", "flow_policy.velocity_np", {"rows": _x_rows(2)}),
        (FlowPolicy, "hybrid_rollout", "flow_policy.hybrid_rollout", {"after": _after_hybrid}),
        (FlowPolicy, "surrogate_loss", "flow_policy.surrogate_loss", {}),
        (FlowPolicy, "ode_rollout_batch", "flow_policy.ode_rollout_batch", {}),
        (FlowPolicy, "fm_loss_frozen", "flow_policy.fm_loss_frozen", {}),
        (FlowPolicy, "cond_var", "flow_policy.cond_var", {}),
        (TextPolicy, "sample_trace", "text_policy.sample_trace", {}),
        (TextPolicy, "greedy_trace", "text_policy.greedy_trace", {}),
        (TextPolicy, "logits_np", "text_policy.logits_np", {"rows": _x_rows(2)}),
        (TextPolicy, "surrogate_loss", "text_policy.surrogate_loss", {}),
        (TextPolicy, "ce_loss", "text_policy.ce_loss", {}),
        (Tape, "__init__", "autodiff.tape", {}),
        (Tape, "param_grads", "autodiff.param_grads", {"after": _after_param_grads}),
        (MetricsWriter, "write_row", "metrics.write", {}),
        (MetricsWriter, "write_group_record", "metrics.write", {}),
    ]
    for module, attr, name, kw in functions:
        if patch.function(module, attr, tracer.span(name, **kw)) == 0:
            raise RuntimeError(f"{module}.{attr} is bound nowhere")
    for cls, attr, name, kw in methods:
        patch.method(cls, attr, tracer.span(name, **kw))
    return sorted({e[2] for e in functions + methods})
