"""Negative controls of the `unigrpo verify` battery: a fault planted in the
code that trains must fail the oracle that certifies that code, so no
oracle passes by checking a copy of the math the training path does not
run."""

import __future__
import inspect
import textwrap

import pytest

from unigrpo import task, verify
from unigrpo.flow_policy import FlowPolicy, StepTable


def _mutant(fn, old: str, new: str):
    """`fn` recompiled from its source with the one occurrence of `old`
    replaced by `new`, in `fn`'s module globals."""
    src = textwrap.dedent(inspect.getsource(fn))
    assert src.count(old) == 1, f"{fn.__qualname__} no longer holds {old!r}"
    namespace = {}
    code = compile(src.replace(old, new), inspect.getsourcefile(fn), "exec",
                   __future__.annotations.compiler_flag, dont_inherit=True)
    exec(code, fn.__globals__, namespace)
    return namespace[fn.__name__]


@pytest.mark.parametrize("owner,fn,old,new,oracle", [
    pytest.param(FlowPolicy, "prepare_batch", "kappa = c1[:, 0]**2", "kappa = 2.0 * c1[:, 0]**2",
                 verify.latent_kl_oracle, id="kappa-doubled"),
    pytest.param(FlowPolicy, "surrogate_loss", "((mu - b.mu_old) * b.eps)",
                 "((b.mu_old - mu) * b.eps)", verify.rationorm_oracle, id="log-ratio-sign"),
    pytest.param(StepTable, "transition_mean", "(c1 * v + c2 * x)", "(c1 * v)",
                 verify.sde_marginal_oracle, id="c2-dropped"),
])
def test_planted_fault_fails_its_oracle(owner, fn, old, new, oracle, monkeypatch):
    assert oracle().passed
    monkeypatch.setattr(owner, fn, _mutant(getattr(owner, fn), old, new))
    assert not oracle().passed


def test_reward_width_inside_score_fails_headroom(monkeypatch):
    # score reads task.TAU_R when it runs; the oracle's closed form keeps
    # the documented width
    assert verify.reward_headroom_oracle().passed
    monkeypatch.setattr(task, "TAU_R", 0.6)
    assert not verify.reward_headroom_oracle().passed
