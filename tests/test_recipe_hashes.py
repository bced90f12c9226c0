"""tools/recipe_hashes.py: the comparison it prints, with the recipe's runs
replaced by canned hashes."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("recipe_hashes", ROOT / "tools/recipe_hashes.py")
recipe_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(recipe_hashes)

RECORDED = {"desk/metrics.csv": "aa", "guided/state.ckpt": "bb", "verify/oracles": "cc"}
GOT = {"desk/metrics.csv": "aa", "guided/state.ckpt": "b2", "verify/oracles": "cc"}


@pytest.fixture
def canned(tmp_path, monkeypatch):
    hashes = tmp_path / "recipe_hashes.json"
    hashes.write_text(json.dumps(RECORDED, indent=2) + "\n")
    monkeypatch.setattr(recipe_hashes, "HASHES", hashes)
    monkeypatch.setattr(recipe_hashes, "recipe_hashes", lambda work: dict(GOT))
    return hashes


def _main(monkeypatch, *args) -> int:
    monkeypatch.setattr(sys, "argv", ["recipe_hashes.py", *args])
    return recipe_hashes.main()


def test_compare_reports_each_hash_and_fails_on_a_mismatch(canned, monkeypatch, capsys):
    assert _main(monkeypatch) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "ok       desk/metrics.csv",
        "MISMATCH guided/state.ckpt: got b2, want bb",
        "ok       verify/oracles",
        "2/3 hashes match",
    ]
    assert json.loads(canned.read_text()) == RECORDED


def test_write_prints_what_moved_then_records(canned, monkeypatch, capsys):
    assert _main(monkeypatch, "--write") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == [
        "ok       desk/metrics.csv",
        "MISMATCH guided/state.ckpt: got b2, want bb",
        "ok       verify/oracles",
        "2/3 hashes match",
    ]
    assert lines[4] == f"wrote 3 hashes to {canned}"
    assert json.loads(canned.read_text()) == GOT
    assert _main(monkeypatch) == 0
