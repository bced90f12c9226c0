"""Rules over the syntax of src/unigrpo: every function and method has a
caller there, and no check is an `assert`."""

import ast
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src/unigrpo").glob("*.py"))


def test_every_function_is_referenced_in_the_package():
    trees = [ast.parse(p.read_text()) for p in SOURCES]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    defined = {n.name for n in nodes if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (n.name.startswith("__") and n.name.endswith("__"))}
    used = {n.id for n in nodes if isinstance(n, ast.Name)}
    # an attribute read off numpy (np.tanh) is no use of a method of that name
    used |= {n.attr for n in nodes if isinstance(n, ast.Attribute)
             and not (isinstance(n.value, ast.Name) and n.value.id in ("np", "numpy"))}
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    used |= {target.rsplit(":", 1)[-1] for target in scripts.values()}
    unused = sorted(defined - used)
    assert not unused, f"referenced nowhere in src/unigrpo: {', '.join(unused)}"


def test_no_assert_statements():
    # `python -O` drops asserts: a check that must hold raises instead
    found = [f"{p.name}:{n.lineno}" for p in SOURCES for n in ast.walk(ast.parse(p.read_text()))
             if isinstance(n, ast.Assert)]
    assert not found, f"assert statements in src/unigrpo: {', '.join(found)}"
