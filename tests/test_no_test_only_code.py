"""Every function and method in src/unigrpo has a caller in src/unigrpo."""

import ast
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_function_is_referenced_in_the_package():
    trees = [ast.parse(p.read_text()) for p in sorted((ROOT / "src/unigrpo").glob("*.py"))]
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
