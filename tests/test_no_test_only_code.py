"""Rules over the syntax of src/unigrpo: every function and method has a
caller there, and one defined outside verify.py a caller outside it too;
every defaulted parameter is passed there, the command line hides no
option, and no check is an `assert`."""

import ast
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src/unigrpo").glob("*.py"))


def _uses(tree: ast.Module) -> set[str]:
    """The names `tree` references, as a name or an attribute."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # an attribute read off numpy (np.tanh) is no use of a method of that name
    used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
             and not (isinstance(n.value, ast.Name) and n.value.id in ("np", "numpy"))}
    return used


def test_every_function_is_referenced_in_the_package():
    trees = [ast.parse(p.read_text()) for p in SOURCES]
    defined = {n.name for tree in trees for n in ast.walk(tree)
               if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (n.name.startswith("__") and n.name.endswith("__"))}
    used = set().union(*map(_uses, trees))
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    used |= {target.rsplit(":", 1)[-1] for target in scripts.values()}
    unused = sorted(defined - used)
    assert not unused, f"referenced nowhere in src/unigrpo: {', '.join(unused)}"


def test_no_function_serves_only_the_oracle_battery():
    # verify's oracles check the code that trains: a module-level function or
    # a method of a module-level class defined elsewhere that only verify.py
    # references is math no training path runs, or a helper that belongs in
    # verify.py.  The benchmark's tracer (perfbench/*.py) reads run counters
    # off the package, FlowBatch.velocity_evals among them, so its references
    # count as uses.
    trees = {p.stem: ast.parse(p.read_text()) for p in SOURCES}
    battery = trees.pop("verify")
    scopes = [n for tree in trees.values() for n in tree.body]
    scopes += [n for c in scopes if isinstance(c, ast.ClassDef) for n in c.body]
    defined = {n.name for n in scopes if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (n.name.startswith("__") and n.name.endswith("__"))}
    benchmark = [ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    used = set().union(*map(_uses, [*trees.values(), *benchmark]))
    only_battery = sorted(defined & _uses(battery) - used)
    assert not only_battery, f"referenced only from verify.py: {', '.join(only_battery)}"


def test_no_assert_statements():
    # `python -O` drops asserts: a check that must hold raises instead
    found = [f"{p.name}:{n.lineno}" for p in SOURCES for n in ast.walk(ast.parse(p.read_text()))
             if isinstance(n, ast.Assert)]
    assert not found, f"assert statements in src/unigrpo: {', '.join(found)}"


def test_cli_hides_no_option():
    # a hidden option has no user but a test
    tree = ast.parse((ROOT / "src/unigrpo/cli.py").read_text())
    hidden = [n.lineno for n in ast.walk(tree)
              if isinstance(n, ast.Attribute) and n.attr == "SUPPRESS"]
    assert not hidden, f"argparse.SUPPRESS in cli.py at lines {hidden}"


def _defaulted_parameters(tree, module: str):
    """(qualified name, callee name, parameter, position or None if keyword-only)
    of each defaulted parameter of the module-level functions and the methods of
    module-level classes; a method's position counts from after self, and a
    class called by name stands for its __init__."""
    scopes = [(None, n) for n in tree.body]
    scopes += [(c.name, n) for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body]
    for owner, fn in scopes:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in fn.decorator_list)
        skip = 0 if owner is None or static else 1
        callee = owner if fn.name == "__init__" else fn.name
        qualified = f"{module}.{owner + '.' if owner else ''}{fn.name}"
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield qualified, callee, arg.arg, i - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield qualified, callee, arg.arg, None


def _passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    if any(kw.arg in (parameter, None) for kw in call.keywords):  # None: a ** mapping
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_defaulted_parameter_is_passed_in_the_package():
    # a defaulted parameter that no package call passes is a constant, or a
    # knob only tests turn; cli.main's argv is the console script's
    trees = {p.stem: ast.parse(p.read_text()) for p in SOURCES}
    calls = {}
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                name = n.func.id if isinstance(n.func, ast.Name) else \
                    n.func.attr if isinstance(n.func, ast.Attribute) else None
                calls.setdefault(name, []).append(n)
    unpassed = [f"{qualified}({parameter})"
                for module, tree in trees.items()
                for qualified, callee, parameter, position in _defaulted_parameters(tree, module)
                if qualified != "cli.main"
                and not any(_passes(c, parameter, position) for c in calls.get(callee, []))]
    assert not unpassed, f"passed by no call in src/unigrpo: {', '.join(unpassed)}"
