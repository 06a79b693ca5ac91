"""The export lists of the package modules name what exists, and the
package's signatures and imports carry nothing dead.

Every module of `povmbell` declares `__all__`. Each name listed there must
exist in its module, and the package namespace must re-export exactly the
names its library modules list, so deleting a function without its exports
(or an export without its function) fails here rather than at a user's
`import *`. The checks run against one fixed table of tolerances
(`DEFAULT_POLICY`), so no callable takes a tolerance argument. No linter is
assumed, so an `ast` walk stands in for an unused-import check; another
finds caller input converted anywhere but `qcore._as_array`. Every
function the benchmark's tracer wraps must exist, or `--trace 1` fails.
Importing the library does not load the CLI, and the event-log codec it
re-exports is the one `sampler` defines and `cli` imports. The README's
Library example runs as written and prints what its comment shows.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import povmbell

MODULES = sorted(info.name for info in pkgutil.iter_modules(povmbell.__path__))
# the command-line front end is reached as `povmbell.cli`; importing the
# library does not load it
FRONT_END = {"cli"}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists_and_is_reexported(name):
    module = importlib.import_module(f"povmbell.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"povmbell.{name}.__all__ repeats a name"
    assert [n for n in exported if not hasattr(module, n)] == []
    if name not in FRONT_END:
        assert [n for n in exported if getattr(povmbell, n, None) is not getattr(module, n)] == []


def test_package_reexports_nothing_else():
    listed = set()
    for name in sorted(set(MODULES) - FRONT_END):
        listed.update(importlib.import_module(f"povmbell.{name}").__all__)
    public = {
        name
        for name, value in vars(povmbell).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == listed


def _own_callables(module):
    """(qualified name, callable) for each function and class `module` defines,
    and for the functions, classmethods and staticmethods of those classes;
    `inspect.signature` of a class is its constructor's."""
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield value.__qualname__, value
        elif inspect.isclass(value):
            yield value.__qualname__, value
            for attr in vars(value).values():
                if isinstance(attr, (classmethod, staticmethod)):
                    attr = attr.__func__
                if inspect.isfunction(attr):
                    yield attr.__qualname__, attr


def parameter_names(value) -> set[str]:
    try:
        return set(inspect.signature(value).parameters)
    except ValueError:  # a class with a builtin constructor only, as the errors are
        return set()


@pytest.mark.parametrize("name", MODULES)
def test_no_callable_takes_a_policy_argument(name):
    module = importlib.import_module(f"povmbell.{name}")
    offenders = [
        qualname for qualname, value in _own_callables(module) if "policy" in parameter_names(value)
    ]
    assert offenders == []


def test_policy_check_sees_constructors_and_classmethods():
    seen = dict(_own_callables(importlib.import_module("povmbell.qcore")))
    assert seen["StateDescriptor"] is povmbell.StateDescriptor
    assert "amplitudes" in inspect.signature(seen["StateDescriptor.pure"]).parameters


PACKAGE_DIR = Path(povmbell.__file__).parent
TESTS_DIR = Path(__file__).parent
# the package's __init__ imports only to re-export
SOURCES = sorted(
    [path for path in PACKAGE_DIR.glob("*.py") if path.name != "__init__.py"]
    + list(TESTS_DIR.glob("*.py")),
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in `source` that it never uses or lists in `__all__`."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_finds_dead_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from a import b, c as d, e\n"
        "__all__ = ['e']\n"
        "def f(x: b) -> None: ...\n"
    )
    assert unused_imports(source) == ["os", "d"]


CONVERTERS = {"np.array", "np.asarray", "np.ndim", "float"}


def raw_conversions(source: str) -> list[str]:
    """`function: call` for each call in `source` outside `_as_array` that hands
    one of its function's own parameters, or `self.<field>` inside
    `__post_init__`, to one of CONVERTERS: caller input converted around the
    one input boundary."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef) or func.name == "_as_array":
            continue
        params = {arg.arg for arg in func.args.posonlyargs + func.args.args + func.args.kwonlyargs}
        for call in ast.walk(func):
            if not (isinstance(call, ast.Call) and call.args and ast.unparse(call.func) in CONVERTERS):
                continue
            arg = call.args[0]
            own = isinstance(arg, ast.Name) and arg.id in params
            field = func.name == "__post_init__" and ast.unparse(arg).startswith("self.")
            if own or field:
                found.append(f"{func.name}: {ast.unparse(call)}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda path: path.name)
def test_caller_input_is_converted_only_at_the_boundary(path):
    assert raw_conversions(path.read_text()) == []


def test_conversion_check_finds_raw_conversions():
    source = (
        "def _as_array(values, dtype):\n"
        "    return np.asarray(values, dtype)\n"
        "def f(x, *, y):\n"
        "    z = [y]\n"
        "    return np.array(x), float(z), np.ndim(y.shape), np.asarray(y, dtype=float)\n"
        "class C:\n"
        "    def __post_init__(self):\n"
        "        float(self.theta)\n"
        "    def g(self):\n"
        "        return float(self.theta)\n"
    )
    assert raw_conversions(source) == [
        "f: np.array(x)",
        "f: np.asarray(y, dtype=float)",
        "__post_init__: float(self.theta)",
    ]


def traced_functions() -> tuple[str, ...]:
    """`FUNCTIONS` of `perfbench/tracer.py`, run from its source (no bytecode is written)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tracer = types.ModuleType("tracer")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracer.__dict__)
    return tracer.FUNCTIONS


def test_every_traced_name_resolves():
    unresolved = []
    for qualified in traced_functions():
        module_name, _, attr = qualified.partition(".")
        owner = importlib.import_module(f"povmbell.{module_name}")
        if "." in attr:  # a classmethod, which the tracer replaces on its class
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name, None)
            found = isinstance(getattr(cls, "__dict__", {}).get(method), classmethod)
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            unresolved.append(qualified)
    assert unresolved == []


def test_importing_the_package_leaves_the_front_end_unloaded():
    # a fresh interpreter, since this one has loaded `povmbell.cli` for other tests
    code = (
        "import sys, povmbell, povmbell.sampler as sampler\n"
        "assert 'povmbell.cli' not in sys.modules\n"
        "import povmbell.cli as cli\n"
        "for name in ('read_event_log', 'write_event_log'):\n"
        "    assert getattr(povmbell, name) is getattr(sampler, name) is getattr(cli, name), name\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_readme_library_example_runs_and_prints_its_comment():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    code = re.search(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S).group(1)
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    # the example's first print is `dist.as_dict()`, its output in the comment beside it
    documented = ast.literal_eval(re.search(r"print\(dist\.as_dict\(\)\)\s*# (\{.*\})", code).group(1))
    printed = ast.literal_eval(result.stdout.splitlines()[0])
    assert list(printed) == list(documented)
    assert all(abs(printed[key] - documented[key]) <= 1e-12 for key in documented)
