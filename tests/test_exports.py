"""The export lists of the package modules name what exists, and the
package's signatures and imports carry nothing dead.

Every module of `povmbell` declares `__all__`. Each name listed there must
exist in its module, and the package namespace must re-export exactly the
names its library modules list, so deleting a function without its exports
(or an export without its function) fails here rather than at a user's
`import *`; `PUBLIC_NAMES` pins that list. Every exported function and
class, called with junk, returns or raises a `PovmBellError`. The checks run
against one fixed table of tolerances (`DEFAULT_POLICY`), so no callable
takes a tolerance argument. No linter is assumed, so an `ast` walk stands in
for an unused-import check; another finds caller input converted anywhere
but `qcore._as_array`, a third the scalar qubit POVM verdict named
anywhere but in `measurement.validate_povm` and the CLI's arm kernel, and
more the private kernels (the unchecked sweep and which-way arm kernels,
and the kernels of the one-row commands, the qubit axiom certificate among
them) named outside their callers.
Every function the benchmark's tracer wraps must exist, or `--trace 1` fails.
Importing the library does not load the CLI, and the event-log codec it
re-exports is the one `sampler` defines and `cli` imports. The README's
Library example runs as written and prints what its comment shows.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import povmbell
from povmbell import PovmBellError, cli

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


def library_exports() -> dict[str, object]:
    """Each name of the union of the library modules' `__all__` lists, and its value."""
    exports = {}
    for name in sorted(set(MODULES) - FRONT_END):
        module = importlib.import_module(f"povmbell.{name}")
        exports.update((export, getattr(module, export)) for export in module.__all__)
    return exports


def test_package_reexports_nothing_else():
    public = {
        name
        for name, value in vars(povmbell).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(library_exports())


# the public surface of `povmbell`: adding or removing an export is a one-line diff here
PUBLIC_NAMES = (
    "BellConfig",
    "BivariateWhichWay",
    "CHSH_PAIRS",
    "CHSH_SIGNS",
    "ChshReport",
    "ComplexMatrix",
    "ConfigError",
    "DEFAULT_POLICY",
    "DomainError",
    "Effect",
    "EventLog",
    "GENERATOR_NAME",
    "HeisenbergCheck",
    "InvariantViolationError",
    "LOG_CHUNK",
    "MartensCurve",
    "MartensReport",
    "NonidealityMatrix",
    "NotCompleteError",
    "NotHermitianError",
    "NotPositiveError",
    "NumericPolicy",
    "OutcomeDistribution",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "PolarizationAngle",
    "Povm",
    "PovmBellError",
    "PovmValidationError",
    "Pvm",
    "QUAD_LABELS",
    "QuadrivariateBell",
    "ShapeMismatchError",
    "StateDescriptor",
    "WW_LABELS",
    "WhichWayConfig",
    "as_matrix",
    "born_probabilities",
    "born_values",
    "build_bell",
    "build_whichway",
    "certainty_check",
    "chsh_aspect",
    "chsh_report_from_distribution",
    "chsh_single_run",
    "correlation_from_distribution",
    "empirical_chsh",
    "empirical_frequencies",
    "expectation",
    "heisenberg_check",
    "identity",
    "joint_distribution",
    "marginals_and_nonideality",
    "marginals_from_distribution",
    "martens_bound",
    "martens_check",
    "martens_sweep",
    "measured_marginals",
    "polarization_pvm",
    "projector_from_angle",
    "quad_distribution",
    "read_event_log",
    "row_entropy",
    "sample",
    "singlet_state",
    "validate_effect_stack",
    "validate_povm",
    "write_event_log",
)


def test_public_surface_is_pinned():
    assert PUBLIC_NAMES == tuple(sorted(PUBLIC_NAMES))
    assert tuple(sorted(library_exports())) == PUBLIC_NAMES


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


# the scalar qubit POVM verdict, whose one caller is `validate_povm`
VERDICT = "_qubit_class"
# the unchecked Martens curve kernel, whose callers check its grid first
KERNEL, KERNEL_CALLERS = "_curve_columns", ("martens_sweep", "run_martens_sweep")


def private_references(source: str, name: str, owners: tuple[str, ...]) -> list[str]:
    """`function: reference` for each name, attribute, import or string in
    `source` that is `name`, outside the functions `owners`; code outside any
    function counts as `<module>`. An import that binds `name` to itself is
    let through: every use of that binding is a reference."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.alias) and child.name == name and child.asname is None:
                continue
            names = (
                getattr(child, "id", None),
                getattr(child, "attr", None),
                child.name if isinstance(child, ast.alias) else None,
                child.value if isinstance(child, ast.Constant) else None,
            )
            if name in names and owner not in owners:
                found.append(f"{owner}: {ast.unparse(child)}")
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda path: path.name)
def test_only_validate_povm_reaches_the_scalar_verdict(path):
    # and the CLI's arm kernel, which certifies the entries of the arm it forms
    assert callable(getattr(povmbell.measurement, VERDICT))
    assert private_references(path.read_text(), VERDICT, ("validate_povm", "_arm")) == []


def test_verdict_check_finds_other_callers():
    source = (
        "from .measurement import _qubit_class as verdict\n"
        "CHECK = measurement._qubit_class\n"
        "def validate_povm(stack):\n"
        "    return _qubit_class(stack.tolist())\n"
        "def validate_effect_stack(stack):\n"
        "    def inner():\n"
        "        return getattr(measurement, '_qubit_class')\n"
        "    return _qubit_class(stack.tolist())\n"
    )
    assert private_references(source, VERDICT, ("validate_povm",)) == [
        "<module>: _qubit_class as verdict",
        "<module>: measurement._qubit_class",
        "inner: '_qubit_class'",
        "validate_effect_stack: _qubit_class",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda path: path.name)
def test_only_the_checked_sweeps_reach_the_curve_kernel(path):
    assert callable(getattr(povmbell.infometrics, KERNEL))
    assert private_references(path.read_text(), KERNEL, KERNEL_CALLERS) == []


def test_kernel_check_finds_other_callers():
    source = (
        "from .infometrics import _curve_columns\n"
        "from .infometrics import _curve_columns as columns\n"
        "def martens_sweep(grid):\n"
        "    return _curve_columns(grid, 0.0)\n"
        "def run_martens_sweep(spec):\n"
        "    return (_curve_columns(piece, 0.0).T for piece in spec)\n"
        "def run_whichway(spec):\n"
        "    return infometrics._curve_columns(spec, 0.0)\n"
        "def martens_check(whichway):\n"
        "    def inner():\n"
        "        return getattr(infometrics, '_curve_columns')\n"
        "    return _curve_columns(whichway, 0.0)\n"
    )
    assert private_references(source, KERNEL, KERNEL_CALLERS) == [
        "<module>: _curve_columns as columns",
        "run_whichway: infometrics._curve_columns",
        "inner: '_curve_columns'",
        "martens_check: _curve_columns",
    ]


# the unchecked which-way arm kernel: `build_whichway` and the CLI's arm kernel
# `_arm` check the effects it forms, and the tests prove the Aspect corners
ARM_KERNEL, ARM_KERNEL_CALLERS = "_effect_rows", ("build_whichway", "_arm", "_aspect_correlations")


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda path: path.name)
def test_only_the_checked_arms_reach_the_arm_kernel(path):
    assert callable(getattr(povmbell.whichway, ARM_KERNEL))
    assert private_references(path.read_text(), ARM_KERNEL, ARM_KERNEL_CALLERS) == []


def test_arm_kernel_check_finds_other_callers():
    source = (
        "from .whichway import _effect_rows\n"
        "from .whichway import _effect_rows as arm\n"
        "def build_whichway(config):\n"
        "    return validate_povm(_effect_rows(config.gamma, 0.0, 0.0), WW_LABELS)\n"
        "def _aspect_correlations(state, angles):\n"
        "    return [whichway._effect_rows(gamma, 0.0, 0.0) for gamma in (1.0, 0.0)]\n"
        "def _arm(gamma, theta_deg, theta_prime_deg):\n"
        "    return _qubit_class(_effect_rows(gamma, 0.0, 0.0))\n"
        "def run_whichway(spec):\n"
        "    return whichway._effect_rows(spec.gamma, 0.0, 0.0)\n"
        "def build_bell(config):\n"
        "    def inner():\n"
        "        return getattr(whichway, '_effect_rows')\n"
        "    return _effect_rows(config.gamma, 0.0, 0.0)\n"
    )
    assert private_references(source, ARM_KERNEL, ARM_KERNEL_CALLERS) == [
        "<module>: _effect_rows as arm",
        "run_whichway: whichway._effect_rows",
        "inner: '_effect_rows'",
        "build_bell: _effect_rows",
    ]


# The private kernels of the one-row commands: kernel -> (its module, the only
# functions that may name it). Each is reached from its checked public entry,
# and from the runners that hand it values the library made: the scalar axiom
# certificate of a qubit stack (`_qubit_certificate`, the first half of the
# verdict `_qubit_class`, which the arm kernel runs alone where no class is
# needed), the array path of the POVM check (`_povm_class`), the Born einsum
# and its residue check (`_born`), the value checks, clamp and renormalization
# of a distribution (`_probabilities`), the CHSH values (`_chsh`) and the four
# pooled Aspect correlations (`_aspect_correlations`).
PRIVATE_KERNELS = {
    "_qubit_certificate": ("measurement", ("_qubit_class", "_arm")),
    "_povm_class": ("measurement", ("validate_povm", "_arm")),
    "_born": (
        "measurement",
        ("born_values", "_aspect_correlations", "run_whichway", "run_bell", "run_sample"),
    ),
    "_probabilities": (
        "measurement",
        ("from_values", "_aspect_correlations", "run_whichway", "run_bell", "run_sample"),
    ),
    "_chsh": ("bell", ("_combine", "_chsh_cells", "run_sample")),
    "_aspect_correlations": ("bell", ("chsh_aspect", "run_aspect")),
}


@pytest.mark.parametrize("kernel", PRIVATE_KERNELS)
@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda path: path.name)
def test_only_the_named_callers_reach_each_kernel(path, kernel):
    module, callers = PRIVATE_KERNELS[kernel]
    assert callable(getattr(importlib.import_module(f"povmbell.{module}"), kernel))
    assert private_references(path.read_text(), kernel, callers) == []


@pytest.mark.parametrize("kernel", PRIVATE_KERNELS)
def test_each_kernel_check_finds_other_callers(kernel):
    module, callers = PRIVATE_KERNELS[kernel]
    source = f"from .{module} import {kernel}\nfrom .{module} import {kernel} as alias\n"
    source += "".join(f"def {caller}(x):\n    return {kernel}(x)\n" for caller in callers)
    source += (
        "def stranger(x):\n"
        "    def inner():\n"
        f"        return getattr({module}, '{kernel}')\n"
        f"    return {module}.{kernel}(x)\n"
    )
    assert private_references(source, kernel, callers) == [
        f"<module>: {kernel} as alias",
        f"inner: '{kernel}'",
        f"stranger: {module}.{kernel}",
    ]


# the one unchecked path to a record, and the call sites that made and checked
# every field of the record they build with it
TRUSTED = "_trusted"
TRUSTED_CALLERS = (
    "validate_povm",
    "from_values",
    "_joint_povm",
    "marginals_and_nonideality",
    "martens_sweep",
    "sample",
    "read_event_log",
    "spec_from_dict",
    # the checked Povm `sample` takes, of the stack and class the arm kernel `_arm` checked
    "_arm_povm",
    # a pure state of the array `cli.resolve_state` normalized, after the constructor's
    # finiteness and unit-norm checks, which `_pure_state` runs itself
    "_pure_state",
    # the Born distribution `sample` takes, which `run_sample` made by `_born` and
    # `_probabilities` on the checked stack of the POVM it hands over, with its constant labels
    "run_sample",
)


def trusted_path_breaches(source: str) -> list[str]:
    """References to the trusted path outside its named callers, then every
    `__new__` outside the path itself: the only way around a record's constructor."""
    return private_references(source, TRUSTED, TRUSTED_CALLERS) + private_references(source, "__new__", (TRUSTED,))


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda path: path.name)
def test_only_the_named_call_sites_build_unchecked_records(path):
    assert callable(getattr(povmbell.qcore, TRUSTED))
    assert trusted_path_breaches(path.read_text()) == []


def test_trusted_path_check_finds_other_callers():
    source = (
        "from .qcore import _trusted\n"
        "from .qcore import _trusted as trusted\n"
        "def _trusted(cls, **fields):\n"
        "    record = object.__new__(cls)\n"
        "    return record\n"
        "def validate_povm(stack, labels):\n"
        "    return _trusted(Povm, stack=stack, labels=labels)\n"
        "def build_whichway(config):\n"
        "    return qcore._trusted(BivariateWhichWay, config=config)\n"
        "def polarization_pvm(theta):\n"
        "    def inner():\n"
        "        return getattr(qcore, '_trusted')\n"
        "    return object.__new__(Pvm)\n"
        "FACTORY = getattr(object, '__new__')\n"
    )
    assert trusted_path_breaches(source) == [
        "<module>: _trusted as trusted",
        "build_whichway: qcore._trusted",
        "inner: '_trusted'",
        "polarization_pvm: object.__new__",
        "<module>: '__new__'",
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


# Junk for the library's parameters: ragged lists, strings, None, nested
# objects and 0-d arrays. Text holds no path separator, so a junk path names
# a file in the working directory, which the test sets to a scratch one.
# Integers stay small: identity(n) of a large n is an honest allocation.
JUNK_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.text(st.characters(blacklist_characters="/\\"), max_size=3),
    st.builds(object),
    st.builds(np.array, st.floats() | st.integers(-3, 3) | st.complex_numbers() | st.text(max_size=2)),
    st.just([[1.0], [0.0, 1.0]]),
)
JUNK = st.recursive(
    JUNK_LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


def _plausible() -> dict[str, tuple]:
    """Values a parameter of this name accepts, by name, so that a call can
    pass its other parameters and reach the junk in one of them."""
    one, pair = povmbell.StateDescriptor.pure([1.0, 0.0]), povmbell.singlet_state()
    arm = povmbell.WhichWayConfig(0.3, 0.1, 0.9)
    whichway = povmbell.build_whichway(arm)
    bell = povmbell.build_bell(povmbell.BellConfig(arm, arm, pair))
    dist = povmbell.quad_distribution(bell)
    angle = (0.1,)
    return {
        "arm1": (arm,),
        "arm2": (arm,),
        "bell": (bell,),
        "config": (arm, bell.config, "c"),
        "config_descriptor": ("", "c"),
        "dim": (2,),
        "dist": (dist, povmbell.joint_distribution(whichway, one)),
        "distribution": (dist,),
        "entries": (np.eye(2),),
        "gamma": (0.3,),
        "gammas": ([0.0, 0.5],),
        "generator": ("g",),
        "indices": ([0, 1],),
        "label": ("x",),
        "label_set": (("a", "b"),),
        "labels": (povmbell.WW_LABELS, povmbell.QUAD_LABELS),
        "log": (povmbell.sample(bell.povm, pair, 5, 1),),
        "matrix": (np.eye(2), np.eye(2) / 2),
        "n": (3,),
        "op": (povmbell.PAULI_Z,),
        "op_a": (povmbell.PAULI_X,),
        "op_b": (povmbell.PAULI_Z,),
        "pair": (("D1", "D2"),),
        "path": ("events.log",),
        "povm": (whichway.povm, bell.povm),
        "probs": ([0.5, 0.5],),
        "seed": (1,),
        "stack": (whichway.povm.stack,),
        "state": (one, pair),
        "theta": angle,
        "theta_prime": angle,
        "theta1": angle,
        "theta1_prime": angle,
        "theta2": angle,
        "theta2_prime": angle,
        "values": (np.eye(2),),
        "vector": ([1.0, 0.0],),
        "whichway": (whichway,),
    }


PLAUSIBLE = _plausible()
# package objects where they do not belong count as junk too
JUNK_ARGUMENT = JUNK | st.sampled_from([value for values in PLAUSIBLE.values() for value in values])
# the functions and classes the package exports, called with junk
EXPORTED_CALLABLES = sorted(
    name for name, value in library_exports().items() if inspect.isfunction(value) or inspect.isclass(value)
)
# the event-log codec, whose file name may name no file that can be read or written
CODEC = {"read_event_log", "write_event_log"}


# the front end's functions and classes, and values of their parameters'
# names; a config of the plausible command line is written by the test class
FRONT_END_CALLABLES = sorted(name for name in cli.__all__ if callable(getattr(cli, name)))
FRONT_END_PLAUSIBLE = {
    **PLAUSIBLE,
    "argv": (["whichway", "--config", "whichway.json"],),
    "expected_dim": (2, 4),
    "payload": ({"kind": "aspect", **dict.fromkeys(("theta1_deg", "theta1_prime_deg", "theta2_deg"), 0.0),
                 "theta2_prime_deg": 45.0, "state": "singlet"},),
    "spec": (cli.spec_from_dict({"kind": "sweep-martens", "delta_deg": 30.0, "gamma_grid": [0.5]}),),
}


def junk_call(value, data, plausible_values=PLAUSIBLE) -> tuple[list, dict]:
    """Arguments for `value`: junk in one drawn parameter, or in none, values
    of its name before it, values or junk after it; each optional parameter
    passed or not."""
    try:
        parameters = inspect.signature(value).parameters.values()
    except ValueError:  # an exception class with the builtin constructor
        return data.draw(st.lists(JUNK_ARGUMENT, max_size=2)), {}
    parameters = [p for p in parameters if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]
    target = data.draw(st.integers(0, len(parameters)), label="junk at")
    args, kwargs = [], {}
    for i, p in enumerate(parameters):
        plausible = st.sampled_from(plausible_values[p.name]) if p.name in plausible_values else JUNK_ARGUMENT
        if i == target:
            argument = JUNK_ARGUMENT
        else:
            argument = plausible if i < target else plausible | JUNK_ARGUMENT
        if p.default is p.empty:
            args.append(data.draw(argument, label=p.name))
        elif i == target or data.draw(st.booleans(), label=f"pass {p.name}"):
            kwargs[p.name] = data.draw(argument, label=p.name)
    return args, kwargs


class TestJunkInput:
    """Every export, called with junk, returns or raises a PovmBellError. So
    does every function of the front end `cli` but `main`, whose contract is
    the process's exit code: it returns one, or argparse raises SystemExit(2)."""

    @pytest.fixture(scope="class", autouse=True)
    def scratch_directory(self, tmp_path_factory):
        home = os.getcwd()
        os.chdir(tmp_path_factory.mktemp("junk"))
        whichway = {"gamma": 0.3, "theta_deg": 10.0, "theta_prime_deg": 50.0, "state": [0.6, [0.0, 0.8]]}
        Path("whichway.json").write_text(json.dumps(whichway), encoding="utf-8")
        yield
        os.chdir(home)

    @pytest.mark.parametrize("name", EXPORTED_CALLABLES)
    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(data=st.data())
    def test_returns_or_raises_a_package_error(self, name, data):
        value = getattr(povmbell, name)
        args, kwargs = junk_call(value, data)
        try:
            value(*args, **kwargs)
        except PovmBellError:
            pass
        except OSError:
            assert name in CODEC, f"{name} raised OSError"

    @pytest.mark.parametrize("name", FRONT_END_CALLABLES)
    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(data=st.data())
    def test_front_end_returns_or_raises_a_package_error(self, name, data):
        value = getattr(cli, name)
        args, kwargs = junk_call(value, data, FRONT_END_PLAUSIBLE)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                returned = value(*args, **kwargs)
        except PovmBellError:
            assert name != "main", "main let a package error through"
        except OSError:
            assert name in CODEC, f"{name} raised OSError"
        except SystemExit as exc:
            assert (name, exc.code) == ("main", 2)
        else:
            if name == "main":
                assert returned in (0, 2, 3, 4)
