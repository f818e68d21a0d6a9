"""Every name a library module imports is used in that module, no library
module imports another's private (underscore-prefixed) name, importing the
library loads no SciPy, no message is raised from two places, only
build_p6 and p6_eigen_coeffs construct a Sextic, every midpoint step and
Cayley factor comes from the one stepping loop of flows, and no function or
dataclass takes the integer frequencies, which the mode set fixes."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qnls"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> set[str]:
    """Names bound by the imports of a module that nothing else in it reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - used


def test_scanner_flags_an_unused_name():
    src = "from .poly import HomPoly, MonomialKey\nimport numpy as np\nHomPoly(np)\n"
    assert unused_imports(src) == {"MonomialKey"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == set()


def private_imports(source: str) -> set[str]:
    """Underscore-prefixed names, dunders aside, that a library module imports
    from another qnls module."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "qnls"):
            names |= {a.name for a in node.names
                      if a.name.startswith("_") and not a.name.endswith("__")}
    return names


def test_scanner_flags_a_private_name():
    src = ("from . import __version__, poly\nfrom .poly import _from_arrays, HomPoly\n"
           "from qnls.spectral import _posy_ascent\nfrom numpy import _NoValue\n")
    assert private_imports(src) == {"_from_arrays", "_posy_ascent"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == set()


def test_import_loads_no_scipy():
    # SciPy is imported inside the two routines that use it (sparse matrices
    # in the gradient plan, eigh in the Sturm-Liouville solve)
    code = "import sys, qnls; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def raise_messages(sources: dict[str, str]) -> dict[str, list[str]]:
    """Each string literal that is the first argument of a raised exception,
    with every place (file:line) that raises it."""
    places = {}
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args
                    and isinstance(node.exc.args[0], ast.Constant)
                    and isinstance(node.exc.args[0].value, str)):
                places.setdefault(node.exc.args[0].value, []).append(f"{name}:{node.lineno}")
    return places


def test_scanner_flags_a_message_raised_twice():
    src = ('if a:\n    raise ValueError("dt must be positive")\n'
           'if b:\n    raise ConfigError("dt must be positive")\n'
           'raise BudgetError(f"{n} steps")\n')
    assert raise_messages({"m.py": src}) == {"dt must be positive": ["m.py:2", "m.py:4"]}


def test_each_input_rule_has_one_raise():
    # a rule's message raised in two places is a rule with two owners: the
    # library function that owns it is the one place, and callers call it
    sources = {p.name: p.read_text() for p in MODULES}
    assert {m: at for m, at in raise_messages(sources).items() if len(at) > 1} == {}


def functions(sources: dict[str, str]):
    """(module.function, node) of every function defined in the sources,
    nested ones included."""
    for mod, source in sources.items():
        for fn in ast.walk(ast.parse(source)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{mod}.{fn.name}", fn


def function_calls(sources: dict[str, str], name: str) -> set[str]:
    """Each function (module.function) whose body calls name(...) by name or
    as an attribute, at any depth of nesting."""
    return {at for at, fn in functions(sources)
            if any(isinstance(node, ast.Call)
                   and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
                   for node in ast.walk(fn))}


def sextic_constructors(sources: dict[str, str]) -> set[str]:
    """Each function (module.function) whose body calls Sextic(...)."""
    return function_calls(sources, "Sextic")


def test_scanner_flags_a_sextic_constructor():
    src = ("def build(ms):\n    return Sextic(ms, F, 1.0, keys)\n"
           "def other(ms):\n    return poly.Sextic(ms, F, 6.0, keys)\n"
           "def reader(P):\n    return isinstance(P, Sextic) and SexticLevel0(P.mode_set)\n")
    assert sextic_constructors({"m": src}) == {"m.build", "m.other"}


def test_only_the_two_constructor_functions_build_a_sextic():
    # the window sextic comes from build_p6 and the eigenbasis one from
    # p6_eigen_coeffs; every other caller asks one of them
    sources = {p.stem: p.read_text() for p in MODULES}
    assert sextic_constructors(sources) == {"poly.build_p6", "sturm.p6_eigen_coeffs"}


def cayley_factor_sites(sources: dict[str, str]) -> set[str]:
    """Each function (module.function) that divides an expression holding an
    imaginary literal by another one, as a Cayley factor
    (1 - 0.5j*h*omega)/(1 + 0.5j*h*omega) does."""
    def imaginary(node):
        return any(isinstance(n, ast.Constant) and isinstance(n.value, complex)
                   for n in ast.walk(node))

    return {at for at, fn in functions(sources)
            if any(isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                   and imaginary(node.left) and imaginary(node.right)
                   for node in ast.walk(fn))}


def test_scanners_flag_midpoint_callers_and_cayley_factors():
    src = ("def loop(g, u):\n    return midpoint_step(g, u, 0.1, 0.0, u)\n"
           "def other(g, u):\n    return [flows.midpoint_step(g, v, 0.1, 0.0, v) for v in u]\n"
           "def table(h, w):\n    return (1 - 0.5j * h * w) / (1 + 0.5j * h * w)\n"
           "def phase(u):\n    return np.exp(2j * u) / 2 + u / (1 + 0.5j)\n"
           "def reader():\n    return midpoint_step\n")
    assert function_calls({"m": src}, "midpoint_step") == {"m.loop", "m.other"}
    assert cayley_factor_sites({"m": src}) == {"m.table"}


def test_one_loop_takes_every_midpoint_step():
    # integrate and the generator flows share flows.steps, which alone calls
    # midpoint_step and alone builds the Cayley factor of its guess
    sources = {p.stem: p.read_text() for p in MODULES}
    assert function_calls(sources, "midpoint_step") == {"flows.steps"}
    assert cayley_factor_sites(sources) == {"flows._extrapolation_table"}


def takers(sources: dict[str, str], name: str) -> set[str]:
    """Each function (module.function) with a parameter called name, and each
    class (module.Class) with an annotated field called name."""
    found = {at for at, fn in functions(sources)
             if name in [a.arg for a in fn.args.posonlyargs + fn.args.args
                         + fn.args.kwonlyargs]}
    for mod, source in sources.items():
        for cls in ast.walk(ast.parse(source)):
            if isinstance(cls, ast.ClassDef) and any(
                    isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == name
                    for node in cls.body):
                found.add(f"{mod}.{cls.name}")
    return found


def test_scanner_flags_a_parameter_or_field():
    src = ("def split(P, omega_int):\n    return P\n"
           "def norm(P, *, omega_int=None):\n    return P\n"
           "class Freqs:\n    omega_int: np.ndarray\n"
           "    @property\n    def omega(self):\n        return self.omega_int\n"
           "def reader(fs):\n    return fs.omega_int\n")
    assert takers({"m": src}, "omega_int") == {"m.split", "m.norm", "m.Freqs"}


def test_no_function_takes_the_integer_frequencies():
    # the integer frequencies are the squares of the modes, ModeSet.squares:
    # levels, frequency sets and the sextic cells read them from the mode set
    sources = {p.stem: p.read_text() for p in MODULES}
    assert takers(sources, "omega_int") == set()
