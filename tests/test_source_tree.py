"""The package keeps no dead names: every import is used, every private helper is called.

An AST scan of src/skewlab/*.py: a name a module imports must appear in that module,
and a module-level private name or a private method must be referenced somewhere in
the package other than at its own definition.  Tests do not count as references.
And every phase e(t) goes through dd.e: no module but dd.py calls cos, sin (save the
sine ratio of cocycle._kernel_ratio), cmath or np.exp of a complex argument.
And no module starts threads or processes but the orbit pass of skew_dynamics.py,
through one concurrent.futures executor.  And Fraction stays in the exact layers that
need it: the continued fractions, the double-double splits, the counterexample's
rational points and the prime identities.  And no printed value comes from a BLAS
product, whose order of summation follows the BLAS thread count: the two products in
src/ are an exact integer one and one that no command prints.  And the orbit pass takes
e(b x_k) from its rotation tables: skew_dynamics.py imports nothing of cocycle but the
closed Birkhoff sum, so orbit_angles cannot come back into it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "skewlab"


def _modules():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _loads(tree):
    """Every name a tree reads: Name loads, attribute names and names imported from modules."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_every_import_is_used():
    unused = []
    for module, tree in _modules().items():
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{module}: {bound}")
    assert not unused, unused


def test_every_private_helper_is_referenced():
    modules = _modules()
    referenced = set().union(*map(_loads, modules.values()))
    unreferenced = []
    for module, tree in modules.items():
        defined = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [t.id for t in targets if isinstance(t, ast.Name)]
            if isinstance(node, ast.ClassDef):
                defined += [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
        unreferenced += [f"{module}: {name}" for name in defined
                         if _private(name) and name not in referenced]
    assert not unreferenced, unreferenced


# cos and sin of a phase: dd.e builds every e(t), from its table of roots; math.sin stays
# only in the sine ratio of cocycle._kernel_ratio, which keeps relative accuracy
TRIG = {"np.cos", "np.sin", "math.cos"}
SINE_RATIO = "_kernel_ratio"


def _hand_built_phases(tree):
    """line: name of every hand-built exponential or trig phase in a module's tree."""
    found = []

    def visit(node, func):
        if isinstance(node, ast.FunctionDef):
            func = node.name
        if isinstance(node, ast.Import) and any(a.name == "cmath" for a in node.names):
            found.append(f"{node.lineno}: import cmath")
        elif isinstance(node, ast.ImportFrom) and node.module == "cmath":
            found.append(f"{node.lineno}: from cmath")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            name = f"{node.value.id}.{node.attr}"
            if name in TRIG or node.value.id == "cmath" or (name == "math.sin"
                                                            and func != SINE_RATIO):
                found.append(f"{node.lineno}: {name}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name)
              and f"{node.func.value.id}.{node.func.attr}" == "np.exp"
              and any(isinstance(n, ast.Constant) and isinstance(n.value, complex)
                      for arg in node.args for n in ast.walk(arg))):
            found.append(f"{node.lineno}: np.exp of a complex phase")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_every_phase_goes_through_dd_e():
    hand_built = [f"{module}:{site}" for module, tree in _modules().items() if module != "dd.py"
                  for site in _hand_built_phases(tree)]
    assert not hand_built, hand_built


def test_the_phase_guard_sees_each_form():
    source = ("import cmath\nimport math\nimport numpy as np\n"
              "def f(x):\n    return np.exp(2j * np.pi * x) + math.cos(x) + cmath.exp(x)\n"
              "def _kernel_ratio(u):\n    return math.sin(u)\n"
              "def g(u):\n    return math.sin(u) + np.exp(-u)\n")
    assert _hand_built_phases(ast.parse(source)) == [
        "1: import cmath", "5: np.exp of a complex phase", "5: math.cos", "5: cmath.exp",
        "9: math.sin"]


# the orbit pass's one executor worker is the package's only concurrency
THREAD_MODULES = {"threading", "_thread", "queue", "multiprocessing"}


def _concurrency_imports(module, tree):
    """line: module of every import of a threading module, and of concurrent.futures
    outside skew_dynamics.py."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top in THREAD_MODULES or (top == "concurrent" and module != "skew_dynamics.py"):
                found.append(f"{node.lineno}: {name}")
    return found


def test_no_threads_but_the_orbit_pass_executor():
    found = [f"{module}:{site}" for module, tree in _modules().items()
             for site in _concurrency_imports(module, tree)]
    assert not found, found


def test_the_concurrency_guard_sees_each_form():
    source = ("import threading\nfrom queue import SimpleQueue\nimport multiprocessing.pool\n"
              "def f():\n    from concurrent.futures import ThreadPoolExecutor\n"
              "    import _thread\n")
    want = ["1: threading", "2: queue", "3: multiprocessing.pool",
            "5: concurrent.futures", "6: _thread"]
    assert sorted(_concurrency_imports("cli.py", ast.parse(source))) == want
    assert sorted(_concurrency_imports("skew_dynamics.py", ast.parse(source))) == (
        want[:3] + want[4:])


# the modules whose exact rationals are Fractions; elsewhere phases and fractional parts are
# reduced on plain integers (diophantine.frac_phase) or in double-double
FRACTION_MODULES = {"diophantine.py", "dd.py", "counterexample.py", "identities.py"}


def _fraction_imports(tree):
    """line: module of every import of fractions in a module's tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in names if name.split(".")[0] == "fractions"]
    return found


def test_fractions_only_in_the_exact_layers():
    found = [f"{module}:{site}" for module, tree in _modules().items()
             if module not in FRACTION_MODULES for site in _fraction_imports(tree)]
    assert not found, found


def test_the_fractions_guard_sees_each_form():
    source = ("import fractions\nfrom fractions import Fraction\nimport numpy as np\n"
              "def f():\n    from fractions import Fraction as F\n    import fractions as fr\n")
    assert _fraction_imports(ast.parse(source)) == [
        "1: fractions", "2: fractions", "5: fractions", "6: fractions"]


# numpy's BLAS entry points; a BLAS product sums in an order set by its thread count.  The
# exponent rows are exact integers below 2^53, so their product is the same in any order,
# and the Gram matrix of orthogonality_defect is never printed
BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "einsum", "tensordot", "linalg"}
BLAS_ALLOWED = {("char_sums.py", "_exponent_block", "np.dot"),
                ("char_sums.py", "orthogonality_defect", "@")}


def _blas_products(module, tree):
    """line: form of every BLAS product or import in a module's tree, but the allowed two."""
    found = []

    def visit(node, func):
        if isinstance(node, ast.FunctionDef):
            func = node.name
        site = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            site = "@"
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in ("np", "numpy") and node.attr in BLAS_NAMES):
            site = f"np.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy" and (
                node.module == "numpy.linalg" or any(a.name in BLAS_NAMES for a in node.names)):
            site = f"from {node.module}"
        if site is not None and (module, func, site) not in BLAS_ALLOWED:
            found.append(f"{node.lineno}: {site}")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_no_blas_product_in_a_printed_value():
    found = [f"{module}:{site}" for module, tree in _modules().items()
             for site in _blas_products(module, tree)]
    assert not found, found


def test_the_blas_guard_sees_each_form():
    source = ("import numpy as np\nfrom numpy.linalg import norm\nfrom numpy import einsum\n"
              "def f(a, b):\n    a @= b\n"
              "    return a @ b + np.dot(a, b) + np.linalg.norm(a) + np.vdot(a, b)\n"
              "def _exponent_block(a, b):\n    return np.dot(a, b) @ b\n"
              "def orthogonality_defect(a):\n    return a @ a + np.matmul(a, np.inner(a, a))\n")
    tree = ast.parse(source)
    assert sorted(_blas_products("char_sums.py", tree)) == [
        "10: np.inner", "10: np.matmul", "2: from numpy.linalg", "3: from numpy", "5: @",
        "6: @", "6: np.dot", "6: np.linalg", "6: np.vdot", "8: @"]
    assert len(_blas_products("cli.py", tree)) == 12


# what skew_dynamics.py may import of cocycle: x_k of the orbit pass is never formed, so
# orbit_angles (and with it the whole module) stays out
COCYCLE_ALLOWED = {"birkhoff_closed"}


def _cocycle_imports(tree):
    """line: name of every import of cocycle, or from it, beyond COCYCLE_ALLOWED."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno}: {a.name}" for a in node.names
                      if a.name.split(".")[-1] == "cocycle"]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[-1] == "cocycle":
                found += [f"{node.lineno}: {a.name}" for a in node.names
                          if a.name not in COCYCLE_ALLOWED]
            else:
                found += [f"{node.lineno}: {module}.{a.name}" for a in node.names
                          if a.name == "cocycle"]
    return found


def test_the_orbit_pass_imports_only_the_closed_form_of_cocycle():
    found = _cocycle_imports(_modules()["skew_dynamics.py"])
    assert not found, found


def test_the_cocycle_guard_sees_each_form():
    source = ("from skewlab.cocycle import birkhoff_closed, orbit_angles\n"
              "from skewlab import cocycle\nimport skewlab.cocycle\n"
              "def f():\n    from .cocycle import *\n    from . import cocycle as c\n")
    assert sorted(_cocycle_imports(ast.parse(source))) == [
        "1: orbit_angles", "2: skewlab.cocycle", "3: skewlab.cocycle", "5: *", "6: .cocycle"]
