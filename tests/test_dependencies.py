"""The package imports nothing outside numpy and the standard library, and
the tests nothing that ``pip install -e .[test]`` does not install."""

import ast
import re
import sys
from pathlib import Path

import supermap_forge

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "supermap_forge"}
TESTS = Path(__file__).parent


def _outside_imports(paths, allowed):
    """'file:line module' for each absolute import whose top-level module is
    not in allowed."""
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}:{node.lineno} {name}"
                for name in names if name.split(".")[0] not in allowed
            ]
    return outside


def test_package_imports_only_numpy_and_the_stdlib():
    paths = sorted(Path(supermap_forge.__file__).parent.rglob("*.py"))
    outside = _outside_imports(paths, ALLOWED)
    assert not outside, outside


def _declared_text(key):
    """The requirement strings in pyproject.toml's list ``key = [...]``."""
    text = (TESTS.parent / "pyproject.toml").read_text()
    return ast.literal_eval(re.search(rf"^{key} = (\[.*?\])", text, re.M | re.S)[1])


def _declared(key):
    """The distribution names in pyproject.toml's list ``key = [...]``."""
    return {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower() for req in _declared_text(key)}


def test_tests_import_only_what_the_test_extra_installs():
    # the install line, `pip install -e .[test]`, brings the package's
    # dependencies and the test extra; a test module that imports anything
    # else fails to collect
    paths = sorted(TESTS.rglob("*.py"))
    installed = _declared("dependencies") | _declared("test")
    assert {"numpy", "pytest", "hypothesis"} <= installed
    local = {path.stem for path in paths} | {"supermap_forge"}
    outside = _outside_imports(paths, set(sys.stdlib_module_names) | installed | local)
    assert not outside, outside


def _policed_imports(name, policed):
    path = Path(__file__).parent / name
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [f"{name}:{node.lineno} {n}" for n in names if n in policed]
    return found


def test_oracles_import_none_of_the_paths_they_police():
    # tests/oracles.py checks realize's circuit and the link products, so it
    # must not be built from realize, gen or serialize
    policed = {"supermap_forge.realize", "supermap_forge.gen", "supermap_forge.serialize"}
    found = _policed_imports("oracles.py", policed)
    assert not found, found


def test_w_oracle_imports_nothing_from_realize():
    # tests/w_oracle.py checks realize's G and W diagnostics, so its right
    # dilation and G's source ordering must be its own
    found = _policed_imports("w_oracle.py", {"supermap_forge.realize"})
    assert not found, found


DILATION_NAMES = {
    "StinespringDilation", "_stack_dilation", "dilation_from_kraus", "minimal_stinespring",
    "_kraus_rows", "environment_intertwiner", "psd_factor",
    "_minimal_pinv", "INTERTWINER_REL_CUT",
}


def _package_bindings(policed, methods=True):
    """'file:line name' for each def, class, import or assignment in the
    package that binds a name in policed; methods=False skips class bodies."""
    found = []
    for path in sorted(Path(supermap_forge.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        in_classes = set() if methods else {
            id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
        }
        for node in ast.walk(tree):
            if id(node) in in_classes:
                continue
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.split(".")[-1] for alias in node.names]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n in policed]
    return found


def test_package_holds_no_dilation_layer():
    # the package holds a CP map by its Choi blocks alone; the dilation
    # layer lives in tests/oracles.py, under the guard above, and so does the
    # SVD pseudo-inverse that realize's closed form replaced
    found = _package_bindings(DILATION_NAMES)
    assert not found, found


MOVED_NAMES = {
    "compose", "copy_channel", "identity_channel", "is_unital", "as_channel",
    "hs_inner", "trace", "extract_n", "NotMinimalError", "encode_matrix",
}


def test_package_holds_no_channel_calculus_it_does_not_call():
    # the package evaluates the paper's circuit by link products and treats
    # the copy as a relabelling; the channel calculus, and the helpers only
    # tests called, live in tests/oracles.py (trace was an alias of
    # BlockOperator.trace, the one method name here that the check skips)
    found = _package_bindings(MOVED_NAMES, methods=False)
    found += [f"supermap_forge.{n}" for n in MOVED_NAMES if hasattr(supermap_forge, n)]
    assert not found, found


def test_no_module_imports_a_name_it_does_not_use():
    # a name imported and never read is what a move out of a module leaves
    # behind; __init__.py imports only to export
    unused = []
    for path in sorted(Path(supermap_forge.__file__).parent.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused, unused


def test_no_einsum_searches_a_contraction_path():
    # einsum(..., optimize=...) searches for a contraction order on every
    # call; the package writes its contractions as reshapes and GEMMs
    found = []
    for path in sorted(Path(supermap_forge.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "einsum":
                found += [
                    f"{path.name}:{node.lineno}" for kw in node.keywords
                    if kw.arg == "optimize"
                    and not (isinstance(kw.value, ast.Constant) and kw.value.value is False)
                ]
    assert not found, found


NUMPY_2_NAMES = {
    "numpy.vecdot", "numpy.matrix_transpose", "numpy.permute_dims", "numpy.unstack",
    "numpy.concat", "numpy.astype", "numpy.linalg.vector_norm", "numpy.linalg.matrix_norm",
    "numpy.linalg.vecdot", "numpy.linalg.matrix_transpose",
}


def _numpy_names(tree):
    """(line, dotted name) for each numpy name a module reads: attribute
    chains on a name bound to numpy or numpy.linalg, and names imported
    from them."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module or "").split(".")[0] == "numpy":
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    found = [(node.lineno, full) for node in ast.walk(tree) if isinstance(node, ast.Name)
             for full in [aliases.get(node.id)] if full]
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in aliases:
            name = aliases[node.id]
            for attr in reversed(chain):
                name = f"{name}.{attr}"
                found.append((node.lineno, name))
    return found


def test_package_uses_no_name_newer_than_its_numpy_floor():
    # pyproject.toml declares numpy>=1.24; numpy 2.0 added these names, so
    # the package must not read them.  The batched cholesky, eigh, eigvalsh,
    # matmul and einsum the stacked paths run on are all in numpy 1.24
    assert "numpy>=1.24" in _declared_text("dependencies")
    found = []
    for path in sorted(Path(supermap_forge.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} {name}" for line, name in _numpy_names(tree)
                  if name in NUMPY_2_NAMES]
    assert not found, found


def test_the_numpy_floor_check_sees_the_names_it_bans():
    source = ("import numpy as np\nfrom numpy import linalg as la\nfrom numpy import concat\n"
              "np.vecdot(x, y); la.vector_norm(x); concat([x]); x.astype(float)\n"
              "np.linalg.matrix_norm(x)\n")
    names = {name for _, name in _numpy_names(ast.parse(source))} & NUMPY_2_NAMES
    assert names == {"numpy.vecdot", "numpy.linalg.vector_norm", "numpy.concat",
                     "numpy.linalg.matrix_norm"}
