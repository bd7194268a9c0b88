"""Properties of the package source itself."""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import qcunlink

SOURCES = sorted(Path(qcunlink.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert statements, so runtime invariants raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []


# public functions without a caller in the package, each kept because the
# benchmark calls it as a spot-check of a claim of the paper
UNCALLED_SPOTCHECKS = {
    "mc_estimate": "the Monte Carlo mean of p(X) or u(X)*v(X); the montecarlo workload",
    "correlation_spotcheck": "Gaussian correlation of sublevel sets; the montecarlo workload",
    "covariance_integral_check": "double-integral identity for the covariance; the montecarlo workload",
    "divergence_check": "divergence of u along a ray; the montecarlo workload",
}


def referenced_names(path):
    """(name, enclosing definition) for every name and attribute read in a module.

    An attribute of a plain name is also recorded qualified, as
    ``Class.method`` for ``Class.method``.  The enclosing definition is
    the top-level function or class, or ``Class.method`` inside a method.
    """
    found = set()
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        parts = [(top, getattr(top, "name", None))]
        if isinstance(top, ast.ClassDef):
            parts = [
                (item, f"{top.name}.{item.name}" if isinstance(item, ast.FunctionDef) else top.name)
                for item in top.body
            ]
        for part, owner in parts:
            for node in ast.walk(part):
                if isinstance(node, ast.Name):
                    found.add((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    found.add((node.attr, owner))
                    if isinstance(node.value, ast.Name):
                        found.add((f"{node.value.id}.{node.attr}", owner))
    return found


def test_every_public_function_has_a_caller():
    # a public function, or a public method of an exported class, is used
    # somewhere in the package outside its own body; names are matched as
    # identifiers, so any function, method or attribute of the same name
    # counts as a use; a classmethod or staticmethod counts as used only
    # where it is named through its class, as ``Class.method``
    uses = {}
    for path in SOURCES:
        if path.name != "__init__.py":
            for name, owner in referenced_names(path):
                uses.setdefault(name, set()).add((path.stem, owner))
    uncalled = []
    for path in SOURCES:
        module = importlib.import_module(f"qcunlink.{path.stem}")
        for name in getattr(module, "__all__", ()):
            value = getattr(module, name)
            if inspect.isfunction(value) and name not in UNCALLED_SPOTCHECKS:
                if not uses.get(name, set()) - {(path.stem, name)}:
                    uncalled.append(f"{path.stem}.{name}")
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                for method, member in vars(value).items():
                    owner = f"{name}.{method}"
                    if not method.startswith("_") and inspect.isroutine(member):
                        used_as = owner if isinstance(member, (classmethod, staticmethod)) else method
                        if not uses.get(used_as, set()) - {(path.stem, owner)}:
                            uncalled.append(f"{path.stem}.{owner}")
    assert uncalled == []
    assert all(hasattr(qcunlink, name) for name in UNCALLED_SPOTCHECKS)


# dataclass fields read nowhere in the package, each kept because a test
# checks it against a claim of the paper
UNREAD_FIELDS = {
    "RayClass.lambda0_estimate": "the ray thresholds; acceptance criterion 8 checks them",
}


def test_every_dataclass_field_is_read():
    # each field of an exported dataclass is loaded as an attribute
    # somewhere in the package; names are matched as identifiers, so a
    # read of any attribute of the same name counts
    loaded = {
        node.attr
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = []
    for path in SOURCES:
        module = importlib.import_module(f"qcunlink.{path.stem}")
        for name in getattr(module, "__all__", ()):
            value = getattr(module, name)
            if dataclasses.is_dataclass(value) and value.__module__ == module.__name__:
                fields += [(f"{name}.{f.name}", f.name) for f in dataclasses.fields(value)]
    unread = [owner for owner, field in fields if field not in loaded and owner not in UNREAD_FIELDS]
    assert unread == []
    assert set(UNREAD_FIELDS) <= {owner for owner, _ in fields}


# modules that make no float, and the names each may not use: the
# structural decisions, the exact linear algebra and the exact Gaussian
# moments use no float conversion and no infinity
NO_FLOATS = {
    "structure.py": {"float", "inf"},
    "exactla.py": {"float", "inf"},
    "gaussmeasure.py": {"float", "inf"},
}


def names_in(path, banned):
    """``file:name:line`` for each name or attribute in ``banned`` that the module uses."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and node.id in banned:
            found.append(f"{path.name}:{node.id}:{node.lineno}")
        elif isinstance(node, ast.Attribute) and node.attr in banned:
            found.append(f"{path.name}:{node.attr}:{node.lineno}")
    return found


def test_structure_has_no_floats():
    package = Path(qcunlink.__file__).parent
    found = [entry for name, banned in NO_FLOATS.items() for entry in names_in(package / name, banned)]
    assert found == []


def test_only_sampling_uses_numpy():
    # Monte Carlo is the one use of numpy, so every exact command runs without it
    found = []
    for path in SOURCES:
        if path.name == "sampling.py":
            continue
        found += names_in(path, {"np", "numpy"})
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                found += [
                    f"{path.name}:{a.name}:{node.lineno}"
                    for a in node.names
                    if a.name.partition(".")[0] == "numpy"
                ]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "numpy":
                found.append(f"{path.name}:{node.module}:{node.lineno}")
    assert "sampling.py" in {path.name for path in SOURCES}
    assert found == []


def test_declared_python_floor_is_at_least_3_10_7():
    # every command calls sys.get_int_max_str_digits, which first appears in
    # 3.10.7; the floor is read by regex, since 3.10 has no tomllib
    text = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    match = re.search(r'^requires-python = ">=(\d+)\.(\d+)(?:\.(\d+))?"$', text, re.MULTILINE)
    assert match
    assert tuple(int(part or 0) for part in match.groups()) >= (3, 10, 7)
