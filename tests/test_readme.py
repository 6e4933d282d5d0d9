"""The README's verification-toolkit table names only public functions, and
every public function the package itself never calls."""

import ast
import inspect
import re
from pathlib import Path

import scatterlab as sl

README = Path(__file__).resolve().parent.parent / "README.md"


def toolkit_names():
    text = README.read_text()
    section = text.split("### Verification toolkit", 1)[1].split("\n#", 1)[0]
    return re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)


def test_toolkit_names_are_public_functions():
    names = toolkit_names()
    assert names, "README has no verification-toolkit table"
    for name in names:
        assert name in sl.__all__, name
        assert callable(getattr(sl, name)), name


def referenced_in_src():
    """Names the package's modules other than __init__ use in their code:
    loaded names, attributes and imported names (not definitions or text)."""
    names = set()
    for path in Path(sl.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_unreferenced_public_names_are_in_the_toolkit():
    # load_trajectory is the format reader: called from outside the package
    # (the benchmark's replay, user scripts), not a verification check
    public = {name for name in sl.__all__ if not inspect.ismodule(getattr(sl, name))}
    unreferenced = public - referenced_in_src() - {"load_trajectory"}
    missing = sorted(unreferenced - set(toolkit_names()))
    assert not missing, f"public names no module uses, absent from the README toolkit table: {missing}"


def module_level_definitions():
    """(module, name) of every name a src module defines at module level:
    assignments, functions and classes (not dunders such as __all__)."""
    defined = []
    for path in sorted(Path(sl.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            defined.extend((path.stem, name) for name in names if not name.startswith("__"))
    return defined


def names_read(paths):
    """Names the files' code reads: loaded names, attributes and imported names."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_no_dead_module_level_names():
    # a definition nothing reads is dead code: each name must be read by a
    # src module, exported in __all__, or read by a test
    read = names_read(Path(sl.__file__).parent.glob("*.py")) | names_read(Path(__file__).parent.glob("*.py"))
    dead = [f"{module}.{name}" for module, name in module_level_definitions() if name not in read | set(sl.__all__)]
    assert not dead, f"module-level names nothing reads: {dead}"
