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
