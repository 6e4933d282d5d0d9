"""The README's verification-toolkit table names only public functions, and
every public function the package itself never calls; no module-level name
is dead; and the CLI section quotes every shortfall a verdict can print."""

import ast
import inspect
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import scatterlab as sl
import scatterlab.cli as cli

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


def free_trajectory(grid, times, u_amp, v_amp):
    """u and v the free Gaussian wave times u_amp and v_amp, at times (no solve)."""
    wave = sl.ComplexField(grid, np.exp(-grid.x**2), "physical")
    snaps = []
    for t in times:
        w = sl.free_evolve(wave, t - 1.0)
        snaps.append(sl.PairState(w.with_samples(u_amp * w.samples), w.with_samples(v_amp * w.samples), t))
    return sl.Trajectory(grid=grid, params=sl.AnalysisParams.make(epsilon=1.0), snapshots=tuple(snaps), dt=float("nan"))


def numbers_hidden(text):
    return re.sub(r"-?\d+(\.\d+)?(e[-+]?\d+)?", "#", " ".join(text.split()))


def test_cli_section_quotes_every_shortfall(tmp_path):
    # every detail the verdicts print that is not a measurement (an exponent,
    # a drift, a spread or monotone pairs), on small free runs: one field
    # zero and windows too short to fit; a horizon too short for the limits
    # and the remainder fit; zero data; and a fit over a zero value
    grid = sl.Grid1D(L=300.0, N=1024)
    runs = [
        free_trajectory(grid, [1.0, 2.0, 3.0, 20.0, 30.0, 40.0], 1.0, 0.0),
        free_trajectory(grid, [1.0, 2.0, 4.0, 8.0], 1.0, 0.75),
        free_trajectory(grid, [1.0, 2.0, 4.0, 8.0], 0.0, 0.0),
    ]
    details = set()
    for k, traj in enumerate(runs):
        for name, verdict in cli._COMMANDS.items():
            out = tmp_path / f"{name}{k}"
            out.mkdir()
            lines = verdict(SimpleNamespace(save_snapshots=False), traj, out)
            details.update(line.split(": ", 1)[1] for line in lines)
    no_fit = cli._exponent_line("x", False, "t >= 1", np.arange(1.0, 5.0), np.zeros(4), (None, 0.0))
    details.add(no_fit.split(": ", 1)[1])
    measured = ("exponent ", "relative drift ", "max/median ")
    shortfalls = {d for d in details if not d.startswith(measured) and not d.endswith("pairs monotone decreasing")}
    section = numbers_hidden(README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0])
    forms = {numbers_hidden(d) for d in shortfalls}
    assert len(forms) == 9, sorted(forms)
    missing = sorted(form for form in forms if form not in section)
    assert not missing, f"shortfalls the README's CLI section does not quote: {missing}"
