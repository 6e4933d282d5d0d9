"""The README's verification-toolkit table names only public functions."""

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
