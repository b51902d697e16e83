"""README's "Library layout" table names only what each module defines."""

import importlib
import re
from itertools import product
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def layout_names(module):
    """The identifiers README's layout row for ``module`` backticks, with
    ``{inner,outer}`` braces expanded and a ``(...)`` signature stripped."""
    section = README.read_text().split("## Library layout", 1)[1].split("\n## ", 1)[0]
    [row] = [line for line in section.splitlines() if line.startswith(f"| `{module}` |")]
    names = []
    for token in re.findall(r"`([^`]+)`", row.split("|")[2]):
        token = re.sub(r"\(.*\)$", "", token)
        pieces = re.split(r"\{([^}]*)\}", token)  # literal, choices, literal, ...
        names += ["".join(p) for p in product(*(
            piece.split(",") if i % 2 else [piece] for i, piece in enumerate(pieces)))]
    return names


def defined(module, name):
    if "." in name:  # a qualified name, such as numpy.random.SeedSequence
        module, name = name.rsplit(".", 1)
    return hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("module", ["ccdp.model", "ccdp.bounds", "ccdp.gaps", "ccdp.mc"])
def test_every_layout_name_exists_in_its_module(module):
    names = layout_names(module)
    assert names
    assert [n for n in names if not defined(module, n)] == []
