import ast
from pathlib import Path

import pytest

from nrp import cli

# the package's modules and these tests, which CI runs on Python 3.10 too
SOURCES = (sorted(Path(cli.__file__).resolve().parent.glob("*.py"))
           + sorted(Path(__file__).resolve().parent.glob("*.py")))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_source_parses_as_python_3_10(path):
    """Every module of the package and of its tests parses under Python
    3.10's grammar, the oldest version pyproject.toml allows.  This checks
    syntax only, not the library APIs a module calls or its runtime
    behaviour, and it is best-effort: `feature_version` does not reject
    every newer construct."""
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
