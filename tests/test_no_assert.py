"""No guarantee of the library may rest on an ``assert``: ``python -O`` strips
every one of them, so checks must raise explicitly."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "motifclust"


def test_library_sources_have_no_assert():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no library sources under {SRC}"
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements in library code: {found}"
