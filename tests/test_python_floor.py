"""The library must run on the oldest Python that ``pyproject.toml`` allows,
so every library source must parse under that version's grammar: syntax
from a newer Python (``except*`` from 3.11, say) would break the floor."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "motifclust"


def python_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.MULTILINE)
    assert found, "pyproject.toml declares no requires-python floor"
    return int(found[1]), int(found[2])


def test_library_sources_parse_at_the_python_floor():
    floor = python_floor()
    assert floor == (3, 10)
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no library sources under {SRC}"
    failed = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)
        except SyntaxError as exc:
            failed.append(f"{path.name}:{exc.lineno}: {exc.msg}")
    assert not failed, f"library code that Python {floor[0]}.{floor[1]} cannot parse: {failed}"
