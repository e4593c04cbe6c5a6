"""Every name exported from the package has a caller outside the tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "apertile"


def referenced_names(path: Path) -> set[str]:
    """Names read in a module's code, as bare names or attributes; the
    definitions themselves and import lines do not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_has_a_caller_outside_the_tests():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    callers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    callers += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set().union(*(referenced_names(p) for p in callers))
    readme = (ROOT / "README.md").read_text()
    library_use = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    used |= set(re.findall(r"\w+", library_use))
    assert exported
    assert [name for name in exported if name not in used] == []
