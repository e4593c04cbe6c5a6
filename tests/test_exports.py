"""Every public name of the package has a caller outside the tests."""

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


def imported_names(path: Path) -> list[str]:
    """Names a module binds with its top-level `from ... import` lines."""
    return [
        alias.asname or alias.name
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def names_used_in_code() -> set[str]:
    """Names read by the package's modules, `scripts/` and `perfbench/`."""
    callers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    callers += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    return set().union(*(referenced_names(p) for p in callers))


def test_every_export_has_a_caller_outside_the_tests():
    exported = imported_names(PACKAGE / "__init__.py")
    used = names_used_in_code()
    readme = (ROOT / "README.md").read_text()
    library_use = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    used |= set(re.findall(r"\w+", library_use))
    assert exported
    assert [name for name in exported if name not in used] == []


def test_every_public_function_and_class_has_a_caller_outside_the_tests():
    # the acceptance criteria are fixed, so what they import stays public
    exempt = set(imported_names(ROOT / "tests" / "test_acceptance.py"))
    used = names_used_in_code() | exempt
    public = [
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert len(public) > 50
    assert [name for name in public if name.split(".")[1] not in used] == []


def test_every_public_method_has_a_caller_outside_the_tests():
    # attributes the acceptance criteria read stay public with them
    used = names_used_in_code() | referenced_names(ROOT / "tests" / "test_acceptance.py")
    methods = [
        f"{path.stem}.{cls.name}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for cls in ast.parse(path.read_text()).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert len(methods) > 20
    assert [name for name in methods if name.split(".")[2] not in used] == []
