"""Each text form that the output files share has one writer in the package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "apertile"


def functions() -> list[tuple[str, ast.AST]]:
    """(module.function, node) of every top-level function and method of the
    package; a nested function counts as part of the one it is nested in."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                out += [
                    (f"{path.stem}.{node.name}.{f.name}", f)
                    for f in node.body
                    if isinstance(f, ast.FunctionDef)
                ]
            elif isinstance(node, ast.FunctionDef):
                out.append((f"{path.stem}.{node.name}", node))
    return out


def places(matches) -> list[str]:
    """module.function once for each node of its body that `matches` accepts."""
    return [name for name, node in functions() for part in ast.walk(node) if matches(part)]


def is_dbm_of_min_power(node) -> bool:
    """A call watts_to_dbm(...) with `.min_desired_power_w` in its arguments."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
    return func == "watts_to_dbm" and any(
        isinstance(part, ast.Attribute) and part.attr == "min_desired_power_w"
        for arg in node.args
        for part in ast.walk(arg)
    )


def is_key_value_line(node) -> bool:
    """An f-string that starts with "#" and puts "=" between two values."""
    if not isinstance(node, ast.JoinedStr) or len(node.values) < 3:
        return False
    head, *rest = node.values
    return (
        isinstance(head, ast.Constant)
        and head.value.startswith("#")
        and any(
            isinstance(before, ast.FormattedValue)
            and isinstance(sep, ast.Constant)
            and sep.value.endswith("=")
            and isinstance(after, ast.FormattedValue)
            for before, sep, after in zip(node.values, rest, rest[1:])
        )
    )


def test_the_minimum_power_is_converted_to_dbm_in_one_place():
    assert places(is_dbm_of_min_power) == ["metrics.EvaluationRecord.min_power_dbm"]


def test_one_function_formats_a_key_value_header_line():
    assert set(places(is_key_value_line)) == {"ledger.write_header"}


def test_one_function_reads_the_ascii_symbols():
    def reads_symbols(node):
        return isinstance(node, ast.Name) and node.id == "_ASCII_SYMBOLS"

    assert set(places(reads_symbols)) == {"search._cover_ascii"}


def is_stamp_line(node) -> bool:
    """An f-string that starts with "#" and formats a call of stamp_text."""
    if not isinstance(node, ast.JoinedStr) or not node.values:
        return False
    head = node.values[0]
    return (
        isinstance(head, ast.Constant)
        and head.value.startswith("#")
        and any(
            isinstance(part, ast.FormattedValue)
            and isinstance(part.value, ast.Call)
            and ast.unparse(part.value.func).split(".")[-1] == "stamp_text"
            for part in node.values
        )
    )


def test_one_function_writes_the_stamp_line_of_the_ascii_files():
    assert places(is_stamp_line) == ["config.stamp_line"]
