"""README.md examples run verbatim.

Every ```python block of the README runs, statement by statement, in a
fresh namespace inside a temporary directory. A top-level ``print(...)``
statement followed by ``# `` comment lines must print exactly those lines.
"""

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def expected_output(lines, end_lineno):
    """The ``# `` comment lines right after line ``end_lineno`` (1-based), unprefixed."""
    out = []
    for line in lines[end_lineno:]:
        if not line.startswith("# "):
            break
        out.append(line[2:])
    return out


def is_print(node):
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Name)
        and node.value.func.id == "print"
    )


def run_block(source):
    """Run ``source`` statement by statement, checking each commented print."""
    lines = source.splitlines()
    namespace = {"__name__": "__readme__"}
    for node in ast.parse(source).body:
        code = compile(ast.Module(body=[node], type_ignores=[]), str(README), "exec")
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            exec(code, namespace)
        expected = expected_output(lines, node.end_lineno)
        if is_print(node) and expected:
            assert printed.getvalue().splitlines() == expected, f"README line: {lines[node.lineno - 1]}"


def test_readme_has_commented_prints():
    commented = [
        node
        for source in BLOCKS
        for node in ast.parse(source).body
        if is_print(node) and expected_output(source.splitlines(), node.end_lineno)
    ]
    assert commented


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(1, len(BLOCKS) + 1)])
def test_readme_block_runs_and_prints_what_it_says(source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_block(source)
