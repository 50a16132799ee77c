import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_library_block_runs():
    # every top-level expression whose comment (at its end or on the next
    # line) is a Python literal must evaluate to that literal
    section = (ROOT / "README.md").read_text().split("## Library", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        after = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        if not after and stmt.end_lineno < len(lines):
            after = lines[stmt.end_lineno].strip()
        try:
            expected = ast.literal_eval(after.lstrip("#").strip()) if after.startswith("#") else None
        except (ValueError, SyntaxError):
            expected = None
        if expected is not None:
            assert value == expected, (code, value)
            checked += 1
    assert checked >= 4
