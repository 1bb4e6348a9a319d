"""Package hygiene: no module imports a name it never uses, every name the
package exports exists, and the command line starts without heavy imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mdiqsdc

MODULES = sorted(
    path for path in Path(mdiqsdc.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names a module binds by import but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_detected():
    source = "from a import b, c\nimport d.e\nimport f as g\nprint(c, d)\n"
    assert unused_imports(source) == ["b (line 1)", "g (line 3)"]


def test_all_names_resolve():
    assert len(set(mdiqsdc.__all__)) == len(mdiqsdc.__all__)
    missing = [name for name in mdiqsdc.__all__ if not hasattr(mdiqsdc, name)]
    assert missing == []


def test_cli_import_loads_no_logging_or_thread_pool():
    """The sampler's workers are plain ``threading`` threads: importing the
    command line must not pull in ``logging`` or ``concurrent.futures``,
    which would add to every invocation's start-up time."""
    src = Path(mdiqsdc.__file__).resolve().parents[1]
    code = (
        "import sys; import mdiqsdc.cli; "
        "print(sorted(m for m in ('logging', 'concurrent.futures') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
