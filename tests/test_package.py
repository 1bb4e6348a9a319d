"""Package hygiene: no module imports a name it never uses or defines one
that nothing else mentions, every name the package exports exists, the
benchmark's tracer and gate find what they name, and the command line starts
without heavy imports; the run config's fields are pinned."""

import ast
import dataclasses
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import mdiqsdc
from mdiqsdc.protocol import ProtocolConfig

MODULES = sorted(
    path for path in Path(mdiqsdc.__file__).parent.glob("*.py") if path.name != "__init__.py"
)
ROOT = Path(mdiqsdc.__file__).resolve().parents[2]


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


def defined_names(node: ast.stmt) -> list[str]:
    """Names a top-level statement defines: a function, a class or constants."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return [target.id for target in targets if isinstance(target, ast.Name)]


def used_names(tree: ast.AST) -> Counter:
    """How often the code of ``tree`` reads each name: names, attributes and
    imported names, in f-strings too, but not words of a docstring or a
    comment."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias):
            used[node.name] += 1
    return used


def unreferenced_names(modules: dict[str, str], elsewhere: str) -> list[str]:
    """Module-level names of ``modules`` (file name -> source) that no code
    reads but their own definition: not the rest of their module, not
    another module, and no word of the text ``elsewhere``, which is matched
    as text because the benchmark's tracer names its targets by string."""
    trees = {filename: ast.parse(source) for filename, source in modules.items()}
    package = Counter()
    for tree in trees.values():
        package += used_names(tree)
    found = []
    for filename, tree in trees.items():
        for node in tree.body:
            own = used_names(node)
            for name in defined_names(node):
                word = re.compile(rf"\b{re.escape(name)}\b")
                if package[name] == own[name] and not word.search(elsewhere):
                    found.append(f"{filename}:{name}")
    return found


def test_every_module_level_name_is_used_outside_tests():
    """A function, class or constant of the package must be used by the
    package, ``scripts/`` or ``perfbench/``; a name that only tests use is
    surface to delete, and so is one that only a docstring mentions.
    ``__init__.py`` re-exports and so does not count."""
    if not (ROOT / "scripts").is_dir() or not (ROOT / "perfbench").is_dir():
        pytest.skip("needs a source checkout")
    modules = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    elsewhere = "\n".join(
        path.read_text(encoding="utf-8")
        for folder in ("scripts", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    )
    assert unreferenced_names(modules, elsewhere) == []


def test_unreferenced_name_detected():
    modules = {
        "a.py": "X: int = 1\ndef used():\n    return Y\ndef planted():\n    return planted()\n",
        "b.py": "Y = 2\nprint(used)\n",
    }
    assert unreferenced_names(modules, "") == ["a.py:X", "a.py:planted"]
    assert unreferenced_names(modules, "print(planted)") == ["a.py:X"]
    # a docstring or a comment that names a function does not use it
    modules["b.py"] = '"""Calls planted()."""\nY = 2\nprint(used)  # and X\n'
    assert unreferenced_names(modules, "") == ["a.py:X", "a.py:planted"]
    # an f-string's expression, an attribute and an import do
    modules["b.py"] = 'from a import planted\nY = 2\nprint(f"{used.X}")\n'
    assert unreferenced_names(modules, "") == []


def test_all_names_resolve():
    assert len(set(mdiqsdc.__all__)) == len(mdiqsdc.__all__)
    missing = [name for name in mdiqsdc.__all__ if not hasattr(mdiqsdc, name)]
    assert missing == []


# Tracer targets that the package no longer has: the tracer skips them, and
# their metrics read 0. Each must really be missing, so the list cannot go stale.
# The oracle's composition lives in ``oracle`` now; ``verify`` runs its stages
# and never called it, so its layer read 0 before it moved.
MISSING_SPAN_TARGETS = {
    "protocol.density_matrix_round_distributions",
    "quantum.eigvalsh_hermitian",
    "infotheory.capacity_mdi_ts",
    "infotheory.capacity_mdi_dl04",
    "infotheory.capacity_two_step_non_mdi",
    "infotheory.capacity_dl04_non_mdi",
}


def test_benchmark_names_resolve():
    """Every span target of ``perfbench/tracer.py`` and every package name
    ``perfbench/gate.py`` imports exists, but for the known missing targets:
    the tracer skips a missing target silently, and a rename would otherwise
    blank a benchmark layer without a failing test."""
    bench = ROOT / "perfbench"
    if not bench.is_dir():
        pytest.skip("needs a source checkout")
    sys.path.insert(0, str(bench))
    from tracer import SPAN_TARGETS

    targets = {f"{module}.{attr}" for module, attr, _ in SPAN_TARGETS}
    gate = ast.parse((bench / "gate.py").read_text(encoding="utf-8"))
    imported = {
        f"{node.module.removeprefix('mdiqsdc.')}.{alias.name}"
        for node in ast.walk(gate)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mdiqsdc.")
        for alias in node.names
    }
    assert imported
    missing = set()
    for name in targets | imported:
        module, attr = name.split(".")
        if not hasattr(importlib.import_module(f"mdiqsdc.{module}"), attr):
            missing.add(name)
    assert missing == MISSING_SPAN_TARGETS


def test_protocol_imports_nothing_of_the_oracle():
    """``protocol`` holds what a run needs. From ``quantum`` it imports the
    Pauli law and its labels only, and from ``channels`` no function that
    takes a density matrix, so the Pauli frame shares no state algebra with
    ``oracle``, its referee."""
    package = Path(mdiqsdc.__file__).parent
    channels = ast.parse((package / "channels.py").read_text(encoding="utf-8"))
    on_states = {
        node.name
        for node in channels.body
        if isinstance(node, ast.FunctionDef)
        for arg in node.args.args
        if arg.annotation is not None and "DensityMatrix" in ast.unparse(arg.annotation)
    }
    assert "depolarize" in on_states
    protocol = ast.parse((package / "protocol.py").read_text(encoding="utf-8"))
    imported = {}  # module (None for ``from . import``) -> names
    for node in ast.walk(protocol):
        if isinstance(node, ast.ImportFrom):
            imported.setdefault(node.module, set()).update(a.name for a in node.names)
    assert imported["quantum"] == {"PauliDistribution", "PauliLabel"}
    assert not imported["channels"] & on_states
    assert "oracle" not in imported
    assert not imported.get(None, set()) & {"quantum", "channels", "oracle"}


def test_protocol_config_fields_are_pinned():
    """Every field of a run's config, by name: a new option has to edit this
    list, so it is added on purpose."""
    assert [field.name for field in dataclasses.fields(ProtocolConfig)] == [
        "protocol",
        "rounds",
        "channel_p",
        "seed",
        "check_fraction",
        "noise",
        "q_override",
        "eta",
        "dl04_encoding",
        "attack",
        "transmittance",
    ]


def test_cli_import_loads_no_logging_or_thread_pool():
    """Importing the command line must not pull in ``logging`` or
    ``concurrent.futures``, which would add to every invocation's start-up
    time."""
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
