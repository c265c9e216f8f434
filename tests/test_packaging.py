"""pyproject.toml declares exactly the third-party modules the package imports."""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "scenenat"


def project() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def imported_top_level_modules() -> set[str]:
    names = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "scenenat"}


def test_dependencies_are_exactly_the_imported_modules():
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in project()["dependencies"]}
    assert declared == imported_top_level_modules()


def test_script_entry_points_resolve():
    for name, target in project().get("scripts", {}).items():
        module, _, func = target.partition(":")
        parts = module.split(".")
        path = ROOT / "src" / Path(*parts).with_suffix(".py")
        assert path.is_file(), f"script {name} names missing module {module}"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        assert func in defined, f"script {name} names missing function {target}"
