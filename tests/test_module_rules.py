"""The package's import rules, checked on its source with ``ast``: no
module imports another's underscore name, and ``cli`` and ``pipeline``
write what ``report`` renders without importing its text rules."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "reviewpipe"

# the rules ``report`` formats text and figures with
TEXT_RULES = {"csv_fields", "csv_lines", "float_texts", "histogram_artifact", "scatter_artifact"}


def relative_imports(path: Path) -> list[tuple[str, str]]:
    """``(module, name)`` for each name that a ``from .module import``
    anywhere in the file names, one spread over several lines included."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [
        (node.module or "", alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    ]


def test_the_rules_see_the_imports():
    """The tests below pass vacuously on a wrong path or a wrong walk."""
    assert (SRC / "__init__.py").is_file()
    assert ("report", "report_texts") in relative_imports(SRC / "pipeline.py")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_an_underscore_name(path):
    private = [f"{module}.{name}" for module, name in relative_imports(path) if name.startswith("_")]
    assert private == []


@pytest.mark.parametrize("module", ["cli.py", "pipeline.py"])
def test_cli_and_pipeline_import_no_text_rule(module):
    used = [name for _, name in relative_imports(SRC / module) if name in TEXT_RULES]
    assert used == []
