"""Every path and ``python -m`` module the docs name exists."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
        ROOT / "benchmarks" / "baselines" / "README.md",
        ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
PATH = re.compile(r"`((?:src|scripts|benchmarks|tests|examples|docs)/[^`\s]*)`")
MODULE = re.compile(r"python3? -m (repro(?:\.\w+)*)")


def expand_braces(pattern: str) -> list[str]:
    """``a/{b,c}.py`` -> ``["a/b.py", "a/c.py"]``."""
    match = re.search(r"\{([^{}]*)\}", pattern)
    if match is None:
        return [pattern]
    return [expanded for choice in match.group(1).split(",")
            for expanded in expand_braces(
                pattern[:match.start()] + choice + pattern[match.end():])]


def missing_paths(text: str) -> list[str]:
    missing = []
    for reference in PATH.findall(text):
        # drop a pytest node id (`::Test`) or a line number (`:96`)
        path = re.sub(r"(::|:\d).*$", "", reference)
        if not all(any(ROOT.glob(p)) if "*" in p else (ROOT / p).exists()
                   for p in expand_braces(path)):
            missing.append(reference)
    return missing


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_documented_paths_exist(doc):
    assert missing_paths(doc.read_text()) == []


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_documented_modules_import(doc):
    for module in set(MODULE.findall(doc.read_text())):
        importlib.import_module(module)


def test_checker_sees_a_missing_path():
    assert missing_paths("run `scripts/gone.py` then `src/repro/{smoke,gone}.py`, "
                         "`examples/*.py`, `tests/test_docs.py::test_x`") == [
        "scripts/gone.py", "src/repro/{smoke,gone}.py"]
