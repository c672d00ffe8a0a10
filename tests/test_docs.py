"""Every path, ``python -m`` module and subcommand, class and call the docs
name exists."""

from __future__ import annotations

import ast
import builtins
import contextlib
import functools
import importlib
import io
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
        *sorted((ROOT / "docs").glob("*.md")),
        ROOT / "benchmarks" / "baselines" / "README.md",
        ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
PATH = re.compile(r"`((?:src|scripts|benchmarks|tests|examples|docs)/[^`\s]*)`")
MODULE = re.compile(r"python3? -m (repro(?:\.\w+)*)")
OBS_SUBCOMMAND = re.compile(r"python3? -m repro\.obs ([a-z][\w-]*)")
FENCE = re.compile(r"```.*?```", re.S)
# a span closes on as many backticks as opened it: ``x`` is one span, and
# reading it as two would pair every later backtick with the wrong partner
SPAN = re.compile(r"(`+)([^`]+)\1(?!`)")
# ``name(`` not preceded by a word or a dot (``.copy()`` is not checked),
# with its dotted qualifier
CALL = re.compile(r"(?<![\w.])((?:\w+\.)*)(\w+)\(")
DOTTED = re.compile(r"\w+(?:\.\w+)*")
# two humps at least: ``FaultyMessageBus``, ``MetaKey``; not ``DXO`` or ``Barrier``
CAMEL = re.compile(r"[A-Z][a-z0-9]+[A-Z]\w*")
# calls qualified by these are the stdlib's or numpy's, not the project's
FOREIGN = set(sys.stdlib_module_names) | {"np", "numpy"}


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


def defined_names(paths) -> set[str]:
    """Every class and function (methods too) defined in ``paths``."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
    return names


@functools.cache
def project_names() -> frozenset[str]:
    """Names a doc may use bare: the project's definitions and builtins."""
    sources = [path for top in ("src/repro", "benchmarks", "scripts")
               for path in (ROOT / top).rglob("*.py")]
    return frozenset(defined_names(sources) | set(dir(builtins)))


@functools.cache
def module_names(stem: str) -> frozenset[str] | None:
    """What the repository's ``<stem>.py`` modules define, or ``None`` when
    no module has that name (then the qualifier is an object, not a module)."""
    paths = [path for top in ("src", "benchmarks", "scripts", "tests", "examples")
             for path in (ROOT / top).rglob(f"{stem}.py")]
    return frozenset(defined_names(paths)) if paths else None


def known(qualifier: str, name: str) -> bool:
    """``qualifier.name`` is defined: in the module the qualifier names when
    it names a repository module, else anywhere in the project; a stdlib or
    numpy qualifier is not checked."""
    parts = qualifier.split(".") if qualifier else []
    if parts and parts[0] in FOREIGN:
        return True
    in_module = module_names(parts[-1]) if parts else None
    return name in (in_module if in_module is not None else project_names())


def unknown_names(text: str) -> list[str]:
    """Backticked CamelCase names and ``name(...)`` calls that nothing in
    the project defines and that are not builtins."""
    unknown = []
    for _, span in SPAN.findall(FENCE.sub("", text)):
        span = " ".join(span.split())
        # one-letter calls are math notation: ``f(1-f)``
        bad = [name for qualifier, name in CALL.findall(span)
               if len(name) > 1 and not known(qualifier.rstrip("."), name)]
        if DOTTED.fullmatch(span):
            parts = span.split(".")
            bad += [part for index, part in enumerate(parts)
                    if CAMEL.fullmatch(part) and not known(".".join(parts[:index]), part)]
        if bad:
            unknown.append(span)
    return unknown


def unknown_obs_subcommands(text: str) -> list[str]:
    """``python -m repro.obs <sub>`` subcommands the CLI does not accept."""
    from repro.obs.report import main

    unknown = []
    for sub in sorted(set(OBS_SUBCOMMAND.findall(text))):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()), \
                pytest.raises(SystemExit) as exit_info:
            main([sub, "--help"])
        if exit_info.value.code != 0:
            unknown.append(sub)
    return unknown


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_documented_paths_exist(doc):
    assert missing_paths(doc.read_text()) == []


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_documented_modules_import(doc):
    for module in set(MODULE.findall(doc.read_text())):
        importlib.import_module(module)


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_documented_obs_subcommands_exist(doc):
    assert unknown_obs_subcommands(doc.read_text()) == []


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_documented_names_are_defined(doc):
    assert unknown_names(doc.read_text()) == []


def test_checker_sees_a_missing_path():
    assert missing_paths("run `scripts/gone.py` then `src/repro/{smoke,gone}.py`, "
                         "`examples/*.py`, `tests/test_docs.py::test_x`") == [
        "scripts/gone.py", "src/repro/{smoke,gone}.py"]


def test_checker_sees_an_undefined_name():
    assert unknown_names(
        "call `set_wire_codec()` on a `FaultyMessageBus`, not `SimulatorRunner`, "
        "`len(x)`, `gc.collect()`, `np.zeros(3)`, `MetaKey.TOPK_SPEC`, "
        "`test_site_memory_budget.measure_site()` or `f(1-f)`") == [
        "set_wire_codec()", "FaultyMessageBus"]


def test_checker_pairs_double_backticks():
    assert unknown_names("set ``fedprox_mu`` but not `GoneSampler`") == ["GoneSampler"]


def test_checker_sees_an_unknown_subcommand():
    assert unknown_obs_subcommands(
        "follow with `python -m repro.obs tail runs/x`, not "
        "`python -m repro.obs watch runs/x`; `python3 -m repro.obs runs list`") == [
        "watch"]
