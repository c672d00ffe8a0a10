"""The run path loads only the run path.

Every server and every forked site imports ``repro.flare`` and
``repro.training``; what those pull in sits in every process's RSS.  The
CLI-only modules (the HTTP exporter, the run registry, the report
renderer, the Chrome export, the live follower) and the experiments are
imported by their own entry points, never by a package ``__init__``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

NOT_ON_THE_RUN_PATH = (
    "http.server", "ssl", "email", "socketserver", "repro.experiments",
    "repro.obs.exporter", "repro.obs.registry", "repro.obs.report",
    "repro.obs.chrome", "repro.obs.tail",
)


def loaded_after(statement: str) -> set[str]:
    """The module names in ``sys.modules`` after ``statement`` in a fresh
    interpreter."""
    done = subprocess.run(
        [sys.executable, "-c",
         f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    return set(json.loads(done.stdout))


def test_run_path_imports_no_cli_module():
    loaded = loaded_after("import repro.flare, repro.training")
    assert "repro.flare.simulator" in loaded
    assert sorted(loaded & set(NOT_ON_THE_RUN_PATH)) == []


def test_cli_modules_still_import_on_their_own():
    loaded = loaded_after("import repro.obs.report, repro.obs.exporter, repro.experiments")
    assert {"repro.obs.report", "repro.obs.exporter", "http.server",
            "repro.experiments"} <= loaded
