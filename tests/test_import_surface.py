"""The end-to-end benchmark's import set stays free of the service layer.

``benchmarks/e2e/run.py`` times a fresh interpreter importing its
``REPRO_IMPORTS`` as part of ``setup_s``.  The sweep harness it imports
must not pull ``asyncio`` or any ``repro.service`` module into that
import: the worker pool is loaded only when a sweep fans out.  Nor may
it load the fault injector, which only runs with a fault plan need.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def benchmark_imports() -> tuple[str, ...]:
    tree = ast.parse((ROOT / "benchmarks" / "e2e" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "REPRO_IMPORTS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("benchmarks/e2e/run.py defines no REPRO_IMPORTS")


def modules_after_benchmark_imports() -> list[str]:
    """Every module a fresh interpreter holds after importing the
    benchmark's ``REPRO_IMPORTS``."""
    modules = benchmark_imports()
    assert "repro.harness.parallel" in modules
    code = (
        f"import json, sys; import {', '.join(modules)}; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=env, timeout=120,
    )
    return json.loads(out.stdout)


def test_benchmark_imports_load_neither_asyncio_nor_the_service():
    loaded = modules_after_benchmark_imports()
    assert [
        m for m in loaded
        if m.split(".")[0] == "asyncio" or m.startswith("repro.service")
    ] == []


def test_benchmark_imports_skip_the_fault_injector():
    assert "repro.noc.faults" not in modules_after_benchmark_imports()
