"""The end-to-end benchmark's import set stays free of the service layer.

``benchmarks/e2e/run.py`` times a fresh interpreter importing its
``REPRO_IMPORTS`` as part of ``setup_s``.  The sweep harness it imports
must not pull ``asyncio`` or any ``repro.service`` module into that
import: the worker pool is loaded only when a sweep fans out.
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


def test_benchmark_imports_load_neither_asyncio_nor_the_service():
    modules = benchmark_imports()
    assert "repro.harness.parallel" in modules
    code = (
        f"import json, sys; import {', '.join(modules)}; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'asyncio' "
        "or m.startswith('repro.service'))))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=env, timeout=120,
    )
    assert json.loads(out.stdout) == []
