"""The benchmark's tracer finds every layer module it names.

``perfbench/tracer.py`` looks each entry of its ``LAYERS`` up in
``sys.modules`` as ``qkdsim.<layer>``, after the benchmark has imported
``qkdsim``, ``qkdsim.harness`` (through its workloads) and
``qkdsim.transcript`` (through its checks).  A layer module that is deleted,
or that nothing on that path imports any more, makes a traced run fail
with a ``KeyError``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK_IMPORTS = ("qkdsim", "qkdsim.harness", "qkdsim.transcript")


def _tracer_layers() -> tuple[str, ...]:
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py assigns no LAYERS")


def test_benchmark_imports_load_every_traced_layer():
    script = (
        "import importlib, json, sys\n"
        f"for name in {BENCHMARK_IMPORTS!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = set(json.loads(out))
    layers = _tracer_layers()
    assert layers
    missing = [layer for layer in layers if f"qkdsim.{layer}" not in loaded]
    assert not missing, f"traced layers not loaded by the benchmark's imports: {missing}"
