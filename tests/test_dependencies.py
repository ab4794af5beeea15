"""The runtime footprint: numpy is the only dependency, also on the
neighbour-slot path that applies W on large sparse graphs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SOLVE_ON_SLOT_RING = """
import json, sys
import entrodual as ed
W = ed.build_laplacian(ed.topology_ring(256))
inst = ed.generate_instance(7, 256, 2, 4, 1.0, 3.0)
ed.run_stm(inst, W, ed.STMConfig(max_iter=5, trace_every=5))
print(json.dumps({"slots": isinstance(W.operator, ed.network.NeighbourSlots),
                  "scipy": "scipy" in sys.modules}))
"""


def test_slot_path_does_not_import_scipy():
    proc = subprocess.run([sys.executable, "-c", SOLVE_ON_SLOT_RING],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(proc.stdout) == {"slots": True, "scipy": False}


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert [dep.split(">")[0].split("=")[0] for dep in project["dependencies"]] == ["numpy"]
