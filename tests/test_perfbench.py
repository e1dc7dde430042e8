"""The benchmark's smoke mode as a test.

``perfbench/run.py --smoke`` runs every workload once on reduced inputs, in
both trace modes, and fails a job whose stdout differs from the digest
recorded in ``perfbench/expected.json``.  Running it here checks the
byte-identical output contract on every test run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUNNER = ROOT / "perfbench" / "run.py"


@pytest.mark.skipif(not RUNNER.exists(), reason="perfbench/ is absent")
def test_smoke_mode_passes_every_workload():
    proc = subprocess.run(
        [sys.executable, str(RUNNER), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    lines = proc.stdout.splitlines()
    for name in names:
        for trace in (0, 1):
            head = f"smoke {name} trace={trace}: "
            assert [ln for ln in lines if ln.startswith(head + "ok (")], proc.stdout
