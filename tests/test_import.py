"""`import emo` loads only what the library runs on."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_import_leaves_out_unused_heavy_modules():
    # scipy.ndimage (no library code uses it) and jsonschema (a test-only
    # dependency) would each add to every process's resident memory
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, emo; print(' '.join(m for m in ('scipy.ndimage', 'jsonschema') if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-B", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.split() == []
