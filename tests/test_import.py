"""`import emo` loads only what the library runs on.

Of scipy it loads only the extension module that holds erf, which gelu needs:
scipy.special's package init would load every special function plus scipy's
own OpenBLAS into every process.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_import_leaves_out_unused_heavy_modules():
    # each would add to every process's resident memory: scipy.ndimage (no
    # library code uses it), jsonschema (a test-only dependency), and
    # scipy.special and scipy.linalg (every special function and scipy's
    # OpenBLAS, where gelu needs only erf)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    heavy = ("scipy.ndimage", "jsonschema", "scipy.special", "scipy.linalg")
    code = f"import sys, emo; print(' '.join(m for m in {heavy!r} if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-B", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.split() == []
