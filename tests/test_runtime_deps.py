import os
import subprocess
import sys
from pathlib import Path

import binflux


def test_import_loads_no_scipy():
    # scipy is a test dependency only; a runtime import of it would add
    # about a second to every CLI call.
    env = dict(os.environ)
    src = str(Path(binflux.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys, binflux, binflux.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
