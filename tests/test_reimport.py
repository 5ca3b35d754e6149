"""Re-importing the package must not keep earlier copies of its modules alive."""
from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

# Runs in a child interpreter: dropping prodform from sys.modules inside the test
# process would give later tests classes that differ from the ones they imported.
_SCRIPT = textwrap.dedent(
    """
    import gc
    import importlib
    import sys
    import weakref

    refs = []
    for _ in range(30):
        for name in [m for m in sys.modules if m == "prodform" or m.startswith("prodform.")]:
            del sys.modules[name]
        importlib.import_module("prodform")
        refs.append(weakref.ref(sys.modules["prodform.factors"].RateAtom))
    gc.collect()
    print(sum(ref() is not None for ref in refs))
    """
)


def test_reimported_modules_are_released():
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) <= 1
