"""The runtime package imports nothing outside the standard library."""

import subprocess
import sys
from pathlib import Path

import factorkit

PROBE = """
import sys
before = set(sys.modules)
import factorkit, factorkit.cli, factorkit.generators, factorkit.io
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - {"factorkit"} - set(sys.stdlib_module_names))))
"""


def test_runtime_imports_only_stdlib():
    # A fresh interpreter, run from the directory holding the imported
    # package, so no module loaded by the test session hides an import.
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        cwd=Path(factorkit.__file__).parents[1],
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
