"""The library depends on nothing outside the Python standard library."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# -S: no site packages, so nothing a .pth file imports at start-up is
# counted for or against the library
PROBE = """
import sys
before = set(sys.modules)
import htd
print(htd.__file__)
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_import_loads_only_stdlib():
    out = subprocess.run(
        [sys.executable, "-S", "-c", PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout.split()
    path, loaded = Path(out[0]), out[1:]
    assert path.is_relative_to(SRC)
    assert "htd" in loaded
    foreign = [
        m
        for m in loaded
        if m.split(".")[0] not in sys.stdlib_module_names | {"htd"}
    ]
    assert not foreign
