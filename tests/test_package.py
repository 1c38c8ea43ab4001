"""The package's public surface and what importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

import holder_vi


def test_every_public_name_resolves():
    missing = [name for name in holder_vi.__all__ if not hasattr(holder_vi, name)]
    assert missing == []


def test_package_and_cli_do_not_load_the_tensor_module():
    # holder_vi.tensor holds only names bound from outside the package; the
    # package itself must not need it, so it can be deleted on its own
    src = str(Path(holder_vi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, holder_vi, holder_vi.cli; "
            "print('holder_vi.tensor' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"
