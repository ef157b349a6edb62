"""The README's Library example runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs(tmp_path):
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", blocks[0]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
