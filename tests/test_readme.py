"""The README's examples run as written: its python blocks in order, in
one namespace, and each line of its worked example as a shell command."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

from helpers import subprocess_env

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_worked_example_runs(tmp_path):
    text = README.read_text(encoding="utf-8")
    lines = re.search(r"^### Worked example\n\n```\n(.*?)^```$", text, re.M | re.S)[1].splitlines()
    assert len(lines) == 4
    for line in lines:
        program, *args = shlex.split(line)
        args = [str(ROOT / a) if a.startswith("scripts/") else a for a in args]
        prefix = {"python": [sys.executable], "pathlift": [sys.executable, "-m", "pathlift"]}
        result = subprocess.run(
            prefix[program] + args, cwd=tmp_path, capture_output=True, text=True, env=subprocess_env()
        )
        assert result.returncode == 0, f"{line}\n{result.stderr}"
