import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quick_start() -> str:
    """The ```python block under README.md's "Library quick start" heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library quick start\n", 1)[1]
    match = re.match(r"\s*```python\n(.*?)\n```\n", section, re.DOTALL)
    assert match, "no python block opens the Library quick start section"
    return match.group(1)


def test_library_quick_start_runs():
    """The README's library example imports only names `rspool` exports and
    runs to the end on the package in `src/`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", quick_start()], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert re.search(r"^\S+ expected slots per pool$", done.stdout, re.MULTILINE), done.stdout
