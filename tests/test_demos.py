"""Every demo script runs to completion and prints exactly its recorded output.

The recorded stdout of each demo is in ``tests/demo_output/<stem>.txt``;
demo 02 also writes ``negative_torus_range.svg``, recorded there too.
The ```python examples of README.md run here as doctests.
"""

import doctest
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RECORDED = Path(__file__).resolve().parent / "demo_output"


def test_demos_found():
    assert DEMOS
    assert sorted(p.stem for p in RECORDED.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # a copy in tmp_path, so that files a demo writes beside itself land there
    script = shutil.copy(demo, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (RECORDED / (demo.stem + ".txt")).read_text(encoding="utf-8")
    if demo.stem == "02_mountain_ranges":
        svg = "negative_torus_range.svg"
        assert (tmp_path / svg).read_bytes() == (RECORDED / svg).read_bytes()


def test_readme_examples():
    """Each ```python block of README.md runs as a doctest, closing fence stripped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)
    assert blocks
    runner = doctest.DocTestRunner()
    for i, block in enumerate(blocks):
        runner.run(doctest.DocTestParser().get_doctest(block, {}, "README.md[%d]" % i,
                                                       "README.md", 0))
    assert runner.summarize(verbose=False).failed == 0
