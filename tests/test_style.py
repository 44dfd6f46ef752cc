"""Source layout rules that hold for every file under src/."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MAX_LINE = 99


def test_no_line_over_the_limit():
    long = [
        "%s:%d (%d characters)" % (path.relative_to(SRC), n, len(line))
        for path in sorted(SRC.rglob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert not long, "lines over %d characters: %s" % (MAX_LINE, ", ".join(long))
