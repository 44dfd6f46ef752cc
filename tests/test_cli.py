import hashlib
import io
import os
import subprocess
import sys
import types
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from helpers import (
    GRID,
    HUGE_COUNT_SPECS,
    RIGHT_TREFOIL_PEAK_WORD,
    STABILIZED_UNKNOT_WORD,
    cone_scan_range,
    listed_peaks,
    range_pairs,
)
from legknot import classify, convex, lattice
from legknot.classify import max_tb, mountain_range, torus, unknot
from legknot.cli import _build_parser, main, render_range
from legknot.errors import LegknotError, NonTermination

ROOT = Path(__file__).resolve().parents[1]
_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _legknot(*argv):
    return [sys.executable, "-m", "legknot.cli", *argv]


# Spawns legknot from a fresh interpreter and prints its exit code and
# ru_maxrss.  A child's ru_maxrss starts from the RSS of the process that
# spawned it, so spawning from the test process would count its memory too.
_RSS_PROBE = """import os, sys
pid = os.posix_spawn(sys.executable, sys.argv[1:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss(*argv):
    """Exit code and peak RSS in KiB of one legknot run with stdout to /dev/null."""
    done = subprocess.run([sys.executable, "-c", _RSS_PROBE, *_legknot(*argv)], env=_ENV,
                          capture_output=True, text=True, timeout=120, check=True)
    code, kib = map(int, done.stdout.split())
    return code, kib


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestInvariantsCommand:
    def test_golden_output(self, tmp_path, capsys):
        path = tmp_path / "front.txt"
        path.write_text(STABILIZED_UNKNOT_WORD)
        code, out = run(capsys, "invariants", str(path))
        assert code == 0
        assert out == "tb=-2\nrot=-1\nwrithe=0\nright_cusps=2\n"

    def test_front_from_stdin(self, monkeypatch, capsys):
        stdin = types.SimpleNamespace(buffer=io.BytesIO(STABILIZED_UNKNOT_WORD.encode()))
        monkeypatch.setattr("sys.stdin", stdin)
        code, out = run(capsys, "invariants", "-")
        assert code == 0
        assert out == "tb=-2\nrot=-1\nwrithe=0\nright_cusps=2\n"

    def test_bennequin_gate(self, tmp_path, capsys):
        path = tmp_path / "front.txt"
        path.write_text(RIGHT_TREFOIL_PEAK_WORD)
        code, out = run(capsys, "invariants", str(path), "--knot", "torus:3,2")
        assert code == 0 and "bennequin=ok" in out
        code, out = run(capsys, "invariants", str(path), "--knot", "unknot")
        assert code == 2 and "bennequin=violated" in out

    def test_parse_error_exit_one(self, tmp_path, capsys):
        path = tmp_path / "front.txt"
        path.write_text("L 1\nQ 1\n")
        assert main(["invariants", str(path)]) == 1
        capsys.readouterr()

    def test_non_utf8_front_exit_one(self, tmp_path, capsys):
        path = tmp_path / "front.txt"
        path.write_bytes(b"L 1\n\xff\nR 1\n")
        code, out = run(capsys, "invariants", str(path))
        assert code == 1 and out == ""

    def test_bad_knot_writes_no_stdout(self, tmp_path, capsys):
        path = tmp_path / "front.txt"
        path.write_text(STABILIZED_UNKNOT_WORD)
        code, out = run(capsys, "invariants", str(path), "--knot", "bogus")
        assert code == 1 and out == ""

    def test_two_components_exit_one(self, tmp_path, capsys):
        path = tmp_path / "front.txt"
        path.write_text("L 1\nR 1\nL 1\nR 1\n")
        assert main(["invariants", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: front has more than one component (2 of 4 strands traced)\n"

    def test_crossing_with_no_strands_names_the_count(self, tmp_path, capsys):
        path = tmp_path / "front.txt"
        path.write_text("X 1\n")
        assert main(["invariants", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: X level 1 with 0 strands alive\n"

    def test_no_state_between_calls(self, tmp_path, capsys):
        path = tmp_path / "front.txt"
        path.write_text(STABILIZED_UNKNOT_WORD)
        run(capsys, "invariants", str(path), "--knot", "unknot")
        code, out = run(capsys, "invariants", str(path))
        assert code == 0 and "bennequin=" not in out


class TestClassifyAndIsotopic:
    def test_classify(self, capsys):
        code, out = run(capsys, "classify", "torus:-7,3", "-22", "3")
        assert code == 0
        assert "max_tb=-21" in out
        assert "peak_rotations=-4,-2,2,4" in out
        assert "realizable=true" in out
        code, out = run(capsys, "classify", "torus:-7,3")  # no TB ROT: the peaks only
        assert code == 0
        assert out == "knot=torus:-7,3\nmax_tb=-21\npeak_rotations=-4,-2,2,4\n"

    def test_classify_missing_rot_writes_no_stdout(self, capsys):
        code, out = run(capsys, "classify", "torus:-7,3", "-22")
        assert code == 1 and out == ""

    def test_classify_missing_rot_refused_before_the_peaks(self, capsys, monkeypatch):
        monkeypatch.setattr(classify, "peak_rotations",
                            lambda k: pytest.fail("the peaks were built before the refusal"))
        assert main(["classify", "torus:-1000000001,3", "0"]) == 1
        captured = capsys.readouterr()
        assert captured == ("", "error: classify needs both tb and rot (or neither)\n")

    def test_classify_negative_answer(self, capsys):
        code, out = run(capsys, "classify", "torus:-7,3", "-21", "0")
        assert code == 2 and "realizable=false" in out

    def test_isotopic(self, capsys):
        code, out = run(
            capsys, "isotopic", "torus:-7,3", "-22", "3", "torus:-7,3", "-22", "3"
        )
        assert code == 0 and out == "isotopic\n"
        code, out = run(
            capsys, "isotopic", "torus:-7,3", "-21", "2", "torus:-7,3", "-21", "4"
        )
        assert code == 2 and out == "distinct\n"

    def test_invalid_class_exit_one(self, capsys):
        assert main(["isotopic", "torus:-7,3", "-21", "0", "unknot", "-1", "0"]) == 1
        capsys.readouterr()


class TestRangeAndValleys:
    def test_unknot_depth_one(self, capsys):
        code, out = run(capsys, "range", "--knot", "unknot", "--depth", "1")
        assert code == 0
        assert out == "-1\t0\n-2\t-1\n-2\t1\n"

    def test_negative_depth_exit_one(self, capsys):
        assert main(["range", "--knot", "unknot", "--depth", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: depth must be non-negative\n"

    def test_negative_example_points(self, capsys):
        code, out = run(capsys, "range", "--knot", "torus:-7,3", "--depth", "2")
        lines = out.splitlines()
        assert code == 0
        assert "-22\t3" in lines and "-23\t0" in lines

    def test_peak_line_count(self, capsys):
        code, out = run(capsys, "range", "--knot", "torus:-7,3", "--depth", "0")
        assert code == 0 and len(out.splitlines()) == 4

    def test_valleys(self, capsys):
        code, out = run(capsys, "valleys", "--knot", "torus:-7,3")
        assert code == 0
        assert out == "-22\t-3\n-22\t3\n-23\t0\n"

    @pytest.mark.parametrize("knot", ["unknot", "fig8", "torus:5,2"])
    def test_one_peak_has_no_valleys(self, capsys, knot):
        assert main(["valleys", "--knot", knot]) == 0
        assert capsys.readouterr() == ("", "")

    # e = 1 < q - e = 2 for torus:-7,3 and e = 3 > q - e = 1 for torus:-11,4,
    # so the two valley rows come in either order
    @pytest.mark.parametrize("knot, valleys, peaks, tsv, svg_sha256", [
        ("torus:-7,3", "-22\t-3\n-22\t3\n-23\t0\n", "-4,-2,2,4",
         "-21\t-4\n-21\t-2\n-21\t2\n-21\t4\n-22\t-5\n-22\t-3\n-22\t-1\n-22\t1\n-22\t3\n"
         "-22\t5\n-23\t-6\n-23\t-4\n-23\t-2\n-23\t0\n-23\t2\n-23\t4\n-23\t6\n",
         "c007b976402b1d2faa60d29786f7ab95d7f944dc2e74e47fda6d6cfdd0fd3999"),
        ("torus:-11,4", "-45\t0\n-47\t-4\n-47\t4\n", "-7,-1,1,7",
         "-44\t-7\n-44\t-1\n-44\t1\n-44\t7\n-45\t-8\n-45\t-6\n-45\t-2\n-45\t0\n-45\t2\n"
         "-45\t6\n-45\t8\n-46\t-9\n-46\t-7\n-46\t-5\n-46\t-3\n-46\t-1\n-46\t1\n-46\t3\n"
         "-46\t5\n-46\t7\n-46\t9\n",
         "a76ab132df7167d08a4a3fb796bad44ce1f0278ac20dff6330d8674c7219f393"),
    ], ids=["torus:-7,3", "torus:-11,4"])
    def test_output_built_without_peak_objects(self, capsys, monkeypatch, knot, valleys,
                                               peaks, tsv, svg_sha256):
        def refuse(*args):
            pytest.fail("built Peak objects or met them pair by pair")

        for name in ("peaks", "Peak", "common_destabilization"):
            monkeypatch.setattr(classify, name, refuse)
        assert run(capsys, "valleys", "--knot", knot) == (0, valleys)
        code, out = run(capsys, "classify", knot)
        assert (code, out.splitlines()[-1]) == (0, "peak_rotations=" + peaks)
        assert run(capsys, "range", "--knot", knot, "--depth", "2") == (0, tsv)
        code, out = run(capsys, "range", "--knot", knot, "--depth", "2", "--format", "svg")
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, svg_sha256)


@pytest.mark.parametrize("k", GRID, ids=str)
def test_range_draws_the_cone_scan(k, capsys):
    """TSV lines, SVG circles, labels and arrows against the cone scan:
    classes tb-descending then rot-ascending, and an arrow from each class
    to each of its stabilizations (tb - 1, rot -+ 1) inside the range."""
    svg = "{http://www.w3.org/2000/svg}"
    for depth in range(7):
        pairs = sorted(cone_scan_range(k, depth), key=lambda p: (-p[0], p[1]))
        argv = ("range", "--knot", str(k), "--depth", str(depth))
        assert run(capsys, *argv) == (0, "".join("%d\t%d\n" % p for p in pairs))
        code, out = run(capsys, *argv, "--format", "svg")
        assert code == 0
        root = ET.fromstring(out)
        tmax, rmin = pairs[0][0], min(rot for _, rot in pairs)
        rmax = max(rot for _, rot in pairs)
        assert root.get("viewBox") == "0 0 %d %d" % (60 + 24 * (rmax - rmin), 60 + 24 * depth)

        def xy(tb, rot):
            return 30 + 24 * (rot - rmin), 30 + 24 * (tmax - tb)

        circles = [(int(c.get("cx")), int(c.get("cy"))) for c in root.iter(svg + "circle")]
        assert circles == [xy(*p) for p in pairs], depth
        assert [t.text for t in root.iter(svg + "text")] == ["(%d,%d)" % p for p in pairs]
        lines = [tuple(int(e.get(a)) for a in ("x1", "y1", "x2", "y2"))
                 for e in root.iter(svg + "line")]
        inside = set(pairs)
        assert lines == [
            xy(tb, rot) + xy(tb - 1, child)
            for tb, rot in pairs
            for child in (rot - 1, rot + 1)
            if (tb - 1, child) in inside
        ], depth


class TestSvg:
    def test_valid_xml_with_one_marker_per_pair(self, capsys):
        code, out = run(
            capsys, "range", "--knot", "torus:-7,3", "--depth", "2", "--format", "svg"
        )
        assert code == 0
        root = ET.fromstring(out)
        assert root.tag.endswith("svg")
        circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
        expected = len(range_pairs(mountain_range(torus(-7, 3), 2)))
        assert len(circles) == expected

    def test_render_range_unknot(self):
        text = render_range(mountain_range(unknot(), 1), "svg")
        assert text.count("<circle") == 3
        assert ET.fromstring(text) is not None

    def test_render_range_refuses_an_unknown_format(self):
        with pytest.raises(LegknotError, match="unknown range format 'png'"):
            render_range(mountain_range(unknot(), 1), "png")


class _Recorder(io.StringIO):
    """A stdout that keeps each write call's text."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


class TestStreaming:
    """main writes a handler's chunks as they come: for range and valleys, one
    per tb row or per 4,096 lines of a longer row."""

    @pytest.mark.parametrize("depth", [0, 1, 5])
    def test_range_writes_whole_rows(self, monkeypatch, depth):
        out = _Recorder()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["range", "--knot", "torus:-7,3", "--depth", str(depth)]) == 0
        assert len(out.writes) == depth + 1
        for d, chunk in enumerate(out.writes):  # every class of the row d below the top
            assert chunk.endswith("\n")
            assert {line.split("\t")[0] for line in chunk.splitlines()} == {str(-21 - d)}

    # 4,999 and 9,999 valleys in one row: a chunk per 4,096 lines of a longer row
    @pytest.mark.parametrize("knot, lines", [("torus:-5001,2", [4096, 903]),
                                             ("torus:-10001,2", [4096, 4096, 1807])])
    def test_long_valley_row_in_chunks(self, monkeypatch, knot, lines):
        out = _Recorder()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["valleys", "--knot", knot]) == 0
        assert [chunk.count("\n") for chunk in out.writes] == lines
        assert all(chunk.endswith("\n") for chunk in out.writes)
        k = classify.parse_knot(knot)  # q = 2: every two adjacent peaks meet one step down
        rots = [p.rot for p in reversed(listed_peaks(k))]
        assert out.getvalue() == "".join("%d\t%d\n" % (max_tb(k) - 1, r + 1) for r in rots[:-1])

    def test_long_range_rows_in_chunks(self, monkeypatch):
        out = _Recorder()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["range", "--knot", "torus:-10001,2", "--depth", "1"]) == 0
        assert [chunk.count("\n") for chunk in out.writes] == [4096, 4096, 1808, 4096, 4096, 1809]
        for i, chunk in enumerate(out.writes):  # each chunk ends a line and holds one tb
            assert chunk.endswith("\n")
            assert {line.split("\t")[0] for line in chunk.splitlines()} == {str(-20002 - i // 3)}
        expected = sorted(cone_scan_range(torus(-10001, 2), 1), key=lambda p: (-p[0], p[1]))
        assert out.getvalue() == "".join("%d\t%d\n" % p for p in expected)

    def test_peak_line_in_chunks(self, monkeypatch):
        out = _Recorder()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["classify", "torus:-100001,3"]) == 0
        # the head with the first 4,096 peaks, 16 more chunks of them, then the newline
        assert len(out.writes) == 18 and out.writes[-1] == "\n"
        assert out.getvalue() == "knot=torus:-100001,3\nmax_tb=-300003\npeak_rotations=%s\n" % (
            ",".join(str(p.rot) for p in reversed(listed_peaks(torus(-100001, 3)))))

    def test_normalize_writes_one_line_at_a_time(self, monkeypatch):
        out = _Recorder()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["bypass-normalize", "III:1/4,2/7,1/3"]) == 0
        assert out.writes == [
            "outcome=overtwisted\n",
            "steps=4\n",
            "FirstKind 1/4,2/7,1/3->0,1/4,1/3\n",
            "SecondKind 0,1/4,1/3->0,1/3,1/2\n",
            "SecondKind 0,1/3,1/2->0,1/2,1\n",
            "CaseThreeB 0,1/2,1->1/2,2/3,1\n",
        ]

    @pytest.mark.parametrize("error, code", [(LegknotError, 1), (NonTermination, 3)])
    @pytest.mark.parametrize("fmt", ["tsv", "svg"])
    def test_error_mid_stream_keeps_what_was_written(self, capsys, monkeypatch, error, code, fmt):
        rows = classify.MountainRange.rows

        def first_row_then_fail(r):
            yield next(rows(r))
            raise error("failed after the first row")

        monkeypatch.setattr(classify.MountainRange, "rows", first_row_then_fail)
        assert main(["range", "--knot", "unknot", "--depth", "2", "--format", fmt]) == code
        captured = capsys.readouterr()
        assert captured.err == "error: failed after the first row\n"
        if fmt == "tsv":
            assert captured.out == "-1\t0\n"
        else:  # the head and the arrows of the top row, then no tail
            assert captured.out.startswith("<?xml") and captured.out.count("<line") == 2
            assert "</svg>" not in captured.out


class TestProcess:
    # a closed pipe ends the run quietly whether stdout is block-buffered (the
    # default for a pipe) or written through (PYTHONUNBUFFERED)
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_reader_closing_early_ends_the_run_quietly(self, tmp_path, unbuffered):
        with open(tmp_path / "stderr", "w+b") as err:
            proc = subprocess.Popen(_legknot("range", "--knot", "unknot", "--depth", "1412"),
                                    stdout=subprocess.PIPE, stderr=err,
                                    env=dict(_ENV, PYTHONUNBUFFERED=unbuffered))
            try:
                head = proc.stdout.read(10)
                proc.stdout.close()  # the reader goes away with about 9.9 MB still to write
                assert proc.wait(timeout=60) == 0
            finally:
                proc.kill()  # does nothing once the process has been waited for
            err.seek(0)
            assert err.read() == b""
        assert head == b"-1\t0\n-2\t-1"

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_reader_gone_before_the_first_byte(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(_legknot("farey-count", "7", "3"), stdout=write_end,
                                  stderr=subprocess.PIPE, timeout=60,
                                  env=dict(_ENV, PYTHONUNBUFFERED=unbuffered))
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (0, b"")

    @pytest.mark.skipif(sys.platform != "linux" or not hasattr(os, "wait4"),
                        reason="reads ru_maxrss from os.wait4 in KiB, as Linux reports it")
    def test_svg_range_memory_stays_small(self):
        # 346,150 classes and 113 MB of SVG; held whole, they peaked at 434 MB
        code, kib = _peak_rss("range", "--knot", "torus:-1001,2", "--depth", "300",
                              "--format", "svg")
        assert code == 0
        assert kib < 100 * 1024, "peak RSS %d KiB" % kib

    @pytest.mark.skipif(sys.platform != "linux" or not hasattr(os, "wait4"),
                        reason="reads ru_maxrss from os.wait4 in KiB, as Linux reports it")
    def test_valleys_memory_stays_small(self):
        # 999,999 valleys in one row; built as Peak pairs they peaked at 383 MB,
        # and formatted as one string at 81 MB
        code, kib = _peak_rss("valleys", "--knot", "torus:-1000001,2")
        assert code == 0
        assert kib < 40 * 1024, "peak RSS %d KiB" % kib

    @pytest.mark.skipif(sys.platform != "linux" or not hasattr(os, "wait4"),
                        reason="reads ru_maxrss from os.wait4 in KiB, as Linux reports it")
    def test_classify_memory_stays_small(self):
        # 1,000,000 peaks; joined from one string per peak they peaked at 127 MB
        code, kib = _peak_rss("classify", "torus:-1000001,2")
        assert code == 0
        assert kib < 80 * 1024, "peak RSS %d KiB" % kib

    @pytest.mark.skipif(sys.platform != "linux" or not hasattr(os, "wait4"),
                        reason="reads ru_maxrss from os.wait4 in KiB, as Linux reports it")
    def test_normalize_trace_memory_stays_small(self):
        # 200,000 moves; with the trace joined into one string it peaked at 71 MB
        code, kib = _peak_rss("bypass-normalize", "III:0,1/200001,1/200000")
        assert code == 0
        assert kib < 55 * 1024, "peak RSS %d KiB" % kib


class TestFareyCommands:
    def test_farey_cf(self, capsys):
        code, out = run(capsys, "farey-cf", "7", "3")
        assert code == 0 and out == "-3 -2 -2\n"

    def test_farey_count(self, capsys):
        code, out = run(capsys, "farey-count", "5", "3")
        assert code == 0 and out == "3\n"

    def test_invalid_fraction(self, capsys):
        assert main(["farey-cf", "3", "6"]) == 1
        capsys.readouterr()

    def test_cf_over_the_cap_refused_up_front(self, capsys, monkeypatch):
        def no_list(p, q):
            raise AssertionError("the term list of -%d/%d was built" % (p, q))

        monkeypatch.setattr(lattice, "neg_cf", no_list)
        # 1000002/1000001 = [1; 1000001] has 1000001 terms, all -2
        assert main(["farey-cf", "1000002", "1000001"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "1000001 continued-fraction terms" in captured.err
        monkeypatch.setattr(classify, "MAX_ROWS", 6)  # 7/6 has 6 terms, 8/7 has 7
        assert run(capsys, "farey-cf", "7", "6") == (0, " ".join(["-2"] * 6) + "\n")
        assert run(capsys, "farey-cf", "8", "7") == (1, "")

    def test_count_for_any_p(self, capsys, monkeypatch):
        for module in (lattice, convex):
            monkeypatch.setattr(module, "neg_cf", lambda p, q: pytest.fail("term list built"),
                                raising=False)
        assert run(capsys, "farey-count", "1000000001", "1000000000") == (0, "2\n")
        assert run(capsys, "farey-count", "1000000002", "1000000001") == (0, "2\n")
        # -(10^9 + 3)/4 = -250000001 - 1/(-4): 250000000 * 4 structures
        assert run(capsys, "farey-count", "1000000003", "4") == (0, "1000000000\n")


class TestBypassCommand:
    def test_standard_tight(self, capsys):
        code, out = run(capsys, "bypass-normalize", "III:1,2,inf")
        assert code == 0
        assert out.startswith("outcome=standard-tight\nsteps=0\n")

    def test_overtwisted_with_trace(self, capsys):
        code, out = run(capsys, "bypass-normalize", "III:0,1/2,1")
        assert code == 0
        assert "outcome=overtwisted" in out and "CaseThreeB" in out

    def test_destabilizes(self, capsys):
        code, out = run(capsys, "bypass-normalize", "II:1x2,infx2")
        assert code == 0 and "outcome=destabilizes" in out

    def test_step_limit_exit_three(self, capsys):
        assert main(["bypass-normalize", "III:1/4,2/7,1/3", "--step-limit", "1"]) == 3
        capsys.readouterr()

    def test_step_limit_counts_moves(self, capsys):
        code, out = run(capsys, "bypass-normalize", "III:1/4,2/7,1/3", "--step-limit", "4")
        assert code == 0 and "steps=4\n" in out
        code, out = run(capsys, "bypass-normalize", "III:1,2,inf", "--step-limit", "0")
        assert code == 0 and "steps=0\n" in out
        code, out = run(capsys, "bypass-normalize", "III:1,2,inf", "--step-limit", "-3")
        assert code == 1 and out == ""

    def test_bad_config_exit_one(self, capsys):
        assert main(["bypass-normalize", "III:1/3,2/3,inf"]) == 1
        assert main(["bypass-normalize", "I:infx5+xc"]) == 1
        assert main(["bypass-normalize", "III:1x,2,inf"]) == 1
        for spec in HUGE_COUNT_SPECS:
            assert main(["bypass-normalize", spec]) == 1
        capsys.readouterr()


class TestTransversalCommands:
    def test_max_sl(self, capsys):
        code, out = run(capsys, "transversal-max-sl", "torus:-7,3")
        assert code == 0 and out == "-17\n"

    def test_iterated(self, capsys):
        code, out = run(capsys, "transversal-iterated", "3,2;5,2")
        assert code == 0 and out == "7\n"

    def test_bounds(self, capsys):
        code, out = run(capsys, "bounds", "torus:-5,3")
        assert code == 0
        assert out == "bennequin=7\nfuchs_tabachnikov=-13\nmax_tb=-15\nstrict=true\n"
        code, out = run(capsys, "bounds", "torus:3,2")
        assert code == 0
        assert out == "bennequin=1\nmax_tb=1\nstrict=false\n"
        assert main(["bounds", "fig8"]) == 1
        capsys.readouterr()


class TestParser:
    def test_built_once(self):
        assert _build_parser() is _build_parser()

    def test_every_subcommand_has_a_handler(self):
        (sub,) = [a for a in _build_parser()._actions if a.dest == "command"]
        assert len(sub.choices) == 11
        for name, parser in sub.choices.items():
            assert callable(parser.get_default("run")), name

    def test_usage_errors_exit_one(self, capsys):
        for argv in ([], ["bogus"], ["range", "--knot", "unknot"], ["classify"],
                     ["range", "--knot", "unknot", "--depth", "2", "--format", "png"]):
            assert main(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: legknot"), argv
            assert captured.err.count("\n") == 1, argv

    def test_help_exits_zero(self, capsys):
        for argv in (["--help"], ["classify", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            assert "usage:" in capsys.readouterr().out

    def test_integer_arguments_are_ascii_decimal(self, capsys):
        for bad in ("١", "+1", "1_0", "٣", "", "0x1", "1" * 5000):
            for argv in (["classify", "unknot", bad, "0"],
                         ["range", "--knot", "unknot", "--depth", bad],
                         ["isotopic", "unknot", "-1", bad, "unknot", "-1", "0"],
                         ["farey-cf", bad, "3"],
                         ["classify", "torus:-7,%s" % bad]):
                code, out = run(capsys, *argv)
                assert code == 1 and out == "", argv
        code, out = run(capsys, "classify", "unknot", " -2 ", "1")
        assert code == 0 and out.endswith("realizable=true\n")


class TestHugeKnots:
    HUGE = "torus:-1000000001,3"

    def test_enumerations_refused(self, capsys):
        for argv in (["classify", self.HUGE], ["classify", self.HUGE, "0", "0"],
                     ["valleys", "--knot", self.HUGE],
                     ["range", "--knot", self.HUGE, "--depth", "0"],
                     ["range", "--knot", "unknot", "--depth", "1000000000"]):
            code, out = run(capsys, *argv)
            assert code == 1 and out == "", argv

    def test_range_capped_by_its_rows(self, capsys):
        code, out = run(capsys, "range", "--knot", "torus:-100001,3", "--depth", "3")
        assert code == 0 and out.count("\n") == 366_669

    def test_point_queries_answer(self, capsys):
        p, q = -1000000001, 3
        top, peak = p * q, -p - q
        code, out = run(capsys, "isotopic", self.HUGE, str(top), str(peak),
                        self.HUGE, str(top), str(peak))
        assert code == 0 and out == "isotopic\n"
        code, out = run(capsys, "isotopic", self.HUGE, str(top), str(-peak),
                        self.HUGE, str(top - 1), str(-peak - 1))
        assert code == 2 and out == "distinct\n"
        code, out = run(capsys, "transversal-max-sl", self.HUGE)
        assert code == 0 and out == "%d\n" % (p * q + abs(p) - q)
