"""``tools/same_output.py`` compares the command-line output of two trees."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import same_output  # noqa: E402


def test_a_tree_prints_what_it_prints():
    # the validate report and a framed sample, whose model file the tool writes
    argvs = [same_output.ARGVS[3], same_output.ARGVS[-1]]
    assert "{ham}" in argvs[1]
    assert same_output.differences(ROOT, ROOT, argvs) == []


def test_wall_time_is_blanked_in_rows_after_its_header():
    text = 'note, a\nkind,wall_time,error\nx,0.25,"a, b"\ny,0.5,\n'
    assert same_output._blank_wall_time(text) == 'note, a\nkind,wall_time,error\nx,,"a, b"\ny,,'
