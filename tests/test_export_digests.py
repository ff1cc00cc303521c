"""The export-digests script's comparison: which named digests differ
between a base and a change (canned values; no workload is run)."""

import importlib.util
import sys
from pathlib import Path

_SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(_SCRIPTS))  # the script imports ab_pairs
_spec = importlib.util.spec_from_file_location(
    "export_digests", _SCRIPTS / "export_digests.py"
)
export_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(export_digests)


def test_equal_runs_have_no_differences():
    run = {"export:log:hospital": "ab" * 32, "count:channels": "723"}
    assert export_digests.differences(run, dict(run)) == []


def test_changed_and_one_sided_names_are_reported_sorted():
    base = {"export:log:a": "1", "count:x": "5", "spill:a.seg": "9"}
    change = {"export:log:a": "2", "count:x": "5", "spill:b.seg": "9"}
    assert export_digests.differences(base, change) == [
        "export:log:a: 1 -> 2",
        "spill:a.seg: 9 -> <missing>",
        "spill:b.seg: <missing> -> 9",
    ]


def test_parse_reads_the_printed_lines():
    text = "count:channels 723\nexport:log:hospital abc\n"
    assert export_digests._parse(text) == {
        "count:channels": "723", "export:log:hospital": "abc",
    }
