"""The A/B pairs script's summary: medians, IQR, wins and verdicts
computed from canned benchmark JSON lines (no benchmark is run)."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

END_TO_END = [
    {"name": "msgs_per_s", "unit": "msg/s", "better": "higher", "bound": 0.1},
    {"name": "round_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "absent_metric", "unit": "s", "better": "lower", "bound": 0.1},
]


def _line(msgs, p50, correct=True):
    return json.dumps({
        "correct": correct, "attempted": 10, "failed": 0 if correct else 1,
        "metrics": {
            "msgs_per_s": {"value": msgs, "unit": "msg/s"},
            "round_p50_ms": {"value": p50, "unit": "ms"},
        },
    })


def test_rows_report_medians_wins_and_verdicts():
    base = [_line(100, 10.0), _line(102, 10.2), _line(98, 9.8), _line(100, 10.0)]
    change = [_line(101, 12.0), _line(103, 12.1), _line(99, 11.9), _line(99, 12.0)]
    rows = {r["metric"]: r for r in ab_pairs.summarise(base, change, END_TO_END)}
    assert set(rows) == {"msgs_per_s", "round_p50_ms"}  # undeclared skipped

    msgs = rows["msgs_per_s"]
    assert msgs["base_median"] == 100 and msgs["change_median"] == 100
    assert msgs["wins"] == 3 and msgs["pairs"] == 4  # higher is better
    assert msgs["base_iqr"] == pytest.approx(1.0)
    assert msgs["verdict"] == "within"

    p50 = rows["round_p50_ms"]
    assert p50["delta"] == pytest.approx(0.2)
    assert p50["wins"] == 0  # lower is better, change always slower
    assert p50["verdict"] == "worse"
    assert "round_p50_ms" in ab_pairs.format_rows(list(rows.values()))


def test_noisy_base_is_unresolved():
    base = [_line(100, 5.0), _line(100, 10.0), _line(100, 15.0)]
    change = [_line(100, 10.0)] * 3
    [_, p50] = ab_pairs.summarise(base, change, END_TO_END)
    assert p50["verdict"] == "unresolved"  # base IQR 50% > 10% bound


def test_noisy_base_is_settled_by_dominance():
    """A base IQR wider than the bound does not hide a change whose
    every run reads worse (or better) than every base run."""
    base = [_line(100, 5.0), _line(100, 6.0), _line(100, 7.0)]
    worse = [_line(100, 9.0), _line(100, 10.0), _line(100, 11.0)]
    better = [_line(100, 4.0), _line(100, 4.5), _line(100, 4.8)]
    [_, p50] = ab_pairs.summarise(base, worse, END_TO_END)
    assert p50["verdict"] == "worse"  # IQR 16.7% > 10%, yet dominated
    [_, p50] = ab_pairs.summarise(base, better, END_TO_END)
    assert p50["verdict"] == "within"


def test_incorrect_run_is_refused():
    with pytest.raises(ValueError, match="not correct"):
        ab_pairs.summarise([_line(1, 1)], [_line(1, 1, correct=False)],
                           END_TO_END)


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        ab_pairs.summarise([_line(1, 1)], [], END_TO_END)
