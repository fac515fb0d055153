"""The micro-benchmark runner in bench/run.py, on one cheap case.

One run against a doctored earlier report must write every field of a
case, mark the changed summary and the changed digest, and exit 1.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"
CHEAP = "base_dist near k=8"


@pytest.fixture
def bench(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "CASES",
                        [c for c in module.CASES if c[0] == CHEAP])
    monkeypatch.setattr(module, "RUNS", 1)
    limit = sys.get_int_max_str_digits()
    yield module
    sys.set_int_max_str_digits(limit)  # main lifts it for 2**-65537


def test_against_marks_a_changed_summary_and_digest(bench, tmp_path,
                                                    capsys):
    old = tmp_path / "old.json"
    old.write_text(json.dumps({"cases": [
        {"case": CHEAP, "median_s": 1.0, "build_s": 1.0, "window_calls": 9,
         "summary": "2**-9", "sha256": "0" * 64}]}))
    new = tmp_path / "new.json"
    with pytest.raises(SystemExit) as exit_:
        bench.main([str(new), "--against", str(old)])
    assert exit_.value.code == 1
    line = capsys.readouterr().out
    assert "summary differs" in line and "digest differs" in line
    report = json.loads(new.read_text())
    assert report["against"] == json.loads(old.read_text())
    [case] = report["cases"]
    assert set(case) == {"case", "runs", "build_s", "build_times_s",
                         "median_s", "times_s", "window_calls",
                         "window_symbols", "summary", "sha256"}
    assert case["case"] == CHEAP and case["runs"] == 1
    assert case["window_calls"] == 2 and case["window_symbols"] == 66
    assert case["summary"] == "2**-1"
    assert len(case["times_s"]) == len(case["build_times_s"]) == 1
    # the case against itself is not marked
    assert bench.compare(case, case)[1] == []
    # an earlier tracing report, with neither digests nor build times
    early = {k: v for k, v in case.items() if k not in ("sha256", "build_s")}
    text, marks = bench.compare(case, {**early, "summary": "2**-9"})
    assert marks == ["summary differs"] and "build" not in text
