import json
import os
import resource
import subprocess
import sys
from fractions import Fraction

import click
import pytest
from click.testing import CliRunner

import nexpansive
from nexpansive.cli import _fraction_arg, main


@pytest.fixture()
def runner():
    return CliRunner()


def run_ok(runner, tmp_path, args):
    result = runner.invoke(main, args + ["--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    return result


def load(tmp_path, command):
    return json.loads((tmp_path / f"{command}.json").read_text())


def test_construct(runner, tmp_path):
    run_ok(runner, tmp_path, ["construct", "--k-hi", "6"])
    report = load(tmp_path, "construct")
    assert report["ok"] is True
    assert report["result"]["satellites"] == report["result"]["closed_form"]


def test_ball_exact(runner, tmp_path):
    run_ok(runner, tmp_path,
           ["ball", "--center", "periodic:5", "--radius", "1/5"])
    report = load(tmp_path, "ball")
    assert len(report["result"]["members"]) == 3
    assert report["result"]["mode"] == "exact"
    assert report["config"]["system"]["n"] == 3
    assert "k_hi" not in report["result"]
    assert report["result"]["universe"] == \
        "closed form over all satellites and base points"


def test_ball_horizon(runner, tmp_path):
    run_ok(runner, tmp_path,
           ["ball", "--center", "periodic:5", "--radius", "1/5",
            "--mode", "horizon", "--k-hi", "8", "--horizon", "8"])
    report = load(tmp_path, "ball")
    assert report["result"]["mode"] == "horizon"
    assert len(report["result"]["members"]) == 3
    assert "k_hi" not in report["result"]
    assert report["result"]["universe"] == \
        "satellites up to k_hi=8, window |t|<=8"


def test_ball_singleton(runner, tmp_path):
    run_ok(runner, tmp_path,
           ["ball", "--center", "extra:1,5,0", "--radius", "0/1"])
    report = load(tmp_path, "ball")
    assert len(report["result"]["members"]) == 1


def test_expansivity_certificate(runner, tmp_path):
    run_ok(runner, tmp_path,
           ["expansivity", "--n", "3", "--c", "1/4", "--k-hi", "12",
            "--seed", "7", "--random-count", "20"])
    report = load(tmp_path, "expansivity")
    assert report["result"]["certificate"]["largest_ball"] == 3
    assert len(report["result"]["lower_bound_falsifiers"]) == 3
    for fal in report["result"]["lower_bound_falsifiers"]:
        assert len(fal["members"]) == 3


def test_classes_with_expectation_and_csv(runner, tmp_path):
    csv_path = tmp_path / "edges.csv"
    run_ok(runner, tmp_path,
           ["classes", "--k-hi", "8", "--eps", "1/16",
            "--expect-min-classes", "16", "--edges-csv", str(csv_path)])
    report = load(tmp_path, "classes")
    assert report["result"]["satellite_orbit_classes"] >= 16
    assert csv_path.read_text().startswith("u,v")


def test_classes_failure_exits_one(runner, tmp_path):
    result = runner.invoke(main, ["classes", "--k-hi", "6", "--eps", "1/12",
                                  "--expect-min-classes", "999",
                                  "--out", str(tmp_path)])
    assert result.exit_code == 1
    assert load(tmp_path, "classes")["ok"] is False
    assert "classes: 15 classes < expected 999" in result.output


@pytest.mark.parametrize("args", [
    ["--eps", "0/1"],
    ["--eps", "-1/3"],
    ["--k-hi", "80"],
    ["--k-hi", "0"],
])
def test_classes_invalid_input_exits_two(runner, tmp_path, args):
    result = runner.invoke(main, ["classes"] + args + ["--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output


def test_stable_count_and_radius(runner, tmp_path):
    run_ok(runner, tmp_path,
           ["stable-count", "--center", "periodic:7", "--eps", "1/7"])
    assert load(tmp_path, "stable-count")["result"]["count"] == 3
    run_ok(runner, tmp_path,
           ["stable-radius", "--center", "periodic:7", "--eps", "1/7"])
    report = load(tmp_path, "stable-radius")
    assert report["result"]["radius"] == "1/28"
    assert report["result"]["failures"] == []


def test_shadow(runner, tmp_path):
    run_ok(runner, tmp_path,
           ["shadow", "--orbits", "3", "--length", "40", "--seed", "5"])
    report = load(tmp_path, "shadow")
    assert all(chk["ok"] for chk in report["result"]["checks"])


def test_limit_shadow(runner, tmp_path):
    run_ok(runner, tmp_path,
           ["limit-shadow", "--stages", "8",
            "--thresholds", "1/2,1/4,1/8"])
    report = load(tmp_path, "limit-shadow")
    assert [d[0] for d in report["result"]["decay"]] == ["1/2", "1/4", "1/8"]


def test_two_sided(runner, tmp_path):
    run_ok(runner, tmp_path, ["two-sided", "--half", "64"])
    report = load(tmp_path, "two-sided")
    assert report["result"]["junction"] is not None


def test_metric_axioms(runner, tmp_path):
    run_ok(runner, tmp_path,
           ["metric-axioms", "--trials", "500", "--seed", "3"])
    assert load(tmp_path, "metric-axioms")["result"]["violations"] == []


def test_rationals_are_p_q_or_bare_integers(runner, tmp_path):
    assert _fraction_arg("7/2", "eps") == Fraction(7, 2)
    assert _fraction_arg("-6/4", "eps") == Fraction(-3, 2)
    assert _fraction_arg("5", "eps") == Fraction(5)
    for bad in ("1/0", "x", "1/2/3", ""):
        with pytest.raises(click.UsageError, match="bad rational for eps"):
            _fraction_arg(bad, "eps")
    run_ok(runner, tmp_path,
           ["stable-count", "--center", "periodic:5", "--eps", "0"])
    assert load(tmp_path, "stable-count")["result"]["epsilon"] == "0/1"


def test_reports_are_reproducible(runner, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        result = runner.invoke(main, ["expansivity", "--k-hi", "10",
                                      "--seed", "9", "--random-count", "15",
                                      "--out", str(out)])
        assert result.exit_code == 0
    assert (a / "expansivity.json").read_bytes() == \
        (b / "expansivity.json").read_bytes()


def test_invalid_inputs_exit_two(runner, tmp_path):
    bad = [
        ["ball", "--center", "bogus:1", "--radius", "1/4"],
        ["ball", "--center", "periodic:5", "--radius", "1/2"],
        ["ball", "--center", "extra:one,5,0", "--radius", "1/4"],
        ["stable-count", "--center", "periodic:5", "--eps", "2/3"],
    ]
    for args in bad:
        result = runner.invoke(main, args + ["--out", str(tmp_path)])
        assert result.exit_code == 2, (args, result.output)


def test_config_overrides_flags(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": {"n": 5}, "k_hi": 4}))
    run_ok(runner, tmp_path,
           ["construct", "--k-hi", "9", "--config", str(cfg)])
    report = load(tmp_path, "construct")
    assert report["config"]["system"]["n"] == 5
    assert report["config"]["k_hi"] == 4
    assert report["result"]["satellites"] == 4 * (2 + 3 + 4 + 5)


@pytest.mark.parametrize("args", [
    ["construct", "--k-hi", "80"],
    ["expansivity", "--c", "0/1"],
    ["shadow", "--eps", "1/1000"],
    ["ball", "--center", "periodic:5", "--radius", "1/5", "--mode", "horizon",
     "--horizon", "-1"],
    ["limit-shadow", "--thresholds", "0/1"],
    ["limit-shadow", "--thresholds", "-1/2"],
    ["two-sided", "--thresholds", "0/1"],
    ["two-sided", "--half", "64", "--thresholds", "1/2,1/1099511627776"],
    ["two-sided", "--half", "8"],
    ["two-sided", "--past-word", "01", "--future-word", "01", "--half", "8"],
    ["metric-axioms", "--k-hi", "100"],
    ["two-sided", "--half", "1"],
    ["stable-radius", "--center", "extra:1,5,9"],
    ["stable-radius", "--center", "extra:1,5,-1"],
])
def test_library_value_errors_exit_two(runner, tmp_path, args):
    result = runner.invoke(main, args + ["--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert not isinstance(result.exception, ValueError)
    if args[:3] == ["two-sided", "--half", "64"]:
        assert ("past tail does not reach every threshold within its 64 "
                "steps: none of 1 candidates decays through "
                "['1/1099511627776']") in result.output
        assert "'1/2'" not in result.output
    if args[0] == "metric-axioms":
        assert "k_hi=100 exceeds enumeration bound 50" in result.output
    if args[0] == "stable-radius":
        j = args[-1].split(",")[-1]
        assert (f"ExtraPoint(i=1, k=5, j={j}) has an invalid level or phase"
                in result.output)
    if args[-2] == "--half":
        half = args[-1]
        assert (f"past tail of {half} steps is too short to limit-trace" in
                result.output)
        assert f"--half above {half}" in result.output


@pytest.mark.parametrize("command", ["classes", "construct"])
@pytest.mark.parametrize("overrides", [
    {"k_hi": "x"},
    {"k_hi": 4.5},
    {"k_hi": True},
    {"system": {"n": "3"}},
    {"system": {"variant": "nope"}},
    {"system": []},
    {"no_such_flag": 1},
])
def test_config_override_types_are_checked(runner, tmp_path, command,
                                           overrides):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    result = runner.invoke(main, [command, "--config", str(cfg),
                                  "--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / f"{command}.json").exists()


def test_config_may_reset_an_optional_flag(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k_hi": 6, "eps": None}))
    run_ok(runner, tmp_path,
           ["classes", "--eps", "1/3", "--config", str(cfg)])
    report = load(tmp_path, "classes")
    assert report["config"]["eps"] is None
    assert report["result"]["epsilon"] == "1/12"


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command, name, value, rest", [
    ("construct", "k_hi", 0, []),
    ("expansivity", "k_hi", 0, []),
    ("metric-axioms", "trials", -1, []),
    ("stable-radius", "window", -1, ["--center", "periodic:7"]),
    ("shadow", "orbits", 0, []),
    ("shadow", "orbits", -1, []),
    ("ball", "k_hi", 0, ["--center", "periodic:5", "--radius", "1/5",
                         "--mode", "horizon"]),
    ("metric-axioms", "k_hi", 0, []),
    ("metric-axioms", "k_hi", -2, []),
    ("expansivity", "random_count", -1, []),
    ("limit-shadow", "stages", -3, []),
    ("limit-shadow", "stages", 0, []),
    ("two-sided", "half", 0, []),
    ("two-sided", "half", -4, []),
    ("shadow", "length", 0, []),
    ("shadow", "delta_exp", 0, []),
    ("shadow", "delta_exp", -1, []),
])
def test_non_positive_sizes_exit_two(runner, tmp_path, via, command, name,
                                     value, rest):
    if via == "flag":
        args = [f"--{name.replace('_', '-')}", str(value)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: value}))
        args = ["--config", str(cfg)]
    result = runner.invoke(main, [command, *rest, *args,
                                  "--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert "range" in result.output
    assert not (tmp_path / f"{command}.json").exists()


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command, name, limit", [
    ("limit-shadow", "stages", 15),
    ("two-sided", "half", 8192),
    ("shadow", "length", 8000),
    ("shadow", "delta_exp", 16),
])
def test_sizes_above_their_limit_exit_two(runner, tmp_path, via, command,
                                          name, limit):
    flag = f"--{name.replace('_', '-')}"
    help_text = runner.invoke(main, [command, "--help"]).output
    low = 8 if name == "stages" else 1
    assert f"{low}<=x<={limit}" in help_text
    if via == "flag":
        args = [flag, str(limit + 1)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: limit + 1}))
        args = ["--config", str(cfg)]
    result = runner.invoke(main, [command, *args, "--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert "range" in result.output
    assert not (tmp_path / f"{command}.json").exists()


@pytest.mark.parametrize("via", ["flag", "config"])
def test_limit_shadow_stages_start_at_eight(runner, tmp_path, via):
    # below 8 stages the switching schedule yields at most one usable
    # stage, so 7 is refused as out of range and 8 is the least that runs
    def args(stages):
        if via == "flag":
            return ["--stages", str(stages)]
        cfg = tmp_path / f"cfg{stages}.json"
        cfg.write_text(json.dumps({"stages": stages}))
        return ["--config", str(cfg)]

    result = runner.invoke(main, ["limit-shadow", *args(7),
                                  "--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert "8<=x<=15" in result.output
    assert not (tmp_path / "limit-shadow.json").exists()
    run_ok(runner, tmp_path, ["limit-shadow", *args(8)])
    assert load(tmp_path, "limit-shadow")["config"]["stages"] == 8


def _child_peak_kib(tmp_path, args):
    """Run the CLI with args in one child under a 120 s CPU limit, assert
    exit 0, and return the child's peak resident size in KiB."""
    def limit_cpu():
        resource.setrlimit(resource.RLIMIT_CPU, (120, 120))

    src = os.path.dirname(os.path.dirname(nexpansive.__file__))
    with open(tmp_path / "stderr.txt", "w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", "from nexpansive.cli import main; main()",
             *args, "--out", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.DEVNULL,
            stderr=err, preexec_fn=limit_cpu)
        # wait4 reaps the child itself and returns its resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        assert proc.returncode == 0, err.read()
    return usage.ru_maxrss  # KiB on Linux


def test_limit_shadow_at_its_stage_limit_stays_small(tmp_path):
    # the decay reads one mismatch mask per run and builds no per-index
    # distance; a list of them (each up to 2**-32768 at this size) would
    # hold about 100 MiB
    peak = _child_peak_kib(tmp_path, ["limit-shadow", "--stages", "15"])
    assert load(tmp_path, "limit-shadow")["ok"]
    assert peak < 60 * 1024


def test_two_sided_at_its_half_limit_stays_small(tmp_path):
    # the pseudo-orbit keeps runs, the past half is mirrored run by run,
    # and the sweeps read the traced point once per call: about 62 MiB
    peak = _child_peak_kib(tmp_path, ["two-sided", "--half", "8192"])
    assert load(tmp_path, "two-sided")["ok"]
    assert peak < 96 * 1024
