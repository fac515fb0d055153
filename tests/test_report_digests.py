"""Every README command, at reduced sizes, writes the report it always wrote.

The sha256 of each report file is pinned in report_digests.json, keyed by
the command line. A change that alters a report on purpose updates its
entry and states the change; any other mismatch is a regression.
"""

import hashlib
import json
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from nexpansive.cli import main

DIGESTS = Path(__file__).with_name("report_digests.json")

# The README's commands, with the sizes of shadow, expansivity, two-sided
# and metric-axioms cut so the whole table runs in a few seconds; classes
# runs without --edges-csv, whose path the report would echo. The horizon
# ball over a satellite center pins a satellite's window suprema, and the
# second two-sided run decays at nonzero indices on both sides of time 0.
COMMANDS = [
    "construct --k-hi 12",
    "ball --center periodic:12 --radius 1/12",
    "ball --center extra:1,5,0 --radius 0/1",
    "ball --center periodic:5 --radius 1/5 --mode horizon --k-hi 8 --horizon 8",
    "ball --center extra:1,5,0 --radius 3/4 --mode horizon --horizon 40",
    "expansivity --n 3 --c 1/4 --k-hi 10 --seed 7 --random-count 15",
    "classes --n 3 --k-hi 12 --eps 1/24",
    "shadow --orbits 20 --length 100 --delta-exp 6",
    "stable-count --center periodic:7 --eps 1/7",
    "stable-count --n 3 --center extra:1,5,1 --eps 1/4",
    "stable-count --n 3 --center base:0,1,00001,-2 --eps 3/8",
    "stable-radius --center periodic:7 --eps 1/7 --window 8",
    "limit-shadow --stages 10",
    "two-sided --half 128",
    "two-sided --half 256 --past-word 01 --future-word 0011 "
    "--thresholds 1/2,1/64,1/4096,1/262144",
    "metric-axioms --trials 2000 --seed 7",
]


def report_digest(command, out):
    """Run one command line in-process; the sha256 of the report it wrote."""
    args = shlex.split(command)
    result = CliRunner().invoke(main, args + ["--out", str(out)])
    assert result.exit_code == 0, f"{command}: {result.output}"
    return hashlib.sha256((out / f"{args[0]}.json").read_bytes()).hexdigest()


@pytest.mark.parametrize("command", COMMANDS)
def test_report_digest(tmp_path, command):
    expected = json.loads(DIGESTS.read_text())
    assert command in expected, f"no pinned digest for {command!r}"
    assert report_digest(command, tmp_path) == expected[command], (
        f"report of {command!r} changed")


def test_digest_table_lists_exactly_the_commands():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(COMMANDS)
