"""Pinned CLI stdout: exit code and sha256 of stdout for a fixed set of commands.

cli_pins.json lists about seventy argv: every command in every --format,
sample at two seeds with --workers 1 and 4, render with a relative --out,
selfcheck, and inputs that exit 2 (invalid) or 3 (a resource guard).
Each pin was made by running the argv through cli.main in-process, in an
empty working directory, and hashing what it printed to stdout.  The
first 56 were made at commit eb9af95 (before the input rules moved into
words.check_length and words.check_guard).  The next two, prob 0110 at
n = 40000 and rate at n = 99999, were made at commit 95fbcb8, before the
partial row pass went two terms per step, so they pin its long walks
past the one-digit edge at n = 32768.  The next two, pmf at n = 1000 in
json and at n = 2002 in csv, were made at commit 5054d9c, while the pmf
row still came from its own one-pass row function, so they pin whole
rows walked through count_full's anchor.  The next nine, pmf at n = 0, 1
and 3 in text, json and csv, were made at commit b4796d8, while each mass
was still stored as its own ExactProb, so they pin the rows holding only
the unknot and the first row with a crossing mass across the move to word
counts over 2**n.  The last three, trace with --locations 9,2,5,2 in text,
json and csv, were made at commit 570eea6 and hash the same as the
--locations 2,5,9 rows: they pin the lenient location rule (sorted,
repeats merged).  Nothing here rewrites the pins: a change that means to
alter a pinned stdout edits the file by hand and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from billiardknots.cli import main

PINS = json.loads(Path(__file__).with_name("cli_pins.json").read_text())


@pytest.mark.parametrize("pin", PINS, ids=[" ".join(p["argv"]) for p in PINS])
def test_cli_stdout_is_pinned(pin, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # render writes its --out relative to here
    code = main(list(pin["argv"]))
    out = capsys.readouterr().out
    assert code == pin["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == pin["stdout_sha256"]
