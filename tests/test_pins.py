"""Each pinned row not marked ci_only, the runner's failures, the table's hygiene."""

import hashlib
import os
import sys
import time

import pytest

import pins
from pins import DATA, SOURCE, check, readme_commands, readme_row, table


# ci_only rows are left out of collection, not skipped: CI runs them through
# tests/pins.py, and a skip fails its tier-1 job
@pytest.mark.parametrize(
    "row", [row for row in table() if not row.get("ci_only")], ids=lambda row: "_".join(row["argv"])
)
def test_pinned_row(row):
    check(row, SOURCE)


HALL = (DATA / "readme_1_hall.json").read_bytes()
DIGEST = hashlib.sha256(HALL).hexdigest()
FLIPPED = DIGEST[:-1] + ("1" if DIGEST[-1] == "0" else "0")
# a prefix whose command would run for a minute unless it is killed
SLEEP = [sys.executable, "-c", "import time; time.sleep(60)"]


@pytest.mark.parametrize(
    "change, golden, command, message",
    [
        ({"stdout": f"sha256:{FLIPPED}"}, HALL, SOURCE, f"sha256:{DIGEST}  hall .* expected sha256:{FLIPPED}"),
        ({}, HALL[:10] + b"#" + HALL[11:], SOURCE, "first at byte 10$"),
        ({"exit": 3}, HALL, SOURCE, "exit 0 .* expected exit 3"),
        ({"timeout_s": 0.05}, HALL, SLEEP, "killed at its 0.05 s timeout"),
        ({"peak_mb": 1}, HALL, SOURCE, "not under its 1 MB bound"),
    ],
    ids=["digest", "golden", "exit", "timeout", "peak"],
)
def test_check_fails_a_row_that_differs(tmp_path, monkeypatch, change, golden, command, message):
    # the golden is a temporary copy of the README's hall golden
    (tmp_path / "hall.json").write_bytes(golden)
    monkeypatch.setattr(pins, "DATA", tmp_path)
    row = {"argv": ["hall", "--gens", "2", "--step", "3"], "exit": 0, "stdout": "hall.json", **change}
    start = time.perf_counter()
    with pytest.raises(AssertionError, match=message):
        check(row, command)
    # nothing is left running: a timeout is reported only once the command is
    # killed and reaped, and the runner reaps its own child
    assert time.perf_counter() - start < 10
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_table_hygiene():
    rows = table()
    fields = {"argv", "stdin", "exit", "stdout", "timeout_s", "peak_mb", "ci_only", "guards"}
    assert all({"argv", "exit", "guards"} <= set(row) <= fields for row in rows)
    commands = [(tuple(row["argv"]), row.get("stdin", "")) for row in rows]
    assert len(set(commands)) == len(commands), "two rows run the same command"
    rows += [readme_row(*c) for c in readme_commands()]
    goldens = {row["stdout"] for row in rows if not row.get("stdout", "sha256:").startswith("sha256:")}
    files = {path.name for path in DATA.iterdir()} - {"pins.json"}
    assert goldens - files == set(), "a row names a golden that does not exist"
    assert files - goldens == set(), "a file under tests/data/ is read by no row"
