"""Check the pinned CLI answers of tests/data/pins.json.

A row is one command: `argv`, optional `stdin`, the `exit` code, and optional
`stdout` ("sha256:<hex>" or a golden under tests/data/), `timeout_s`, `peak_mb`
(a bound on its own peak RSS) and `ci_only` (left to CI by tier-1); `guards`
says what it protects. `python tests/pins.py COMMAND...`, where COMMAND is
`nilbch` or `python -m nilbch`, runs every row and README command after it,
logs each one's wall time, peak RSS, exit code and digest, and exits 1 if any
fails. Every command imports nilbch from this tree's src/.
"""

import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
}
# the prefix tier-1 runs the rows with
SOURCE = [sys.executable, "-m", "nilbch"]

# A process starts from its parent's peak RSS (vfork and exec keep it), so a
# child of a large test process cannot report its own. This small interpreter
# runs the command as its child, kills it at the deadline argv[1], reaps it,
# and ends stderr with a line "<exit code> <peak KB>" or "timeout".
_PARENT = r"""
import os, sys, time
deadline = time.monotonic() + float(sys.argv[1])
pid = os.posix_spawnp(sys.argv[2], sys.argv[2:], os.environ)
while not (done := os.wait4(pid, os.WNOHANG))[0] and time.monotonic() < deadline:
    time.sleep(0.001)
if done[0]:
    report = b"%d %d" % (os.waitstatus_to_exitcode(done[1]), done[2].ru_maxrss)
else:
    os.kill(pid, 9)  # SIGKILL; the signal module would import enum
    os.wait4(pid, 0)
    report = b"timeout"
os.write(2, b"\n" + report)
"""


def table() -> list:
    return json.loads((DATA / "pins.json").read_text())


def readme_commands() -> list:
    """(golden file name, argv, stdin) for each command of the README's
    "Command line" block, verify-identities at 10 trials instead of 100."""
    block = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    out = []
    for i, line in enumerate(block.splitlines(), start=1):
        words = shlex.split(line, comments=True)
        stdin = ""
        if "|" in words:
            # echo '...' | nilbch ...
            stdin, words = words[1] + "\n", words[words.index("|") + 1 :]
        argv = words[1:]
        if "--trials" in argv:
            argv[argv.index("--trials") + 1] = "10"
        out.append((f"readme_{i}_{argv[0]}.json", argv, stdin))
    return out


def readme_row(name: str, argv: list, stdin: str) -> dict:
    return {"argv": argv, "stdin": stdin, "exit": 0, "stdout": name}


def check(row: dict, command: list) -> str:
    """Run one row after the prefix `command`. Return its log line, or raise
    AssertionError on the first way it differs from what the row pins."""
    name = shlex.join(row["argv"])
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _PARENT, str(row.get("timeout_s", "inf")), *command, *row["argv"]],
        input=row.get("stdin", "").encode(), capture_output=True, env=ENV,
    )
    wall = time.perf_counter() - start
    stderr, _, report = proc.stderr.rpartition(b"\n")
    tail = stderr.decode(errors="replace")[-2000:]
    if report == b"timeout":
        raise AssertionError(f"{name}: killed at its {row['timeout_s']} s timeout")
    if len(report.split()) != 2:  # the command could not be started
        raise AssertionError(f"{name}: {tail}")
    code, kb = map(int, report.split())
    peak = kb / 1024
    digest = f"sha256:{hashlib.sha256(proc.stdout).hexdigest()}"
    line = f"{wall:7.2f} s {peak:7.1f} MB  exit {code}  {digest}  {name}"
    if code != row["exit"]:
        raise AssertionError(f"{line}: expected exit {row['exit']}; stderr: {tail}")
    if peak >= row.get("peak_mb", float("inf")):
        raise AssertionError(f"{line}: peak not under its {row['peak_mb']} MB bound")
    pinned = row.get("stdout", digest)  # a row without stdout pins none
    if pinned.startswith("sha256:"):
        if pinned != digest:
            raise AssertionError(f"{line}: expected {pinned}")
    elif proc.stdout != (golden := (DATA / pinned).read_bytes()):
        offset = len(os.path.commonprefix([proc.stdout, golden]))
        raise AssertionError(f"{line}: differs from {pinned} first at byte {offset}")
    return line


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: python tests/pins.py COMMAND...")
    rows = table() + [readme_row(*c) for c in readme_commands()]
    failed = 0
    for row in rows:
        try:
            print(check(row, sys.argv[1:]), flush=True)
        except AssertionError as e:
            failed += 1
            print(f"FAIL {e}", flush=True)
    print(f"{len(rows) - failed} of {len(rows)} pinned commands pass")
    sys.exit(1 if failed else 0)
