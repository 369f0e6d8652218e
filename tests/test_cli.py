"""CLI contract: frozen outputs, exit codes, schemas, determinism."""

import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

import nilbch
from nilbch.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCHEMAS = ROOT / "docs" / "schemas"
PYPROJECT = ROOT / "pyproject.toml"
DATA = Path(__file__).resolve().parent / "data"

# subprocesses import the nilbch under test, whatever the working directory
# or any installed copy
SOURCE_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(nilbch.__file__).resolve().parent.parent),
                      os.environ.get("PYTHONPATH")])
    ),
}


def run_cli(argv, stdin_text: str | None = None):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def run_python(args, **kwargs):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=SOURCE_ENV, **kwargs
    )


def run_subprocess(argv, stdin_text: str = ""):
    return run_python(["-m", "nilbch", *argv], input=stdin_text, text=True)


def validate(payload, schema_name: str):
    schema = json.loads((SCHEMAS / schema_name).read_text())
    jsonschema.validate(payload, schema)


def test_synth_sum_step_one_frozen():
    code, out, _ = run_cli(["synth-sum", "--step", "1"])
    assert code == 0
    assert out == '{"m":1,"word":"a b","length":2,"certificate":"exact"}\n'
    validate(json.loads(out), "synth_sum.json")


def test_synth_sum_step_two_frozen():
    code, out, _ = run_cli(["synth-sum", "--step", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "m": 2,
        "word": "a^2 b^2 c(b, a)^2",
        "length": 12,
        "certificate": "exact",
    }
    validate(payload, "synth_sum.json")


def test_hall_output():
    code, out, _ = run_cli(["hall", "--gens", "2", "--step", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 5
    assert payload["words"][:3] == ["x1", "x2", "[x1,x2]"]
    validate(payload, "hall.json")


def test_bch_default_output():
    code, out, _ = run_cli(["bch", "--step", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {"x1": "1", "x2": "1", "[x1,x2]": "1/2"}
    validate(payload, "lie_element.json")


def test_bch_degree_table():
    code, out, _ = run_cli(["bch", "--step", "3", "--degree-table"])
    assert code == 0
    payload = json.loads(out)
    assert payload[0] == {"pattern": [1, 2], "coefficient": "-1/2"}
    assert len(payload) == 3
    validate(payload, "pattern_table.json")


def test_synth_power_success():
    code, out, _ = run_cli(
        ["synth-power", "--step", "3", "--gens", "2", "--level", "3", "--T", "12"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["divisors"] == [1, 2, 12]
    assert payload["min_residual_degree"] == "exact"
    assert payload["residual_degrees"] == []
    validate(payload, "synth_power.json")


def test_synth_power_divisibility_error():
    code, out, err = run_cli(
        ["synth-power", "--step", "3", "--gens", "2", "--level", "2", "--T", "7"]
    )
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "divisibility"
    assert payload["required"] == 2
    assert payload["got"] == 7
    validate(payload, "error.json")


def test_extract_bracket_stdin():
    logs = json.dumps([{"x1": "1"}, {"x2": "1"}])
    code, out, _ = run_cli(["extract-bracket", "--step", "3"], stdin_text=logs)
    assert code == 0
    payload = json.loads(out)
    assert payload == {"[x1,x2]": "1"}
    validate(payload, "lie_element.json")


def test_extract_bracket_bad_stdin():
    code, _, err = run_cli(["extract-bracket", "--step", "2"], stdin_text="[1, 2, 3]")
    assert code == 2
    assert json.loads(err)["error"] == "json"
    code, _, err = run_cli(["extract-bracket", "--step", "2"], stdin_text="{not json")
    assert code == 2
    # coefficients are rational strings: a JSON number with a fraction part,
    # a list or a boolean is refused, not converted
    for bad in ("0.1", "1e400", "[1]", "true", "false"):
        stdin_text = '[{"x1":%s},{"x2":"1"}]' % bad
        code, _, err = run_cli(["extract-bracket", "--step", "2"], stdin_text=stdin_text)
        assert code == 2
        assert json.loads(err)["error"] == "validation"
    # a key must be the printed name of a basis tree, exactly
    for key in ("[x2,x1]", "[x1, x2]", "[x1,x9]"):
        stdin_text = json.dumps([{key: "1"}, {"x2": "1"}])
        code, _, err = run_cli(["extract-bracket", "--step", "2"], stdin_text=stdin_text)
        assert code == 2
        assert json.loads(err) == {
            "error": "validation",
            "message": f"{key} is not a basis tree at step 2",
        }


def test_verify_identities_small():
    code, out, _ = run_cli(
        ["verify-identities", "--step", "2", "--trials", "5", "--seed", "7"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    validate(payload, "verify_report.json")


@pytest.mark.parametrize("step", [7, 8, 20, 100000])
def test_verify_identities_refuses_a_step_past_the_cap_at_once(step):
    # refused before any check runs, not by the sum-word check after three
    # others, and before the law table's size is counted
    start = time.perf_counter()
    code, out, err = run_cli(["verify-identities", "--step", str(step)])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f'{{"error":"validation","message":"step {step} exceeds the cap 6"}}\n'


def test_synthesis_commands_refuse_past_the_synthesis_caps_at_once():
    start = time.perf_counter()
    for step in (7, 20, 100000):
        code, out, err = run_cli(["synth-sum", "--step", str(step)])
        assert (code, out) == (2, "")
        assert err == f'{{"error":"validation","message":"step {step} exceeds the cap 6"}}\n'
    for argv, message in [
        (["--gens", "1000", "--step", "3", "--level", "2"], "generator count must be in 1..4"),
        (["--gens", "2", "--step", "100000", "--level", "2"], "step 100000 exceeds the cap 6"),
        (["--gens", "2", "--step", "0", "--level", "1"], "the cleared level cannot exceed the step"),
    ]:
        code, out, err = run_cli(["synth-power", *argv, "--T", "12"])
        assert (code, out) == (2, "")
        assert err == f'{{"error":"validation","message":"{message}"}}\n'
    assert time.perf_counter() - start < 1


def test_growth_report_and_schema():
    code, out, err = run_cli(
        ["growth", "--group", "ut", "--dim", "3", "--radius", "1"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ball"] == {"size": 5, "size_aa": 17, "doubling": "17/5"}
    assert payload["cover"]["k"] == 4
    assert payload["log"]["ratio"] == "13/5"
    assert payload["sum_containment"]["pass"] is True
    assert payload["bracket_containment"]["failures"] == 0
    assert payload["b_chain"] == {"sizes": [5, 3, 1], "top_trivial": True}
    validate(payload, "growth_report.json")
    assert "timing" in err  # timing only on stderr


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_growth_stdout_matches_golden_bytes(radius):
    # tests/data/growth_ut3_rR.json is this command's stdout, recorded byte
    # for byte: a faster route to the report must print the same bytes
    proc = run_python(["-m", "nilbch", "growth", "--dim", "3", "--radius", str(radius)])
    assert proc.returncode == 0
    assert proc.stdout == (DATA / f"growth_ut3_r{radius}.json").read_bytes()


@pytest.mark.parametrize(
    "argv, size",
    [
        (["--radius", "1", "--cap", "30"], 32),
        (["--radius", "2", "--cap", "40"], 46),
        (["--radius", "1", "--cap", "100"], 135),
        (["--radius", "1", "--cap", "60"], 135),
        (["--radius", "1", "--powers", "3,2", "--cap", "200"], 299),
    ],
)
def test_growth_size_cap_stderr_is_pinned(argv, size):
    # the size each cap trips at is part of the output contract
    cap = int(argv[-1])
    code, out, err = run_cli(["growth", "--dim", "3", *argv])
    assert (code, out) == (3, "")
    assert err == (
        '{"error":"size-cap","message":"size cap exceeded while building product set: '
        f'{size} > cap {cap}","what":"product set","size":{size},"cap":{cap}}}\n'
    )


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


def assert_golden_stdout(name, argv, stdin=""):
    """The command exits 0 and prints the bytes of tests/data/<name>."""
    proc = run_python(["-m", "nilbch", *argv], input=stdin.encode())
    assert proc.returncode == 0
    assert proc.stdout == (DATA / name).read_bytes()


@pytest.mark.parametrize("name, argv, stdin", readme_commands())
def test_readme_commands_match_golden_bytes(name, argv, stdin):
    # tests/data/readme_*.json hold each README command's stdout, recorded
    # byte for byte
    assert_golden_stdout(name, argv, stdin)


# stdout that passes through the law table, the tail table, the expansion
# defect and the synthesis, recorded byte for byte
@pytest.mark.parametrize(
    "name, argv",
    [
        *((f"bch_s{n}_degree_table.json", ["bch", "--step", str(n), "--degree-table"])
          for n in range(1, 7)),
        ("bch_s6.json", ["bch", "--step", "6"]),
        ("bch_s3_degree_table.txt", ["bch", "--step", "3", "--degree-table", "--format", "text"]),
        ("verify_identities_s5_t5.json", ["verify-identities", "--step", "5", "--trials", "5"]),
        ("synth_sum_s4.json", ["synth-sum", "--step", "4"]),
        ("synth_power_s4_g3_l4_t24.json",
         ["synth-power", "--step", "4", "--gens", "3", "--level", "4", "--T", "24"]),
        ("synth_sum_s5.json", ["synth-sum", "--step", "5"]),
        ("synth_sum_s6.json", ["synth-sum", "--step", "6"]),
        ("synth_power_s5_g3_l5_t720.json",
         ["synth-power", "--step", "5", "--gens", "3", "--level", "5", "--T", "720"]),
        ("synth_power_s5_g2_l3_t720.json",
         ["synth-power", "--step", "5", "--gens", "2", "--level", "3", "--T", "720"]),
        ("synth_power_s5_g3_l4_tm720.json",
         ["synth-power", "--step", "5", "--gens", "3", "--level", "4", "--T", "-720"]),
        ("synth_power_s6_g3_l6_t1440.json",
         ["synth-power", "--step", "6", "--gens", "3", "--level", "6", "--T", "1440"]),
    ],
)
def test_engine_commands_match_golden_bytes(name, argv):
    assert_golden_stdout(name, argv)


def test_bch_step_ten_matches_its_digest():
    # the step-10 law table runs the right-normed solver up to arity 10; its
    # stdout is pinned by digest rather than as a golden file
    code, out, _ = run_cli(["bch", "--step", "10"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9c3d75470f046bbc3b21ec70e56d9130a505b2b9f413a9977c4f1d5245b0d4db"
    )


def test_readme_python_blocks_run():
    text = (ROOT / "README.md").read_text()
    blocks = [part.split("```", 1)[0] for part in text.split("```python\n")[1:]]
    assert len(blocks) == 2
    quick_start, growth = (run_python(["-c", block]) for block in blocks)
    assert quick_start.returncode == 0, quick_start.stderr.decode()
    assert quick_start.stdout == b"2 12\n"
    assert growth.returncode == 0, growth.stderr.decode()


def test_growth_validation_errors():
    code, _, err = run_cli(["growth", "--group", "sl", "--dim", "3", "--radius", "1"])
    assert code == 2
    assert json.loads(err)["error"] == "validation"
    code, _, err = run_cli(
        ["growth", "--group", "ut", "--dim", "3", "--radius", "1", "--powers", "0"]
    )
    assert code == 2


@pytest.mark.parametrize("dim", [8, 20])
def test_growth_refuses_a_dimension_past_the_step_cap_at_once(dim):
    # the sum containment check needs the sum word at step dim - 1; it is
    # refused before the ball, the cover or the powers are built
    start = time.perf_counter()
    code, out, err = run_cli(["growth", "--dim", str(dim), "--radius", "2"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f'{{"error":"validation","message":"step {dim - 1} exceeds the cap 6"}}\n'


@pytest.mark.parametrize("size", [0, -1])
def test_growth_refuses_a_sample_size_below_one_at_once(size):
    start = time.perf_counter()
    code, out, err = run_cli(
        ["growth", "--dim", "3", "--radius", "1", "--mode", "sampled", "--sample-size", str(size)]
    )
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (
        '{"error":"validation","message":'
        f'"sample size must be at least 1, got {size}"}}\n'
    )


def test_growth_size_cap_exit():
    code, _, err = run_cli(
        ["growth", "--group", "ut", "--dim", "3", "--radius", "2", "--cap", "40"]
    )
    assert code == 3
    payload = json.loads(err)
    assert payload["error"] == "size-cap"
    assert payload["cap"] == 40
    validate(payload, "error.json")


def test_usage_errors():
    code, _, err = run_cli(["bogus"])
    assert code == 2
    assert json.loads(err)["error"] == "usage"
    code, _, err = run_cli(["hall", "--gens", "2", "--step", "2", "--frobnicate"])
    assert code == 2
    code, _, err = run_cli(["hall", "--gens", "2"])
    assert code == 2


def test_out_file_mirrors_stdout(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(["synth-sum", "--step", "2", "--out", str(target)])
    assert code == 0
    assert target.read_text() == out


def test_unwritable_out_file_is_a_json_error(tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(["bch", "--step", "2", "--out", str(target)])
    assert code == 2
    # the result still reaches stdout; the error is one JSON line on stderr
    assert out == '{"x1":"1","x2":"1","[x1,x2]":"1/2"}\n'
    message = f"cannot write --out: [Errno 2] No such file or directory: '{target}'"
    assert err == json.dumps({"error": "usage", "message": message}, separators=(",", ":")) + "\n"
    assert not target.parent.exists()


def test_text_format():
    code, out, _ = run_cli(["synth-sum", "--step", "2", "--format", "text"])
    assert code == 0
    assert "word = a^2 b^2 c(b, a)^2" in out
    code, out, _ = run_cli(["hall", "--gens", "2", "--step", "2", "--format", "text"])
    assert out == "x1\nx2\n[x1,x2]\n"


def test_subprocess_byte_determinism_quick():
    # two fresh interpreter runs must agree byte for byte
    args = ["verify-identities", "--step", "2", "--trials", "5"]
    first = run_subprocess(args)
    second = run_subprocess(args)
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_console_entry_point_runs():
    # run the [project.scripts] target as an installed console script would,
    # so the entry point is checked from the source tree without an install
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    target = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]["nilbch"]
    module, func = target.split(":")
    launcher = f"import sys; from {module} import {func}; sys.exit({func}())"
    argv = ["synth-sum", "--step", "1"]
    out = run_python(["-c", launcher, *argv])
    assert out.returncode == 0, out.stderr.decode()
    assert json.loads(out.stdout)["m"] == 1
    assert out.stdout == run_python(["-m", "nilbch", *argv]).stdout


def test_import_leaves_out_dataclasses_and_inspect():
    # dataclasses imports inspect, and with it ast, dis and tokenize: about
    # 1 MB and 15-30 ms on every start of the CLI
    probe = "import sys, nilbch, nilbch.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = run_python(["-c", probe], text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"
    # `import nilbch` binds its public names lazily, so it loads only `bch`
    # and the `algebra` chain under it
    assert loaded_modules(["-c", "import nilbch"]) == IMPORT_CHAIN


# what `import nilbch` loads: `bch`, bound at import, and what it imports
IMPORT_CHAIN = {f"nilbch{m}" for m in ("", ".bch", ".algebra", ".series", ".errors", ".linalg", ".record")}

# modules a README command must not load: without bytecode caches each
# module a command imports is compiled on every start
LEFT_OUT = {
    "hall": {"growth", "matrices", "identities", "group", "words", "verify"},
    "bch": {"growth", "matrices", "identities", "group", "words", "verify"},
    "synth-sum": {"growth", "matrices", "verify"},
    "synth-power": {"growth", "matrices", "verify"},
    "extract-bracket": {"growth", "matrices", "verify"},
    "verify-identities": set(),
    "growth": set(),
}


def loaded_modules(args, stdin: str = "") -> set:
    """The nilbch modules a fresh `python ARGS` imports, read from the
    interpreter's own import log (-X importtime)."""
    proc = run_python(["-X", "importtime", *args], input=stdin, text=True)
    assert proc.returncode == 0, proc.stderr
    names = (
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    )
    return {n for n in names if n == "nilbch" or n.startswith("nilbch.")}


def test_help_loads_only_the_cli_beyond_the_import():
    assert loaded_modules(["-m", "nilbch", "--help"]) == IMPORT_CHAIN | {"nilbch.cli"}


@pytest.mark.parametrize("name, argv, stdin", readme_commands())
def test_readme_command_loads_only_the_modules_it_runs(name, argv, stdin):
    loaded = loaded_modules(["-m", "nilbch", *argv], stdin)
    assert IMPORT_CHAIN | {"nilbch.cli"} <= loaded
    assert loaded.isdisjoint(f"nilbch.{m}" for m in LEFT_OUT[argv[0]]), sorted(loaded)


def test_hall_refuses_past_the_cap_before_it_enumerates():
    # 5,345,276 basis elements by Witt's formula, refused before any is built
    t0 = time.perf_counter()
    proc = run_python(["-m", "nilbch", "hall", "--gens", "7", "--step", "9"], text=True, timeout=10)
    assert time.perf_counter() - t0 < 1.0
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == (
        '{"error":"size-cap","message":"size cap exceeded while building hall basis: '
        '5345276 > cap 2000000","what":"hall basis","size":5345276,"cap":2000000}\n'
    )
    # a count past 4300 digits, which str() and json.dumps refuse, is
    # printed as its digit count
    code, out, err = run_cli(["hall", "--gens", "10", "--step", "4400"])
    assert (code, out) == (3, "")
    assert err == (
        '{"error":"size-cap","message":"size cap exceeded while building hall basis: '
        'a 4397-digit number > cap 2000000","what":"hall basis",'
        '"size":"a 4397-digit number","cap":2000000}\n'
    )
    code, out, err = run_cli(["hall", "--gens", "2", "--step", "3", "--cap", "4"])
    assert (code, out) == (3, "")
    assert json.loads(err)["size"] == 5
    code, out, _ = run_cli(["hall", "--gens", "2", "--step", "3", "--cap", "5"])
    assert code == 0 and json.loads(out)["count"] == 5


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-identities", "--step", "3", "--trials", "1"],
        ["synth-sum", "--step", "3"],
        ["synth-power", "--step", "3", "--gens", "2", "--level", "2", "--T", "12"],
    ],
)
def test_synthesis_commands_refuse_past_the_cap(argv):
    # the two-letter step-3 law table has 12 patterns against a Hall
    # dimension of 5 (synth-power composes in its own --gens)
    code, out, err = run_cli([*argv, "--cap", "1"])
    assert (code, out) == (3, "")
    assert err == (
        '{"error":"size-cap","message":"size cap exceeded while building bch law table: '
        '12 > cap 1","what":"bch law table","size":12,"cap":1}\n'
    )
    code, _, _ = run_cli([*argv, "--cap", "12"])
    assert code == 0


def test_bch_and_extract_bracket_refuse_past_the_cap_before_any_work():
    # the law table of step 40 has 2^41 - 4 patterns, refused before any is built
    t0 = time.perf_counter()
    proc = run_python(["-m", "nilbch", "bch", "--step", "40"], text=True, timeout=10)
    assert time.perf_counter() - t0 < 1.0
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == (
        '{"error":"size-cap","message":"size cap exceeded while building bch law table: '
        '2199023255548 > cap 2000000","what":"bch law table","size":2199023255548,"cap":2000000}\n'
    )
    # 2^100001 - 4 patterns: past 4300 digits a size is printed as its digit
    # count, and the two-letter check skips Witt's sum over every degree
    t0 = time.perf_counter()
    proc = run_python(["-m", "nilbch", "bch", "--step", "100000"], text=True, timeout=10)
    assert time.perf_counter() - t0 < 1.0
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == (
        '{"error":"size-cap","message":"size cap exceeded while building bch law table: '
        'a 30104-digit number > cap 2000000","what":"bch law table",'
        '"size":"a 30104-digit number","cap":2000000}\n'
    )
    # step 6: 124 law-table patterns against a Hall dimension of 23
    logs = json.dumps([{"x1": "1"}, {"x2": "1"}])
    for argv in (["bch", "--step", "6"], ["extract-bracket", "--step", "6"]):
        t0 = time.perf_counter()
        proc = run_python(["-m", "nilbch", *argv, "--cap", "123"], input=logs, text=True, timeout=10)
        assert time.perf_counter() - t0 < 1.0
        assert (proc.returncode, proc.stdout) == (3, "")
        assert json.loads(proc.stderr)["size"] == 124
    assert_golden_stdout("bch_s6.json", ["bch", "--step", "6", "--cap", "124"])
    code, out, _ = run_cli(["extract-bracket", "--step", "6", "--cap", "124"], stdin_text=logs)
    assert (code, out) == (0, '{"[x1,x2]":"1"}\n')
    # at three generators the Hall dimension is the larger count: 3 + 3 + 8
    code, out, err = run_cli(["extract-bracket", "--step", "3", "--gens", "3", "--cap", "13"], stdin_text=logs)
    assert (code, out, json.loads(err)["size"]) == (3, "", 14)
    code, out, _ = run_cli(["extract-bracket", "--step", "3", "--gens", "3", "--cap", "14"], stdin_text=logs)
    assert (code, out) == (0, '{"[x1,x2]":"1"}\n')
