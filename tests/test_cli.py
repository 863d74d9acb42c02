import argparse
import ast
import json
import math
import re
import resource
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings, strategies as st

import superspan
from superspan import cli, detect
from superspan.cli import main
from superspan.field import MAX_FIELD_DEGREE


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_detect_basic(capsys):
    code, out, _ = run_cli(capsys, "detect", "--point", "[1,2,-3]",
                           "--d", "2", "--r", "2", "--max-iter", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["tuples"] == [[0, 1, 2]]
    assert len(doc["subspaces"]) == 1
    assert doc["subspaces"][0]["preimage"] == [[0, 1, 2]]
    assert doc["subspaces"][0]["intersection_count"] == 3
    assert doc["diagnostics"]["filtered"] + doc["diagnostics"]["exact_checked"] == \
        doc["diagnostics"]["tuples_total"]


def test_detect_generic_empty(capsys):
    code, out, _ = run_cli(capsys, "detect", "--point", "[1,2,3]",
                           "--d", "2", "--r", "2", "--max-iter", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["subspaces"] == []


def test_detect_r0_rejected(capsys):
    code, _, err = run_cli(capsys, "detect", "--point", "[1,2,3]",
                           "--d", "2", "--r", "0", "--max-iter", "3")
    assert code == 2
    assert "r = 0" in err


def test_detect_malformed_point(capsys):
    code, _, err = run_cli(capsys, "detect", "--point", "[1,2,",
                           "--d", "2", "--r", "2", "--max-iter", "3")
    assert code == 2
    assert err


# a run whose exact work exceeds the exponent budget 4096 = 2^12: every
# fourth iterate of [1, zeta_5, 2, 3] lies on the hyperplane x1 = zeta x0,
# so its count needs iterate 16 exactly, as do the tuples past iterate 12
# that the filter cannot certify
BUDGET_RUN = ["detect", "--field", "cyclotomic:5", "--point", '[["1"],["0","1"],["2"],["3"]]',
              "--d", "2", "--r", "3", "--max-iter", "16"]


def test_detect_budget_partial(capsys):
    code, out, _ = run_cli(capsys, *BUDGET_RUN, "--budget", "4096")
    assert code == 3
    doc = json.loads(out)
    assert doc["diagnostics"]["skipped"]


def test_detect_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("SUPERSPAN_BUDGET", "4096")
    code, out, _ = run_cli(capsys, *BUDGET_RUN)
    assert code == 3
    monkeypatch.setenv("SUPERSPAN_BUDGET", "100")
    code, _, err = run_cli(capsys, "detect", "--point", "[1,2,-3]",
                           "--d", "2", "--r", "2", "--max-iter", "3")
    assert code == 2  # below the minimum budget


def test_detect_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "detect", "--point", "[1,2,-3]",
                         "--d", "2", "--r", "2", "--max-iter", "4")
    _, out2, _ = run_cli(capsys, "detect", "--point", "[1,2,-3]",
                         "--d", "2", "--r", "2", "--max-iter", "4")
    assert out1 == out2


def test_detect_csv(capsys):
    code, out, _ = run_cli(capsys, "detect", "--point", "[1,2,-3]",
                           "--d", "2", "--r", "2", "--max-iter", "3",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "subspace,dim_projective,basis,preimage,intersection_count"
    assert len(lines) == 2
    assert lines[1].startswith("0,1,")


def test_detect_outfile(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "detect", "--point", "[1,2,-3]",
                           "--d", "2", "--r", "2", "--max-iter", "3",
                           "--out", str(out_path))
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert doc["tuples"] == [[0, 1, 2]]


def test_point_file_round_trip(tmp_path, capsys):
    doc = {"field": {"kind": "rational"},
           "coords": [["1"], ["2"], ["-3"]]}
    path = tmp_path / "point.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "detect", "--point-file", str(path),
                           "--d", "2", "--r", "2", "--max-iter", "3")
    assert code == 0
    assert json.loads(out)["tuples"] == [[0, 1, 2]]


def test_point_file_array_reads_field(tmp_path, capsys):
    # a bare coordinate array in a file is read in --field, as with --point
    coords = '[["1"],["0","1"],["0","0","1"]]'
    path = tmp_path / "point.json"
    path.write_text(coords)
    code, from_file, err = run_cli(capsys, "relations", "--field", "cyclotomic:5",
                                   "--point-file", str(path))
    assert code == 0, err
    code, inline, _ = run_cli(capsys, "relations", "--field", "cyclotomic:5",
                              "--point", coords)
    assert code == 0
    assert from_file == inline


@pytest.mark.parametrize("field_args, coords", [
    ((), "[1,0]"),
    (("--field", "cyclotomic:5"), '[["1"],["0"]]'),
])
def test_relations_zero_coordinate(capsys, field_args, coords):
    # a zero coordinate is reported as such for every field, before a
    # cyclotomic coordinate is split into q * zeta^a
    code, out, err = run_cli(capsys, "relations", *field_args, "--point", coords)
    assert code == 2 and out == ""
    assert "relation lattice needs nonzero coordinates" in err


def test_point_file_unknown_field_kind(tmp_path, capsys):
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"field": {"kind": "cyclotomc", "ell": 5},
                                "coords": [["1"], ["2"], ["3"]]}))
    code, _, err = run_cli(capsys, "relations", "--point-file", str(path))
    assert code == 2
    assert "unknown field kind 'cyclotomc'" in err


def test_boolean_coordinate_is_not_a_number(capsys):
    # true is an int to Python; read as 1 it would answer for [1,2,-3]
    code, out, err = run_cli(capsys, "relations", "--point", "[true,2,-3]")
    assert code == 2 and out == ""
    assert "expected a rational number, got true" in err


def test_boolean_in_min_poly_is_not_a_number(tmp_path, capsys):
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"field": {"kind": "number_field", "min_poly": [True, 0, 1]},
                                "coords": [["1"], ["0", "1"]]}))
    code, out, err = run_cli(capsys, "relations", "--point-file", str(path))
    assert code == 2 and out == ""
    assert "expected a rational number, got true" in err


@pytest.mark.parametrize("ell", [5.7, "5", True])
def test_point_file_cyclotomic_order_is_a_json_integer(tmp_path, capsys, ell):
    # int() read 5.7 and "5" as 5, and true as 1
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"field": {"kind": "cyclotomic", "ell": ell},
                                "coords": [["1"], ["0", "1"]]}))
    code, out, err = run_cli(capsys, "relations", "--point-file", str(path))
    assert code == 2 and out == ""
    assert "cyclotomic order must be a JSON integer" in err


@pytest.mark.parametrize("command", [
    ("relations",),
    ("detect", "--d", "2", "--r", "1", "--max-iter", "3"),
], ids=["relations", "detect"])
@pytest.mark.parametrize("point, message", [
    ('"123"', "the coordinates must be a JSON array"),  # was read as [1, 2, 3]
    ("5", "the coordinates must be a JSON array"),      # was an uncaught TypeError
    ('{"field": {"kind": "rational"}, "coords": "123"}', "the coordinates must be a JSON array"),
    ('{"field": {"kind": "number_field", "min_poly": 5}, "coords": [1, 2]}',
     "min_poly must be a JSON array"),
    ('["1/0", 2]', "has a zero denominator"),            # was an uncaught ZeroDivisionError
], ids=["string", "number", "document string", "min_poly number", "zero denominator"])
def test_point_that_is_not_a_point(capsys, command, point, message):
    code, out, err = run_cli(capsys, command[0], "--point", point, *command[1:])
    assert code == 2 and out == ""
    assert message in err


def json_values(ints):
    scalars = st.none() | st.booleans() | ints | st.floats() | st.text(max_size=6)
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=4)
                        | st.dictionaries(st.text(max_size=6), inner, max_size=3),
                        max_leaves=10)


ANY_JSON = json_values(st.integers())
# coordinate arrays that are often valid, and anything else
COORDS = st.lists(st.integers() | st.floats() | st.lists(st.integers(-9, 9), max_size=4),
                  min_size=1, max_size=5) | ANY_JSON
FIELDS = ANY_JSON | st.fixed_dictionaries(
    {"kind": st.sampled_from(["rational", "cyclotomic", "number_field"]) | ANY_JSON},
    optional={"ell": st.sampled_from([5, 7]) | st.integers() | ANY_JSON,
              "min_poly": st.lists(st.integers(-3, 3), max_size=3).map(lambda c: c + [1])
              | ANY_JSON})
CLI_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def run_relations(*argv):
    """Run `relations`: it must exit 0 or 2, and anything raised fails."""
    with tempfile.TemporaryDirectory() as tmp:
        code = main(["relations", *argv, "--out", str(Path(tmp) / "out.json")])
    assert code in (0, 2)
    event(f"exit {code}")


@CLI_PROPERTY
@given(COORDS)
@example([1, 2, -3])
@example("123")
@example(5)
@example(["1/0"])
@example({"field": {"kind": "cyclotomic", "ell": 5}, "coords": [["1"], ["0", "1"]]})
def test_any_json_point_exits_0_or_2(point):
    run_relations("--point", json.dumps(point))


@CLI_PROPERTY
@given(FIELDS, COORDS)
@example({"kind": "cyclotomic", "ell": 5}, [["1"], ["0", "1"]])
@example({"kind": "cyclotomic", "ell": 5.7}, [1, 2])
@example({"kind": "number_field", "min_poly": 5}, [1, 2])
@example({"kind": "number_field", "min_poly": [0, 0, 1]}, [["1"], ["0", "1"]])
@example({"kind": "cyclotomic", "ell": 10007}, [1, 2])
@example({"kind": "cyclotomic", "ell": 257}, [1, 2])
@example({"kind": "number_field", "min_poly": [1] * 300}, [1, 2])
def test_any_json_point_file_exits_0_or_2(field_doc, coords):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "point.json"
        path.write_text(json.dumps({"field": field_doc, "coords": coords}))
        run_relations("--point-file", str(path))


@pytest.mark.parametrize("argv", [
    ["relations", "--point", "[1,2,3,6]", "--budget", "4096"],
    ["relations", "--point", "[1,2,3,6]", "--format", "json"],
    ["verify", "sextic", "--format", "json"],
    ["analyze", "--point", "[1,2,-3]", "--d", "2", "--m", "0,1,2", "--format", "csv"],
    ["detect", "--point", "[1,2,-3]", "--point-file", "point.json",
     "--d", "2", "--r", "2", "--max-iter", "3"],
])
def test_options_a_command_does_not_take(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "point.json").write_text("[1,2,-3]")  # a readable point file
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    (["verify", "sextic", "--budget", "5", "--point", "[1,2", "--field", "bogus"], "budget"),
    (["verify", "lemmas", "--bound", "3", "--budget", "5", "--point", "[1,2"], "budget"),
    (["verify", "lemmas", "--bound", "3", "--point", "[1,2"], "delimiter"),
    (["verify", "sextic", "--field", "bogus"], "bogus"),
])
def test_verify_validates_flags_the_target_does_not_read(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_detect_negative_prime_count_rejected(capsys):
    code, out, err = run_cli(capsys, "detect", "--point", "[1,2,-3]", "--d", "2", "--r", "2",
                             "--max-iter", "8", "--primes", "-1")
    assert code == 2
    assert out == ""
    assert "negative" in err


def test_detect_prime_count_is_capped():
    # past the about 2.7e7 primes the stream holds it never yields again,
    # so a huge count would run until killed
    start = time.monotonic()
    proc = _run_limited(["detect", "--point", "[1,2,-3]", "--d", "2", "--r", "2",
                         "--max-iter", "5", "--primes", str(detect.MAX_FILTER_PRIME_COUNT + 1)])
    assert time.monotonic() - start < 1
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"exceeds the cap {detect.MAX_FILTER_PRIME_COUNT}" in proc.stderr


def readme_block(heading, language):
    """The first fenced block of the language under the README heading."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return text.split(heading, 1)[1].split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_tour_results_are_the_commented_ones():
    # each line "expr  # literal" of the library tour evaluates to the literal
    namespace, checked = {}, 0
    block = readme_block("## Library tour", "python")
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if not isinstance(node, ast.Expr):
            exec(source, namespace)
            continue
        comment = block.splitlines()[node.lineno - 1].partition("#")[2]
        value = eval(source, namespace)
        try:
            expected = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue
        assert value == expected, source
        checked += 1
    assert checked == 3


def test_readme_max_iter_100_comment_holds(capsys):
    block = readme_block("## Command line", "sh")
    comment, command = re.search(r"((?:# .*\n)+)(superspan detect .*--max-iter 100)\n",
                                 block).groups()
    comment = " ".join(line[2:] for line in comment.splitlines())
    numbers = re.search(r"rules out ([\d ]+) of the ([\d ]+) triples, and the line "
                        r"holds (\d+) of the (\d+) iterates", comment).groups()
    filtered, total, hits, iterates = (int(x.replace(" ", "")) for x in numbers)
    code, out, err = run_cli(capsys, *shlex.split(command)[1:])
    assert code == 0, err
    doc = json.loads(out)
    assert (filtered, total, hits, iterates) == (166649, 166650, 3, 101)
    assert doc["diagnostics"]["filtered"] == filtered
    assert doc["diagnostics"]["tuples_total"] == total
    assert [rec["intersection_count"] for rec in doc["subspaces"]] == [hits]
    assert iterates == doc["input"]["max_iter"] + 1


def test_readme_commands_run(capsys):
    # every superspan line of the sh block under "## Command line", with
    # continuation lines joined, so a removed flag cannot linger there
    block = readme_block("## Command line", "sh")
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("superspan ")]
    assert len(commands) == 11
    for argv in commands:
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)


def test_relations_examples(capsys):
    code, out, _ = run_cli(capsys, "relations", "--point", "[1,2,3,6]")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 1
    assert doc["basis"] == [[1, -1, -1, 1]]

    code, out, _ = run_cli(capsys, "relations", "--point", "[1,2,3,5]")
    assert code == 0
    assert json.loads(out)["rank"] == 0

    code, _, err = run_cli(capsys, "relations", "--point", "[1,0,2]")
    assert code == 2


def test_verify_sextic(capsys):
    code, out, _ = run_cli(capsys, "verify", "sextic")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["checks"]) == 4
    assert all(c["pass"] for c in doc["checks"])


def test_verify_cyclotomic(capsys):
    code, out, _ = run_cli(capsys, "verify", "cyclotomic", "--d", "2",
                           "--ell", "5", "--tail", "2,3", "--max-iter", "20")
    assert code == 0
    doc = json.loads(out)
    assert all(c["pass"] for c in doc["checks"])


def _limit_memory():
    # a verifier that ignores the budget grows one integer without bound;
    # fail with MemoryError instead of exhausting the machine
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _run_limited(argv, **env):
    """The CLI run in a subprocess, with a 30 s timeout and 1 GiB of
    address space."""
    env["PYTHONPATH"] = str(Path(superspan.__file__).resolve().parents[1])
    code = f"import sys; from superspan.cli import main; sys.exit(main({argv!r}))"
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=30, preexec_fn=_limit_memory)


@pytest.mark.parametrize("argv", [
    ["detect", "--field", "cyclotomic:10007", "--point", "[1,2,3]",
     "--d", "2", "--r", "2", "--max-iter", "4"],
    ["detect", "--point-file", "point.json", "--d", "2", "--r", "2", "--max-iter", "4"],
    ["relations", "--field", "numberfield:" + ",".join(["1"] * 300), "--point", "[1,2]"],
    ["verify", "cyclotomic", "--ell", "10007"],
], ids=["cyclotomic:10007", "point file ell 10007", "300 coefficients", "verify --ell 10007"])
def test_field_degree_is_capped(tmp_path, argv):
    # building a field of degree 10006 would take minutes and gigabytes
    point_file = tmp_path / "point.json"
    point_file.write_text('{"field": {"kind": "cyclotomic", "ell": 10007}, "coords": [1, 2, 3]}')
    argv = [str(point_file) if a == "point.json" else a for a in argv]
    start = time.monotonic()
    proc = _run_limited(argv)
    assert time.monotonic() - start < 1
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"exceeds the cap {MAX_FIELD_DEGREE}" in proc.stderr


@pytest.mark.parametrize("how", ["flag", "environment"])
def test_verify_cyclotomic_honours_budget(how):
    # 3^23 is below the default exponent budget, so without the budget
    # this family builds 2^(3^23), an integer of about 11 GB
    argv = ["verify", "cyclotomic", "--ell", "7", "--d", "3", "--tail", "2,5",
            "--max-iter", "10"]
    env = {}
    if how == "flag":
        argv += ["--budget", "4096"]
    else:
        env["SUPERSPAN_BUDGET"] = "4096"
    out = _run_limited(argv, **env)
    assert out.returncode == 3, out.stderr
    assert "exceeds the exponent budget" in out.stderr


def test_verify_cyclotomic_reads_only_the_hyperplane_coordinates():
    # whether iterate m lies on x1 = zeta^i x0 never depends on the tail:
    # 2^(2^40) and 3^(2^40), which the pattern check once built, are never
    # computed, while zeta^(2^40) is cheap.  The super-spanning iterates
    # reach 3^23 and 2^43 in the other families, and their tails are read
    # modulo primes only
    for argv in (["--ell", "5", "--d", "2", "--tail", "2,3", "--max-iter", "40"],
                 ["--ell", "7", "--d", "3", "--tail", "2,5", "--max-iter", "6"],
                 ["--ell", "11", "--d", "2", "--tail", "2,3", "--max-iter", "12"],
                 ["--ell", "5", "--d", "2", "--tail", "2,3,7", "--max-iter", "20"]):
        out = _run_limited(["verify", "cyclotomic", *argv])
        assert out.returncode == 0, (argv, out.stderr)
        checks = json.loads(out.stdout)["checks"]
        assert [c["name"] for c in checks] == ["membership_pattern", "superspanned_hyperplanes"]
        assert all(c["pass"] is True for c in checks)


def test_verify_cyclotomic_meets_the_budget_before_memory_runs_out():
    # iterate 15 of d = 7 is past the default budget: membership reads its
    # exponent before any tail entry is raised to 7^11
    out = _run_limited(["verify", "cyclotomic", "--ell", "5", "--d", "7", "--tail", "2,3",
                        "--max-iter", "5"])
    assert out.returncode == 3, out.stderr
    assert out.stdout == ""
    assert "exceeds the exponent budget" in out.stderr


@pytest.mark.parametrize("argv, detail", [
    (["--ell", "7", "--d", "3", "--tail", "2,2", "--max-iter", "3"],
     "H_6: iterates [3, 9, 15, 21] do not super-span"),
    (["--ell", "5", "--d", "2", "--tail", "2,2", "--max-iter", "8"],
     "H_4: iterates [2, 6, 10, 14] do not super-span"),
    (["--ell", "5", "--d", "2", "--tail", "1"], "H_4: iterates [2, 6, 10] do not super-span"),
    # (-2)^(2^m) = 2^(2^m) for m >= 1, and only iterate 0 differs
    (["--ell", "11", "--d", "2", "--tail", "2,-2", "--max-iter", "12"],
     "H_10: iterates [5, 15, 25, 35] do not super-span"),
    (["--ell", "5", "--d", "2", "--tail", "-1"], "H_4: iterates [2, 6, 10] do not super-span"),
], ids=["ell 7 tail 2,2", "ell 5 tail 2,2", "ell 5 tail 1", "ell 11 tail 2,-2", "ell 5 tail -1"])
def test_verify_cyclotomic_equal_coordinates_fail_without_iterates(argv, detail):
    # equal coordinates stay equal in every iterate, so no hyperplane is
    # super-spanned; the rows of --ell 7, which reach 2^(3^21), are never built
    start = time.monotonic()
    out = _run_limited(["verify", "cyclotomic", *argv])
    assert time.monotonic() - start < 10
    assert out.returncode == 1, out.stderr
    checks = json.loads(out.stdout)["checks"]
    assert checks[0]["pass"] is True
    assert checks[1] == {"detail": detail, "name": "superspanned_hyperplanes", "pass": False}


def test_detect_torsion_point_past_m_20():
    # [1, zeta_5, 2]: every tuple whose indices agree mod 4 is confirmed
    # exactly, on entries of up to 2^24 bits
    argv = ["detect", "--field", "cyclotomic:5", "--point", '[["1"],["0","1"],["2"]]',
            "--d", "2", "--r", "2", "--max-iter", "24"]
    out = _run_limited(argv)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["tuples"]


def test_verify_cyclotomic_zero_denominator_in_tail(capsys):
    code, out, err = run_cli(capsys, "verify", "cyclotomic", "--tail", "1/0")
    assert code == 2 and out == ""
    assert "zero denominator" in err


def test_verify_lemmas(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemmas", "--d", "2", "--bound", "10")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["results"]) == 1
    assert doc["results"][0]["counterexamples"] == []


def test_verify_quadric(capsys):
    code, out, _ = run_cli(capsys, "verify", "quadric", "--point", "[1,6,2,3]",
                           "--d", "2", "--bound", "4")
    assert code == 0
    assert json.loads(out)["counterexamples"] == []


def test_verify_quadric_golden_report(capsys):
    # written by the probe that compared every tuple pair
    code, out, _ = run_cli(capsys, "verify", "quadric", "--point", "[1,6,2,3]",
                           "--d", "2", "--bound", "6")
    assert code == 0
    golden = Path(__file__).with_name("golden") / "verify_quadric_1_6_2_3_d2_bound6.json"
    assert out == golden.read_text()


def test_verify_quadric_default_bound(capsys):
    # 715 tuples: 715 * 714 ordered pairs, each against 576 permutation pairs
    code, out, _ = run_cli(capsys, "verify", "quadric", "--point", "[1,6,2,3]", "--d", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["checked"] == 294053760
    assert doc["counterexamples"] == []


@pytest.mark.parametrize("d", [1, 0, -2])
def test_verify_quadric_rejects_non_power_map_degree(capsys, d):
    code, out, err = run_cli(capsys, "verify", "quadric", "--point", "[1,6,2,3]",
                             "--d", str(d), "--bound", "4")
    assert code == 2 and out == ""
    assert "power map degree must be >= 2" in err


@pytest.mark.parametrize("argv, message", [
    (["quadric", "--point", "[1,6,2,3]", "--bound", "-1"], "must be at least 4"),
    (["quadric", "--point", "[1,6,2,3]", "--bound", "3"], "must be at least 4"),
    (["quadric", "--point", "[1,6,2,3]", "--d", "3", "--bound", "3"], "must be at least 4"),
    (["lemmas", "--bound", "-3"], "must be >= 0"),
    (["lemmas", "--d", "2", "--bound", "-3"], "must be >= 0"),
    (["cyclotomic", "--ell", "5", "--max-iter", "-1"], "must be >= 0"),
])
def test_verify_rejects_a_bound_that_leaves_nothing_to_check(capsys, argv, message):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert message in err


def test_verify_quadric_bound_is_capped(capsys):
    # 13 is one past the cap, which is also the default bound
    code, out, err = run_cli(capsys, "verify", "quadric", "--point", "[1,6,2,3]",
                             "--bound", "13")
    assert code == 2 and out == ""
    assert "capped at 12" in err


@pytest.mark.parametrize("argv", [["lemmas", "--bound", "0"],
                                  ["lemmas", "--d", "3", "--bound", "0"]])
def test_verify_lemmas_smallest_bound(capsys, argv):
    code, out, _ = run_cli(capsys, "verify", *argv)
    assert code == 0
    assert all(res["checked"] == 1 for res in json.loads(out)["results"])


def test_detect_max_iter_below_r_reports_the_library_error(capsys):
    code, out, err = run_cli(capsys, "detect", "--point", "[1,2,-3]", "--d", "2", "--r", "2",
                             "--max-iter", "1")
    assert code == 2 and out == ""
    assert "cannot host an (r+1)-tuple" in err


def test_analyze_degenerate_tuple(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--point", "[1,2,-3]",
                           "--d", "2", "--m", "0,1,2")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["terms"]) == 6
    assert doc["finest_partition"]["blocks"]
    assert doc["non_unique"] is False
    assert doc["exceptional_for"] == []
    assert doc["deleted_row_ranks"] == [2, 2, 2]


def test_analyze_full_rank_diagnostic(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--point", "[1,2,3]",
                           "--d", "2", "--m", "0,1,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["diagnostic"] == "NonVanishingTotal"


def test_analyze_bullet_mode_r4(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--point", "[1,2,3,5,7]",
                           "--d", "2", "--m", "0,1,2,3,4", "--mode", "bullet")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["terms"]) == 120
    assert set(doc["bullet_analysis"]) == {"0", "1", "2", "3", "4"}
    assert "finest_partition" not in doc


@pytest.mark.parametrize("argv, powers", [
    (["--point", "[1,2,-3]", "--d", "2", "--m", "0,1,2"], 9),
    (["--point", "[1,2,3,5,7]", "--d", "2", "--m", "0,1,2,3,4", "--mode", "bullet"], 25),
])
def test_analyze_builds_each_power_once(capsys, monkeypatch, argv, powers):
    # one power per (coordinate, iterate index): the term vector and the
    # deleted-row ranks read the same exact orbit
    calls = []
    power = superspan.field.FieldValue.__pow__

    def counting_pow(self, e):
        calls.append(e)
        return power(self, e)

    monkeypatch.setattr(superspan.field.FieldValue, "__pow__", counting_pow)
    code, _, err = run_cli(capsys, "analyze", *argv)
    assert code == 0, err
    assert len(calls) == powers


def test_analyze_budget_exhaustion_writes_nothing(capsys):
    code, out, err = run_cli(capsys, "analyze", "--point", "[1,2,-3]",
                             "--d", "2", "--m", "0,1,50")
    assert code == 3 and out == ""
    assert "exponent budget" in err


def test_analyze_refuses_more_than_the_term_cap(capsys):
    # 9! = 362880 terms: refused before any term is expanded
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", "--point", "[2,3,5,7,11,13,17,19,23]",
                             "--d", "2", "--m", "0,1,2,3,4,5,6,7,8", "--mode", "bullet")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "362880 terms" in err and "capped at 40320" in err


def test_analyze_term_cap_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(superspan.cli, "MAX_ANALYZE_TERMS", 24)
    code, out, _ = run_cli(capsys, "analyze", "--point", "[1,2,3,5]",
                           "--d", "2", "--m", "0,1,2,3")
    assert code == 0 and len(json.loads(out)["terms"]) == 24
    # the refusal is an input error even in finest mode, not a diagnostic
    code, out, err = run_cli(capsys, "analyze", "--point", "[1,2,3,5,7]",
                             "--d", "2", "--m", "0,1,2,3,4")
    assert code == 2 and out == ""
    assert "120 terms" in err and "capped at 24" in err


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 2


def test_detect_golden_report(capsys):
    """The full detect document, diagnostics included, is pinned byte for
    byte; a change of filter kernel must not move it for rational points."""
    golden = Path(__file__).with_name("golden") / "detect_1_2_-3_r2_M8.json"
    code, out, _ = run_cli(capsys, "detect", "--point", "[1,2,-3]",
                           "--d", "2", "--r", "2", "--max-iter", "8")
    assert code == 0
    assert out == golden.read_text()


def test_detect_golden_sextic_report(capsys):
    """The sextic's two lines, with algebraic bases and intersection
    counts, are pinned byte for byte."""
    golden = Path(__file__).with_name("golden") / "detect_sextic_r2_M6.json"
    code, out, _ = run_cli(capsys, "detect", "--field", "numberfield:1,3,5/2,0,5/2,3,1",
                           "--point", '[["0","1"],["-1","-1"],["1"]]',
                           "--d", "2", "--r", "2", "--max-iter", "6")
    assert code == 0
    assert out == golden.read_text()


def test_detect_golden_cyclotomic_seed_report(capsys):
    """The filter primes drawn for Q(zeta_7) at seed 1 are pinned, so a
    change in how the root of Phi_7 mod p is found cannot move them."""
    golden = Path(__file__).with_name("golden") / "detect_1_z7_2_r2_M10_seed1.json"
    code, out, _ = run_cli(capsys, "detect", "--field", "cyclotomic:7",
                           "--point", '[["1"],["0","1"],["2"]]',
                           "--d", "3", "--r", "2", "--max-iter", "10", "--seed", "1")
    assert code == 0
    assert out == golden.read_text()


def test_detect_golden_budget_report(capsys):
    """A budget-limited run exits 3 and lists its skips; a skipped
    subspace carries its basis encoded like the report's bases."""
    golden = Path(__file__).with_name("golden") / "detect_1_z5_2_3_r3_M16_budget4096.json"
    code, out, _ = run_cli(capsys, *BUDGET_RUN, "--budget", "4096")
    assert code == 3
    assert out == golden.read_text()
    doc = json.loads(out)
    skipped = [entry for entry in doc["diagnostics"]["skipped"] if "subspace" in entry]
    assert len(skipped) == 1
    assert [entry["subspace"] for entry in skipped] == \
        [rec["basis"] for rec in doc["subspaces"] if rec["intersection_count"] == -1]


def test_detect_golden_budget_limits_only_exact_work(capsys):
    """Iterates past the budget that the filter primes certify off the
    line need no exact arithmetic, so the budget does not cut the count."""
    golden = Path(__file__).with_name("golden") / "detect_1_2_-3_r2_M14_budget4096.json"
    code, out, _ = run_cli(capsys, "detect", "--point", "[1,2,-3]", "--d", "2", "--r", "2",
                           "--max-iter", "14", "--budget", "4096")
    assert code == 0
    assert out == golden.read_text()
    doc = json.loads(out)
    assert doc["diagnostics"]["skipped"] == []
    assert [rec["intersection_count"] for rec in doc["subspaces"]] == [3]


# roots of unity: every orbit below is preperiodic, and a run works over
# its distinct points, indices below s + t, then expands back to M
Z5_Z5SQ = ["--field", "cyclotomic:5", "--point", '[["1"],["0","1"],["0","0","1"]]', "--d", "2"]
Z5_Z5_Z5SQ = ["--field", "cyclotomic:5", "--point", '[["1"],["0","1"],["0","1"],["0","0","1"]]',
              "--d", "2"]


@pytest.mark.parametrize("golden, argv", [
    # (s, t) = (0, 4): nothing confirmed, so the filter counts are pinned
    ("detect_1_z5_z5sq_r2_M12.json", Z5_Z5SQ + ["--r", "2", "--max-iter", "12"]),
    # a repeated coordinate: 8 tuples expanded from (0, 1, 2, 3), count 7
    ("detect_1_z5_z5_z5sq_r3_M6.json", Z5_Z5_Z5SQ + ["--r", "3", "--max-iter", "6"]),
    # (s, t) = (1, 4): iterate 0 is never met again; finest partitions
    ("detect_1_-1_z5_r2_M7.json",
     ["--field", "cyclotomic:5", "--point", '[["1"],["-1"],["0","1"]]', "--d", "2",
      "--r", "2", "--max-iter", "7"]),
])
def test_detect_golden_preperiodic_report(capsys, golden, argv):
    """Preperiodic reports, written by a run that checked every tuple up
    to M, are pinned byte for byte: diagnostics, expanded preimages,
    weighted counts and the partition analyses of every expanded tuple."""
    code, out, _ = run_cli(capsys, "detect", *argv)
    assert code == 0
    assert out == (Path(__file__).with_name("golden") / golden).read_text()


def test_detect_preperiodic_cost_does_not_grow_with_the_bound(capsys):
    # classes of iterates 0, 1, 2, 3 modulo 4 hold 250001, 250000, 250000
    # and 250000 indices, and the filter certifies every set of three
    M = 10 ** 6
    start = time.monotonic()
    code, out, _ = run_cli(capsys, "detect", *Z5_Z5SQ, "--r", "2", "--max-iter", str(M))
    assert time.monotonic() - start < 1
    assert code == 0
    doc = json.loads(out)
    assert doc["tuples"] == [] and doc["diagnostics"]["skipped"] == []
    filtered = 3 * 250001 * 250000 ** 2 + 250000 ** 3
    assert doc["diagnostics"]["filtered"] == filtered
    assert doc["diagnostics"]["exact_checked"] == math.comb(M + 1, 3) - filtered


@pytest.mark.parametrize("argv", [Z5_Z5SQ + ["--r", "2"], Z5_Z5_Z5SQ + ["--r", "3"]],
                         ids=["1,z5,z5^2", "1,z5,z5,z5^2"])
def test_detect_budget_never_binds_on_a_preperiodic_orbit(capsys, argv):
    # 2^11 and 2^12 exceed the budget 1024, yet iterates 11 and 12 are
    # iterates 3 and 0: the report is the default budget's, with no skip
    code, out, _ = run_cli(capsys, "detect", *argv, "--max-iter", "12", "--budget", "1024")
    assert code == 0
    assert json.loads(out)["diagnostics"]["skipped"] == []
    assert run_cli(capsys, "detect", *argv, "--max-iter", "12") == (0, out, "")


@pytest.mark.parametrize("golden, argv", [
    ("analyze_1_2_-3_m012.json", ["--point", "[1,2,-3]", "--d", "2", "--m", "0,1,2"]),
    ("analyze_1_2_-3_m012_bullet.json",
     ["--point", "[1,2,-3]", "--d", "2", "--m", "0,1,2", "--mode", "bullet"]),
    ("analyze_1_z5_z5sq_m045.json",
     ["--field", "cyclotomic:5", "--point", '[["1"],["0","1"],["0","0","1"]]',
      "--d", "2", "--m", "0,4,5"]),
])
def test_analyze_golden_report(capsys, golden, argv):
    """The analyze document is pinned byte for byte: its terms, the
    finest partition or bullet block sums, and the deleted-row ranks."""
    code, out, _ = run_cli(capsys, "analyze", *argv)
    assert code == 0
    assert out == (Path(__file__).with_name("golden") / golden).read_text()


@pytest.mark.parametrize("point, key", [
    ('{"a": 1}', "field"),
    ('{"field": {"kind": "rational"}}', "coords"),
    ('{"field": {}, "coords": [1, 2, 3]}', "kind"),
    ('{"field": {"kind": "cyclotomic"}, "coords": [1, 2, 3]}', "ell"),
    ('{"field": "rational", "coords": [1, 2, 3]}', "kind"),
])
def test_point_document_missing_key(capsys, point, key):
    code, _, err = run_cli(capsys, "detect", "--point", point,
                           "--d", "2", "--r", "2", "--max-iter", "3")
    assert code == 2
    assert err == f"error: expected a JSON object with the key {key!r}\n"


def test_internal_key_error_propagates(capsys, monkeypatch):
    # a KeyError from inside the package is a bug, not invalid input
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(detect, "enumerate_exceptional", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["detect", "--point", "[1,2,3]", "--d", "2", "--r", "2", "--max-iter", "3"])


def test_out_of_memory_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(detect, "enumerate_exceptional", exhausted)
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "detect", "--point", "[1,2,3]", "--d", "2", "--r", "2",
                             "--max-iter", "3", "--out", str(out_path))
    assert (code, out, err) == (3, "", "error: out of memory\n")
    assert not out_path.exists()


# one parser serves every main call of a process: no call may leak into the next

DETECT_M8 = ["detect", "--point", "[1,2,-3]", "--d", "2", "--r", "2", "--max-iter", "8"]
GOLDEN_M8 = Path(__file__).with_name("golden") / "detect_1_2_-3_r2_M8.json"


def test_options_of_one_call_do_not_carry_over(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, *DETECT_M8, "--format", "csv", "--out", str(out_path))
    assert code == 0 and out == ""
    assert out_path.read_text().startswith("subspace,")
    code, out, _ = run_cli(capsys, *DETECT_M8)
    assert code == 0
    assert out == GOLDEN_M8.read_text()


def test_json_detect_builds_no_csv(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_csv_basis", lambda subspace: pytest.fail("CSV cell built"))
    code, out, _ = run_cli(capsys, *DETECT_M8)
    assert code == 0
    assert out == GOLDEN_M8.read_text()


def test_a_rejected_call_does_not_affect_the_next(capsys):
    code, out, err = run_cli(capsys, "detect", "--point", "[1,2,-3]", "--d", "two")
    assert code == 2 and out == "" and "invalid int value" in err
    code, out, _ = run_cli(capsys, *DETECT_M8)
    assert code == 0
    assert out == GOLDEN_M8.read_text()


def test_detect_then_analyze(capsys):
    assert run_cli(capsys, *DETECT_M8)[0] == 0
    code, out, _ = run_cli(capsys, "analyze", "--point", "[1,2,-3]", "--d", "2", "--m", "0,1,2")
    assert code == 0
    assert out == (Path(__file__).with_name("golden") / "analyze_1_2_-3_m012.json").read_text()


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "superspan":
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    for argv in (DETECT_M8, ["frobnicate"], DETECT_M8,
                 ["analyze", "--point", "[1,2,-3]", "--d", "2", "--m", "0,1,2"]):
        main(argv)
    capsys.readouterr()
    assert len(built) == 1
