import json
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import superspan
from superspan import detect
from superspan.cli import main


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


def test_readme_commands_run(capsys):
    # every superspan line of the sh block under "## Command line", with
    # continuation lines joined, so a removed flag cannot linger there
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("superspan ")]
    assert len(commands) == 9
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
    # computed, while zeta^(2^40) is cheap
    out = _run_limited(["verify", "cyclotomic", "--ell", "5", "--d", "2",
                        "--tail", "2,3", "--max-iter", "40"])
    assert out.returncode == 0, out.stderr
    checks = json.loads(out.stdout)["checks"]
    assert [c["name"] for c in checks] == ["membership_pattern", "superspanned_hyperplanes"]
    assert all(c["pass"] is True for c in checks)


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
])
def test_verify_rejects_a_bound_that_leaves_nothing_to_check(capsys, argv, message):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert message in err


def test_verify_quadric_bound_is_capped(capsys):
    # the work grows about 2.3-fold per step of the bound
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
