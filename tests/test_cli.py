import hashlib
import json

import pytest

from flagforms.cli import main
from flagforms.formlab import griffiths_sample


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_schur_command(capsys):
    code, out, _ = run(capsys, "schur", "--sigma", "1,1", "--rank", "3")
    assert code == 0
    assert "c1^2" in out and "c2" in out


def test_segre_command_json(capsys):
    code, out, _ = run(capsys, "--json", "segre", "--rank", "3", "--max-deg", "2")
    assert code == 0
    data = json.loads(out)
    assert data["segre"]["s1"] == "-c1"


def test_pushforward_command(capsys):
    code, out, _ = run(
        capsys, "pushforward", "--rho", "0,1,4", "--expr", "c1(Q1)^2*c2(Q1)^2"
    )
    assert code == 0
    assert "c1^3" in out and "2*c1*c2" in out
    assert "schur_coordinates" in out


def test_pushforward_bad_expr_is_usage_error(capsys):
    code, _, err = run(capsys, "pushforward", "--rho", "0,1,4", "--expr", "(c1(E) + 1")
    assert code == 2
    assert "error" in err


def test_pushforward_bad_index_is_usage_error(capsys):
    code, _, err = run(capsys, "pushforward", "--rho", "0,2,4", "--expr", "c3(Q2)")
    assert code == 2
    assert "rank" in err


def test_schur_decompose_command(capsys):
    code, out, _ = run(
        capsys,
        "schur-decompose",
        "--rank",
        "4",
        "--expr",
        "c1(E)^3 + 2*c1(E)*c2(E) - c3(E)",
    )
    assert code == 0
    assert "[3], 2" in out.replace("'", "") or "[[3], " in out or "3]" in out


def test_cone_command(capsys):
    code, out, _ = run(
        capsys,
        "cone",
        "--family",
        "fcone-r3-proj,fcone-r3-hyper,fcone-r3-complete",
        "--target",
        "1,0",
        "--grid",
        "16",
    )
    assert code == 0
    assert "inside_sampled_hull: False" in out


def test_cone_unknown_family(capsys):
    code = main(["cone", "--family", "nope"])
    assert code == 2
    assert "unknown families" in capsys.readouterr().err


def test_curvature_command(tmp_path, capsys):
    C = griffiths_sample(2, 3, terms=2, seed=3)
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(C.to_json()))
    code, out, _ = run(
        capsys,
        "curvature",
        "--rho",
        "0,1,3",
        "--spec",
        "1,2",
        "--tensor",
        str(path),
    )
    assert code == 0
    assert "hermitian_defect" in out


def test_examples_paper_command(capsys):
    code, out, _ = run(capsys, "examples-paper")
    assert code == 0
    assert out.count("[PASS]") == 4


def test_verify_identities_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "identities")
    assert code == 0
    assert "[PASS]" in out


def test_json_reports_are_deterministic(capsys):
    code1, out1, _ = run(capsys, "--json", "examples-paper")
    code2, out2, _ = run(capsys, "--json", "examples-paper")
    assert code1 == code2 == 0
    assert out1 == out2


def test_monte_carlo_json_report_is_deterministic(capsys):
    argv = ("--json", "verify", "--suite", "gysin-numeric", "--samples", "20000")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_usage_error_exit_code(capsys):
    assert main(["unknown-subcommand"]) == 2


def test_ci_mode_requires_seed(monkeypatch, capsys):
    monkeypatch.setenv("FLAGFORMS_CI", "1")
    code = main(["verify", "--suite", "positivity"])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_curvature_command_with_point(tmp_path, capsys):
    from flagforms.formlab import griffiths_sample

    C = griffiths_sample(1, 3, terms=2, seed=5)
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(C.to_json()))
    code, out, _ = run(
        capsys,
        "curvature",
        "--rho",
        "0,1,3",
        "--spec",
        "1,2",
        "--tensor",
        str(path),
        "--point",
        "0.3+0.1j,-0.2j",
    )
    assert code == 0
    assert "max_center_formula_deviation" in out


def _tensor_doc(**entry):
    """A one-entry tensor document with n = r = 1, fields overridden."""
    return {"n": 1, "r": 1, "entries": [{"j": 1, "k": 1, "alpha": 1, "beta": 1, "re": 1.0, **entry}]}


@pytest.mark.parametrize(
    "rho, spec, tensor, point, message",
    [
        ("0,1,3", "1,2", 3, "1", "has 2 coordinates, got 1"),
        ("0,1,3", "1,2", 3, "1,2,3", "has 2 coordinates, got 3"),
        ("0,1,4", "0,1", 3, None, "rank 3"),
        ("0,1,3", "1,2", 3, "1e200,1", "not finite"),
        ("0,1,3,4", "1,2", 4, "1e150,1,1,1,1", "tolerance"),
        ("0,1,3", "1,2", 3, "1e5,0", "tolerance"),
        ("0,1,3", "1,2", 3, "1e20,1e20", "tolerance"),
        ("0,1,3", "1", 3, None, "--spec needs 2"),
        ("0,1,3", "1,2,3", 3, None, "--spec needs 2"),
        ("0,1", "0,1", _tensor_doc(j=2), None, "'j' must be an integer in 1..1, got 2"),
        ("0,1", "0,1", _tensor_doc(j=1.5), None, "'j' must be an integer in 1..1, got 1.5"),
        ("0,1", "0,1", _tensor_doc(j=0), None, "'j' must be an integer in 1..1, got 0"),
        ("0,1", "0,1", _tensor_doc(re="1"), None, "'re' must be a finite real number, got '1'"),
        ("0,1", "0,1", [_tensor_doc()], None, "must be a JSON object"),
    ],
    ids=[
        "short-point",
        "long-point",
        "tensor-rank",
        "far-point-nan",
        "far-point-defect",
        "far-point-ill-conditioned",
        "far-point-singular",
        "short-spec",
        "long-spec",
        "tensor-index-out-of-range",
        "tensor-index-not-integer",
        "tensor-index-zero",
        "tensor-value-not-number",
        "tensor-not-object",
    ],
)
@pytest.mark.filterwarnings("error")  # a warning would print a second line
def test_curvature_rejects_bad_point_and_tensor(
    tmp_path, capsys, rho, spec, tensor, point, message
):
    # an int is the rank of a valid tensor, anything else the document itself
    if isinstance(tensor, int):
        tensor = griffiths_sample(2, tensor, terms=2, seed=0).to_json()
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(tensor))
    argv = ["curvature", "--rho", rho, "--spec", spec, "--tensor", str(path)]
    code, out, err = run(capsys, *argv, *(["--point", point] if point else []))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--json", "cone", "--grid", "0", "--family", "fcone-r2", "--target", "1,0"], "--grid"),
        (["verify", "--suite", "gysin-numeric", "--samples", "0"], "--samples"),
        (["schur", "--rank", "0", "--sigma", "1"], "--rank"),
        (["segre", "--rank", "-2", "--max-deg", "2"], "--rank"),
    ],
)
def test_non_positive_counts_are_usage_errors(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be a positive integer, got {argv[argv.index(flag) + 1]}\n"


def test_verify_needs_two_samples(capsys):
    # one sample has no standard error, so no Monte Carlo check can pass
    code, out, err = run(capsys, "--json", "verify", "--suite", "gysin-numeric", "--samples", "1")
    assert code == 2
    assert out == ""
    assert err == "error: --samples must be at least 2, got 1\n"


@pytest.mark.parametrize("target", ["1", "1,2,3"])
def test_cone_target_must_be_two_integers(capsys, target):
    code, out, err = run(capsys, "cone", "--family", "fcone-r2", "--target", target)
    assert code == 2
    assert out == ""
    assert err == f"error: --target needs 2 comma-separated integers, got {target!r}\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["schur", "--sigma", "2,x", "--rank", "3"], "--sigma"),
        (["cone", "--family", "fcone-r2", "--target", "1,x"], "--target"),
        (["curvature", "--rho", "0,1,2", "--spec", "1,x", "--tensor", "unused.json"], "--spec"),
    ],
)
def test_non_integer_list_names_the_flag(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    text = argv[argv.index(flag) + 1]
    assert err == f"error: bad {flag} value {text!r}: invalid literal for int() with base 10: 'x'\n"


def test_verify_rejects_a_negative_seed(capsys):
    argv = ("verify", "--suite", "gysin-numeric", "--samples", "10")
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --seed must be a non-negative integer, got -1\n"
    # seed 0 is a valid seed: the suite runs (10 samples are too few to pass)
    code, out, err = run(capsys, *argv, "--seed", "0")
    assert code in (0, 1)
    assert "fiber volume calibration" in out and err == ""


@pytest.mark.parametrize(
    "suite, flag",
    [("curvature", "--seed"), ("identities", "--seed"), ("oracle", "--samples")],
)
def test_verify_refuses_seed_and_samples_of_a_suite_that_draws_nothing(capsys, suite, flag):
    code, out, err = run(capsys, "verify", "--suite", suite, flag, "3")
    assert code == 2
    assert out == ""
    assert err == f"error: suite {suite!r} is not stochastic; it takes no --seed or --samples\n"


@pytest.mark.parametrize("seed", [2**64 - 1, 2**64])
def test_verify_rejects_a_seed_the_streams_cannot_key(capsys, seed):
    # gysin-numeric keys 64-bit random streams with seed and seed + 1
    argv = ("verify", "--suite", "gysin-numeric", "--samples", "10", "--seed", str(seed))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: --seed of suite 'gysin-numeric' must be at most {2**64 - 2}, got {seed}\n"


@pytest.mark.parametrize(
    "argv, key, parts, coefficient",
    [
        (["schur-decompose", "--rank", "1", "--expr", "c1(E)^1100"], "coordinates", 1100, "1"),
        (["pushforward", "--rho", "0,1,2", "--expr", "c1(U1)^1000"], "schur_coordinates", 999, "-1"),
    ],
)
def test_partitions_longer_than_the_recursion_limit(capsys, argv, key, parts, coefficient):
    # the Schur coordinates peel partitions with one part per degree
    code, out, err = run(capsys, "--json", *argv)
    assert code == 0 and err == ""
    assert json.loads(out)[key] == [[[1] * parts, coefficient]]


@pytest.mark.parametrize("command", [["pushforward", "--rho", "0,1,2"], ["schur-decompose", "--rank", "2"]])
def test_deeply_nested_expression_is_a_usage_error(capsys, command):
    depth = 1200
    code, out, err = run(capsys, *command, "--expr", "(" * depth + "c1(E)" + ")" * depth)
    assert code == 2
    assert out == ""
    assert err == "error: expression nested too deeply (at position 248)\n"


def test_conventions_do_not_depend_on_earlier_work(capsys):
    from flagforms import gysin

    # start from an empty calibration cache, as in a fresh process
    gysin._calibration_sign.cache_clear()
    before = gysin.convention_report()
    code, _, _ = run(capsys, "--json", "verify", "--suite", "oracle")
    assert code == 0
    assert gysin.convention_report() == before
    assert len(before["oracle_calibration"]) == 11
    assert before["epsilon"] == {"2": -1, "3": -1, "4": 1}


def test_python_dash_m_runs_the_cli():
    import os
    import subprocess
    import sys

    import flagforms

    src = os.path.dirname(os.path.dirname(flagforms.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "flagforms", "schur", "--sigma", "1", "--rank", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "polynomial: c1" in proc.stdout


#: sha256 of the canonical --json output of fixed commands; a refactor that
#: keeps behaviour keeps these bytes
GOLDEN_JSON = [
    (["examples-paper"], "d45d39fe48e48b8ff0baa552728d5b3029d5cb862b5b9037f715bad8deec9985"),
    (
        ["pushforward", "--rho", "0,1,4", "--expr", "c1(Q1)^2*c2(Q1)^2"],
        "07618bb666e6fd251a55a45d00aea1741061d2cfaefb588e8490f9441b90d59f",
    ),
    (
        ["pushforward", "--rho", "0,1,4", "--expr", "c1(Q1)^3*c2(Q1)^2"],
        "22d3b3634cf0ac9f4675c8f6c9e42b1198d16128b319f559eb0938ce12a27bd6",
    ),
    (
        ["pushforward", "--rho", "0,2,4", "--expr", "c1(Q2)^3*c2(Q2)^2"],
        "ab86e82177f9f654bc469c4c9cdc0841fb02801b86368bbd7ed5fef9adbdfccf",
    ),
    (
        ["pushforward", "--rho", "0,2,4", "--expr", "c1(Q2)^4*c2(Q2)^2"],
        "7035f081d847d465295465595d6454e31d9eefb575ce722be97f073763f5add3",
    ),
    (
        ["pushforward", "--rho", "0,2,5,7", "--expr", "c1(U2/U1)^10*c2(U1)^5*c1(E)^2"],
        "a7b831baf7e284649a449a570baf477fbab8abaff034f3a49790a7b793d40d9b",
    ),
    (
        ["pushforward", "--rho", "0,2,5,8", "--expr", "c1(U2/U1)^10*c2(U1)^5*c1(E)^3"],
        "b16adc134f970c24ce93fc46c1c84d1dcc6129e5403a06d2064221835c39005d",
    ),
    (
        ["pushforward", "--rho", "0,4,8", "--expr", "c1(Q4)^16*c2(Q4)^2"],
        "12b088fc76f15bf62cd24445baac121b1507792293b1ff89badb7b21511522c1",
    ),
    (
        [
            "pushforward",
            "--rho",
            "0,2,5",
            "--expr",
            "7/3*c1(Q2)^5*c2(Q2)^2*c3(Q2) - 5/2*c1(Q2)^4*c2(Q2)^3*c2(E)",
        ],
        "698746c0ee4955a36f3b90c519f7cc2f13bcf8b3daddc2bfcc51dca306d5f98c",
    ),
    (
        ["verify", "--suite", "identities"],
        "cf034cc8a019deb63b82cab80fc49a4e5199ebfd8f5af20b9afb45b4ceac6b6c",
    ),
    (
        ["verify", "--suite", "oracle"],
        "9b3b0de4895e47e0ee52f0e35053eb535d2e4bfd3bd68feb1ac05828efae1639",
    ),
]


@pytest.mark.parametrize(
    "argv, expected", GOLDEN_JSON, ids=[" ".join(argv) for argv, _ in GOLDEN_JSON]
)
def test_json_output_matches_golden_hash(capsys, argv, expected):
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected
