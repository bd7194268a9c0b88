"""CLI behaviour: report shapes, determinism, and the exit-code contract."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import qcunlink.unlink as unlink_module
from qcunlink.cli import main
from qcunlink.polyalg import compose_linear, evaluate, parse_expression, to_expression
from qcunlink.unlink import InvariantViolation

from corpus import dense_rotation, swap_columns

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out else None, err


@pytest.fixture
def certificates(monkeypatch):
    """Results of the exact separation certificates the pipeline evaluates."""
    results = []
    certify = unlink_module.verify_unlinked

    def spy(p, transform, forbidden):
        results.append(certify(p, transform, forbidden))
        return results[-1]

    monkeypatch.setattr(unlink_module, "verify_unlinked", spy)
    return results


# ---------------------------------------------------------------------------
# Exit code contract, one scenario per code
# ---------------------------------------------------------------------------


def test_exit_0_unlink_rotated_pair(capsys, certificates):
    code, report, _ = run_json(
        capsys,
        "unlink",
        "--u", str(FIXTURES / "rot_u.poly"),
        "--v", str(FIXTURES / "rot_v.poly"),
        "--seed", "42",
    )
    assert code == 0
    assert report["verdict"] == "unlinked"
    assert report["cov_exact"] == "0"
    assert report["r"] == 0
    assert report["u_block"] == [1]
    assert report["v_block"] == [2]
    assert certificates == [True, True]
    assert list(report) == [
        "verdict", "cov_exact", "r", "t", "m", "transform",
        "u_block", "v_block", "hypothesis",
    ]


def test_exit_0_unlink_scaled_rotated_pair(capsys, tmp_path):
    # the separation certificate is exact, so coefficient scale cannot trip it
    q = dense_rotation(4)
    paths = []
    for name, text in (("u", "200000000*x1^2 + 200000000*x2^2"), ("v", "3*x3^2 + x4^2")):
        path = tmp_path / f"{name}.poly"
        path.write_text(f"n=4\n{to_expression(compose_linear(parse_expression(text, 4), q))}\n")
        paths.append(str(path))
    code, report, err = run_json(capsys, "unlink", "--u", paths[0], "--v", paths[1])
    assert code == 0, err
    assert report["verdict"] == "unlinked"
    assert (report["r"], report["t"], report["m"]) == (0, 2, 2)


def test_exit_0_unlink_arity_zero(capsys, tmp_path):
    # constants in no variables are trivially unlinked by the empty transform
    paths = []
    for name, text in (("u", "3"), ("v", "0")):
        path = tmp_path / f"{name}.poly"
        path.write_text(f"n=0\n{text}\n")
        paths.append(str(path))
    code, report, err = run_json(capsys, "unlink", "--u", paths[0], "--v", paths[1])
    assert code == 0, err
    assert report["verdict"] == "unlinked"
    assert (report["r"], report["t"], report["m"]) == (0, 0, 0)
    assert report["transform"] == []
    assert (report["u_block"], report["v_block"]) == ([], [])


def test_exit_2_syntax_error(capsys):
    code, out, err = run(capsys, "check", "--p", str(FIXTURES / "broken" / "bad_syntax.poly"))
    assert code == 2
    assert out == ""
    assert "error" in err


def test_exit_2_unknown_flag(capsys):
    code, _, _ = run(capsys, "cov", "--u", "a", "--v", "b", "--frobnicate")
    assert code == 2


def test_exit_2_missing_file(capsys):
    code, _, err = run(capsys, "check", "--p", str(FIXTURES / "does_not_exist.poly"))
    assert code == 2


@pytest.mark.parametrize(
    "terms, message",
    [
        ([{"c": "1"}], "term 0"),
        ([{"c": "1", "e": [2, 0]}, {"e": [0, 2]}], "term 1"),
        ([{"c": "1", "e": [2]}], "'e' must be a list of 2"),
        ([{"c": "1", "e": [2, -1]}], "nonnegative"),
        ([{"c": "one", "e": [2, 0]}], "'c' is not a rational"),
        ([{"c": "1/0", "e": [2, 0]}], "'c' is not a rational"),
        ([["1", [2, 0]]], "term 0"),
    ],
)
def test_exit_2_malformed_json_term(capsys, tmp_path, terms, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "terms": terms}))
    code, out, err = run(capsys, "cov", "--u", str(bad), "--v", str(bad))
    assert code == 2
    assert out == ""
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "name, content, message",
    [
        ("wide.poly", "n=100000\nx1^2\n", "arity 100000 exceeds the limit"),
        ("steep.poly", "n=1\nx1^100000\n", "exponent of x1 exceeds the limit"),
        ("wide.json", json.dumps({"n": 100000, "terms": []}), "arity 100000 exceeds the limit"),
        ("steep.json", json.dumps({"n": 1, "terms": [{"c": "1", "e": [100000]}]}), "term 0"),
    ],
)
def test_exit_2_input_over_limits(capsys, tmp_path, name, content, message):
    path = tmp_path / name
    path.write_text(content)
    code, out, err = run(capsys, "unlink", "--u", str(path), "--v", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("qcunlink: error:") and message in err


def test_exit_2_invalid_seed(capsys):
    code, _, err = run(
        capsys, "check", "--p", str(FIXTURES / "square.poly"), "--seed", "0"
    )
    assert code == 2
    assert "positive" in err


@pytest.mark.parametrize(
    "u, samples",
    [
        ("x1^2", "1"),  # no variance estimate from one sample
        ("x1^400", "1000"),  # the sampled products are finite, their squares overflow float64
        ("x1^1000", "1000"),  # the sampled values themselves overflow float64
    ],
)
def test_exit_2_cov_mc_unreportable_estimate(capsys, tmp_path, u, samples):
    paths = []
    for name, text in (("u", u), ("v", "x1^2")):
        path = tmp_path / f"{name}.poly"
        path.write_text(f"n=1\n{text}\n")
        paths.append(str(path))
    argv = ["cov", "--u", paths[0], "--v", paths[1], "--mc", "--mc-samples", samples]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("qcunlink: error:") and err.count("\n") == 1
    target = tmp_path / "report.json"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("qcunlink: error:") and err.count("\n") == 1
    assert not target.exists()


def test_exit_3_check_concave_input(capsys):
    code, report, _ = run_json(capsys, "check", "--p", str(FIXTURES / "neg_square.poly"))
    assert code == 3
    assert report["qc"]["status"] == "falsified"
    assert report["qc"]["witness"] is not None
    assert report["pass"] is False


def test_exit_3_unlink_non_quasi_convex(capsys, tmp_path):
    cross = tmp_path / "cross.poly"
    cross.write_text("n=2\nx1^2*x2^2\n")
    code, report, _ = run_json(
        capsys,
        "unlink",
        "--u", str(FIXTURES / "square.poly"),
        "--v", str(cross),
    )
    assert code == 3
    assert report["error"] == "hypothesis_falsified"
    assert report["input"] == "v"
    assert report["kind"] == "quasi-convexity"
    assert report["witness"]["witness"]["alpha"] is not None


def test_exit_3_unlink_tiny_non_quasi_convex(capsys, tmp_path):
    # scale does not hide a violation: the witness gap is strictly positive, however small
    tiny = tmp_path / "tiny.poly"
    tiny.write_text("n=3\n1/1000000000000*x1^2*x2^2\n")
    square = tmp_path / "square3.poly"
    square.write_text("n=3\nx3^2\n")
    code, report, _ = run_json(capsys, "unlink", "--u", str(tiny), "--v", str(square))
    assert code == 3
    assert report["input"] == "u"
    assert report["kind"] == "quasi-convexity"
    witness = report["witness"]["witness"]
    x, y = ([Fraction(c) for c in witness[key]] for key in ("x", "y"))
    alpha = Fraction(witness["alpha"])
    mid = [alpha * a + (1 - alpha) * b for a, b in zip(x, y)]
    p = parse_expression("1/1000000000000*x1^2*x2^2", 3)
    values = [evaluate(p, x), evaluate(p, y), evaluate(p, mid)]
    assert [Fraction(c) for c in witness["values"]] == values
    assert values[2] > max(values[:2])


def test_exit_4_nonzero_covariance(capsys):
    code, report, _ = run_json(
        capsys,
        "unlink",
        "--u", str(FIXTURES / "square.poly"),
        "--v", str(FIXTURES / "square_sum.poly"),
    )
    assert code == 4
    assert report["verdict"] == "hypothesis_failed"
    assert report["cov_exact"] == "2"
    assert report["transform"] is None


def test_exit_5_internal_invariant_violation(capsys, monkeypatch):
    def broken(report):
        raise InvariantViolation("injected fault")

    monkeypatch.setattr(unlink_module, "build_transform", broken)
    code, out, err = run(
        capsys,
        "unlink",
        "--u", str(FIXTURES / "rot_u.poly"),
        "--v", str(FIXTURES / "rot_v.poly"),
    )
    assert code == 5
    assert "invariant" in err


def test_exit_5_swapped_transform_fails_certificate(capsys, monkeypatch, certificates):
    build = unlink_module.build_transform

    def swapped(report):
        # exchange u's first column with the first column u must not use
        transform = build(report)
        forbidden = set(range(1, transform.n + 1)) - set(transform.u_block)
        return swap_columns(transform, transform.u_block[0], min(forbidden))

    monkeypatch.setattr(unlink_module, "build_transform", swapped)
    code, out, err = run(
        capsys,
        "unlink",
        "--u", str(FIXTURES / "rot_u.poly"),
        "--v", str(FIXTURES / "rot_v.poly"),
    )
    assert code == 5
    assert out == ""
    assert "invariant" in err
    assert certificates == [False]


# ---------------------------------------------------------------------------
# Subcommand reports
# ---------------------------------------------------------------------------


def test_check_passes_convex_fixture(capsys):
    code, report, _ = run_json(capsys, "check", "--p", str(FIXTURES / "square_sum.poly"))
    assert code == 0
    assert report["symmetric"] is True
    assert report["qc"]["status"] == "certified_convex_quadratic"
    assert report["pass"] is True
    assert report["seed"] == 42


def test_invariance_report(capsys):
    code, report, _ = run_json(capsys, "invariance", "--p", str(FIXTURES / "rot_u.poly"))
    assert code == 0
    assert report["dimension"] == 1
    assert report["basis"] == [["1", "-1"]]
    assert report["normalized"] is False


def test_concordance_report(capsys):
    code, report, _ = run_json(
        capsys,
        "concordance",
        "--u", str(FIXTURES / "rot_u.poly"),
        "--v", str(FIXTURES / "rot_v.poly"),
    )
    assert code == 0
    assert (report["r"], report["t"], report["m"]) == (0, 1, 1)
    assert report["bases"]["inv_u"]["basis"] == [["1", "-1"]]


def test_cov_report_exact_only(capsys):
    code, report, _ = run_json(
        capsys,
        "cov",
        "--u", str(FIXTURES / "square.poly"),
        "--v", str(FIXTURES / "square_sum.poly"),
    )
    assert code == 0
    assert report["cov_exact"] == "2"
    assert "mc" not in report


def test_cov_report_with_mc(capsys):
    code, report, _ = run_json(
        capsys,
        "cov",
        "--u", str(FIXTURES / "square.poly"),
        "--v", str(FIXTURES / "square_sum.poly"),
        "--mc", "--mc-samples", "100000", "--seed", "42",
    )
    assert code == 0
    mc = report["mc"]
    assert abs(mc["mean"] - 2.0) <= 4 * mc["stderr"]
    assert mc["seed"] == 42


def test_cov_accepts_json_input(capsys):
    code, report, _ = run_json(
        capsys,
        "cov",
        "--u", str(FIXTURES / "square.poly"),
        "--v", str(FIXTURES / "square_sum.json"),
    )
    assert code == 0
    assert report["cov_exact"] == "2"


def test_marginal_report(capsys, tmp_path):
    source = tmp_path / "mixed.poly"
    source.write_text("n=2\nx1^4 + x1^2*x2^4\n")
    code, report, _ = run_json(capsys, "marginal", "--p", str(source), "--marginalize", "2")
    assert code == 0
    assert report["expression"] == "x1^4 + 3*x1^2"
    assert report["result"]["terms"] == [
        {"c": "3", "e": [2, 0]},
        {"c": "1", "e": [4, 0]},
    ]


def test_marginal_rejects_bad_indices(capsys, tmp_path):
    source = tmp_path / "mixed.poly"
    source.write_text("n=2\nx1^2\n")
    code, _, err = run(capsys, "marginal", "--p", str(source), "--marginalize", "3")
    assert code == 2
    assert "out of range" in err


def test_verify_fixture_directory(capsys):
    code, report, _ = run_json(capsys, "verify", str(FIXTURES), "--seed", "42")
    assert code == 0
    assert report["all_pass"] is True
    assert report["pairs_checked"] > 0
    assert all(entry["pass"] for entry in report["fixtures"])


def test_unlink_quartic_pair_residuals_zero(capsys, certificates):
    code, report, _ = run_json(
        capsys,
        "unlink",
        "--u", str(FIXTURES / "quartic_x1.poly"),
        "--v", str(FIXTURES / "quartic_x2.poly"),
    )
    assert code == 0
    assert report["verdict"] == "unlinked"
    assert certificates == [True, True]


# ---------------------------------------------------------------------------
# Determinism and plumbing
# ---------------------------------------------------------------------------


def test_reports_are_byte_identical(capsys):
    argv = [
        "unlink",
        "--u", str(FIXTURES / "rot_u.poly"),
        "--v", str(FIXTURES / "rot_v.poly"),
        "--seed", "42",
    ]
    code1 = main(argv)
    first = capsys.readouterr().out
    code2 = main(argv)
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    assert first == second


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "cov",
        "--u", str(FIXTURES / "square.poly"),
        "--v", str(FIXTURES / "square_sum.poly"),
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["cov_exact"] == "2"


def test_exit_2_unwritable_out_path(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(
        capsys,
        "cov",
        "--u", str(FIXTURES / "square.poly"),
        "--v", str(FIXTURES / "square_sum.poly"),
        "--out", str(target),
    )
    assert (code, out) == (2, "")
    assert "qcunlink: error:" in err and "Traceback" not in err


def test_env_seed_is_used(capsys, monkeypatch):
    monkeypatch.setenv("UNLINK_SEED", "7")
    code, report, _ = run_json(capsys, "check", "--p", str(FIXTURES / "square.poly"))
    assert code == 0
    assert report["seed"] == 7


def test_flag_overrides_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("UNLINK_SEED", "7")
    code, report, _ = run_json(
        capsys, "check", "--p", str(FIXTURES / "square.poly"), "--seed", "11"
    )
    assert code == 0
    assert report["seed"] == 11


def test_floats_use_17_significant_digits(capsys):
    code, out, _ = run(
        capsys,
        "unlink",
        "--u", str(FIXTURES / "rot_u.poly"),
        "--v", str(FIXTURES / "rot_v.poly"),
    )
    assert code == 0
    assert "0.70710678118654746" in out
