"""CLI behaviour: report shapes, determinism, and the exit-code contract."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qcunlink.unlink as unlink_module
from qcunlink.cli import main
from qcunlink.polyalg import evaluate, parse_expression, to_expression
from qcunlink.unlink import InvariantViolation

from corpus import dense_rotation, swap_columns
from exact_oracles import compose_linear

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


@pytest.mark.parametrize("digits", [200, 2000])
def test_exit_0_unlink_orthogonal_pair_past_float_range(capsys, tmp_path, monkeypatch, digits):
    # (x1 + k*x2)^2 and (k*x1 - x2)^2: the exact columns (1, k) and (k, -1)
    # are scaled by a power of two before they are converted to float
    k = 10**digits
    paths = []
    for name, text in (
        ("u", f"x1^2 + {2 * k}*x1*x2 + {k * k}*x2^2"),
        ("v", f"{k * k}*x1^2 - {2 * k}*x1*x2 + x2^2"),
    ):
        path = tmp_path / f"{name}.poly"
        path.write_text(f"n=2\n{text}\n")
        paths.append(str(path))
    transforms = []
    build = unlink_module.build_transform

    def spy(report):
        transforms.append(build(report))
        return transforms[-1]

    monkeypatch.setattr(unlink_module, "build_transform", spy)
    code, report, err = run_json(capsys, "unlink", "--u", paths[0], "--v", paths[1])
    assert (code, err) == (0, "")
    assert report["verdict"] == "unlinked"
    assert transforms[0].orthogonality_error() <= 1e-10
    assert sorted(map(sorted, transforms[0].columns)) == [[-1, k], [1, k]]


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


def test_exit_2_request_too_large_for_memory(capsys):
    # 2 x 10^14 float64 values are 1.42 PiB: numpy refuses them at once,
    # allocating nothing, and its message (with the size) is not echoed
    square = str(FIXTURES / "square.poly")
    argv = ["cov", "--u", square, "--v", square, "--mc", "--mc-samples", str(10**14)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "qcunlink: error: not enough memory for this command\n"


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
        # Fraction("1e10000000") would build a 33-million-bit integer
        ([{"c": "1e10000000", "e": [2, 0]}], "'c' is not a rational"),
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


@pytest.mark.parametrize(
    "header",
    ["n=1_0", "n=\u0663", "n=+3", "n=", "n=2x", pytest.param("n=" + "9" * 5000, id="n=9*5000")],
)
def test_exit_2_poly_header_arity_not_ascii_digits(capsys, tmp_path, header):
    # int() reads "1_0" as 10 and the Arabic-Indic digit three as 3
    path = tmp_path / "p.poly"
    path.write_text(f"{header}\nx1^2\n", encoding="utf-8")
    code, out, err = run(capsys, "invariance", "--p", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("qcunlink: error:") and "invalid arity in header" in err


def test_exit_2_coefficient_over_digit_limit(capsys, tmp_path):
    # the text is refused at the coefficient before int() sees it
    path = tmp_path / "p.poly"
    path.write_text("n=1\nx1^2 + " + "3" * 5000 + "*x1^4\n")
    code, out, err = run(capsys, "check", "--p", str(path))
    assert (code, out) == (2, "")
    assert err == f"qcunlink: error: {path}: integer of 5000 digits exceeds the limit of 4300 (at offset 7)\n"


def test_cov_report_prints_values_over_digit_limit(capsys, tmp_path):
    # Cov(p, p) = E[x^2000]^2 - E[x^1000]^4 has more digits than int-to-str converts by default
    path = tmp_path / "p.poly"
    path.write_text("n=2\nx1^1000*x2^1000\n")
    limit = sys.get_int_max_str_digits()
    code, report, err = run_json(capsys, "cov", "--u", str(path), "--v", str(path))
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    moment = math.prod(range(1999, 0, -2))
    half = math.prod(range(999, 0, -2))
    # the limit is lifted only for the comparison, as the report was rendered
    sys.set_int_max_str_digits(0)
    try:
        expected = str(moment**2 - half**4)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(expected) > limit
    assert report["cov_exact"] == expected


def full_digits(value: int) -> str:
    """str(value) however many digits it has, the interpreter's limit restored after."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def test_marginal_report_prints_values_over_digit_limit(capsys, tmp_path):
    # E[x1^1000 * ... * x4^1000] = (999!!)^4 is formed by to_json before the report is rendered
    path = tmp_path / "p.poly"
    path.write_text("n=4\nx1^1000*x2^1000*x3^1000*x4^1000\n")
    limit = sys.get_int_max_str_digits()
    argv = ["marginal", "--p", str(path), "--marginalize", "1,2,3,4"]
    code, report, err = run_json(capsys, *argv)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    expected = full_digits(math.prod(range(999, 0, -2)) ** 4)
    assert len(expected) > limit
    assert report["result"]["terms"] == [{"c": expected, "e": [0, 0, 0, 0]}]
    assert report["expression"] == expected


def test_unlink_report_prints_values_over_digit_limit(capsys, tmp_path):
    # Cov(u, u) > 0, so the pipeline stops at its hypothesis with exit 4 and prints it in full
    path = tmp_path / "u.poly"
    path.write_text("n=2\nx1^1000*x2^1000\n")
    limit = sys.get_int_max_str_digits()
    argv = ["unlink", "--u", str(path), "--v", str(path), "--trials", "1"]
    code, report, err = run_json(capsys, *argv)
    assert (code, err) == (4, "")
    assert sys.get_int_max_str_digits() == limit
    moment = math.prod(range(1999, 0, -2))
    half = math.prod(range(999, 0, -2))
    expected = full_digits(moment**2 - half**4)
    assert len(expected) > limit
    assert report["verdict"] == "hypothesis_failed"
    assert report["cov_exact"] == report["hypothesis"]["cov_exact"] == expected


@pytest.mark.parametrize(
    "template",
    [
        '{"n": N, "terms": []}',
        '{"n": 1, "terms": [{"c": "1", "e": [N]}]}',
        '{"n": 1, "terms": [{"c": N, "e": [0]}]}',
        '{"n": 1, "terms": [{"c": -N, "e": [0]}]}',
    ],
    ids=["n", "e", "c", "-c"],
)
def test_exit_2_json_integer_over_digit_limit(capsys, tmp_path, template):
    # a command runs with the interpreter's digit limit lifted, so the reader bounds JSON integers
    path = tmp_path / "p.json"
    path.write_text(template.replace("N", "7" * 5000))
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "invariance", "--p", str(path))
    assert (code, out) == (2, "")
    assert err == f"qcunlink: error: {path}: JSON integer of 5000 digits exceeds the limit of 4300\n"
    assert sys.get_int_max_str_digits() == limit


def test_exit_2_deeply_nested_json(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "check", "--p", str(path))
    assert (code, out) == (2, "")
    assert err == f"qcunlink: error: {path}: JSON nested too deeply\n"


@pytest.mark.parametrize(
    "name, content",
    [
        ("bad.json", '{"n": 2, "terms": [}'),
        ("bad.json", json.dumps({"n": 2, "terms": [{"c": "one", "e": [2, 0]}]})),
        ("bad.json", '{"n": 2, "terms": [{"c": "1", "e": [' + "7" * 5000 + ", 0]}]}"),
        ("bad.poly", "n=2\nx1^2 +* x2^2\n"),
        ("bad.poly", "n=2\n" + "3" * 5000 + "*x1^2\n"),
        ("bad.poly", "n=two\nx1^2\n"),
        ("bad.poly", b"n=2\n\xff\n"),
    ],
    ids=["json-syntax", "json-term", "json-digits", "poly-syntax", "poly-digits", "poly-header", "utf-8"],
)
def test_exit_2_content_error_names_its_file(capsys, tmp_path, name, content):
    # with two inputs, the message says which one is at fault
    good = FIXTURES / "rot_u.poly"
    bad = tmp_path / name
    if isinstance(content, bytes):
        bad.write_bytes(content)
    else:
        bad.write_text(content)
    for u, v in ((good, bad), (bad, good)):
        code, out, err = run(capsys, "cov", "--u", str(u), "--v", str(v))
        assert (code, out) == (2, "")
        assert err.startswith(f"qcunlink: error: {bad}: ")


@pytest.mark.parametrize(
    "name, content, argv",
    [
        ("p.json", json.dumps({"n": 1, "terms": [{"c": "c" * 1_000_000, "e": [2]}]}), ()),
        ("p.poly", "n=" + "9" * 1_000_000 + "\nx1^2\n", ()),
        ("p.poly", "n=1\nx1^2\n", ("--marginalize", "9" * 1_000_000)),
        ("p.poly", "n=1\nx1^2\n", ("--marginalize", "9" * 4300)),
        ("p.poly", "n=1\nx" + "9" * 4300 + "^2\n", ()),
    ],
    ids=["json-c", "poly-header", "marginalize", "marginalize-range", "variable-range"],
)
def test_exit_2_long_input_is_not_echoed(capsys, tmp_path, name, content, argv):
    # the term index, the path or the flag locates the fault; the text itself is not repeated
    path = tmp_path / name
    path.write_text(content)
    command = "marginal" if argv else "check"
    code, out, err = run(capsys, command, "--p", str(path), *argv)
    assert (code, out) == (2, "")
    assert err.startswith("qcunlink: error:") and len(err.encode()) < 1024


def test_exit_2_invalid_seed(capsys):
    code, _, err = run(
        capsys, "check", "--p", str(FIXTURES / "square.poly"), "--seed", "0"
    )
    assert code == 2
    assert "positive" in err


@pytest.mark.parametrize(
    "argv, env",
    [
        (("check", "--trials", "x" * 100_000), None),
        (("check", "--trials", "0"), None),
        (("check", "--seed", " +7"), None),
        (("check", "--seed", "-7"), None),
        (("check", "--seed", "\u0667"), None),
        (("check", "--seed", "9" * 5000), None),
        (("cov", "--mc", "--mc-samples", "x" * 100_000), None),
        (("unlink", "--trials", "1_0"), None),
        (("check",), "9" * 5000),
        (("check",), " +7"),
        (("check",), "0"),
    ],
    ids=[
        "trials-long", "trials-zero", "seed-sign-space", "seed-negative", "seed-arabic-digit",
        "seed-long", "mc-samples-long", "trials-underscore", "env-long", "env-sign-space", "env-zero",
    ],
)
def test_exit_2_integer_flags_take_positive_ascii_digits(capsys, monkeypatch, argv, env):
    # --seed, --trials, --mc-samples and UNLINK_SEED share one reader, which quotes no value
    if env is None:
        monkeypatch.delenv("UNLINK_SEED", raising=False)
    else:
        monkeypatch.setenv("UNLINK_SEED", env)
    command, *flags = argv
    inputs = ["--u", str(FIXTURES / "square.poly"), "--v", str(FIXTURES / "square.poly")]
    if command == "check":
        inputs = ["--p", str(FIXTURES / "square.poly")]
    code, out, err = run(capsys, command, *inputs, *flags)
    assert (code, out) == (2, "")
    assert "positive" in err and len(err.encode()) < 1024
    assert repr(env if env is not None else flags[-1]) not in err


@pytest.mark.parametrize(
    "u, samples",
    [
        ("x1^2", "1"),  # no variance estimate from one sample
        ("x1^400", "1000"),  # the sampled products are finite, their squares overflow float64
        ("x1^1000", "1000"),  # the sampled values themselves overflow float64
    ],
)
def test_exit_2_cov_mc_unreportable_estimate(capsys, tmp_path, u, samples):
    # the message names what could not be reported
    cause = {
        "x1^2": "need at least 2 samples",
        "x1^400": "float64 overflow in stderr\n",
        "x1^1000": "float64 overflow in mean, stderr\n",
    }[u]
    paths = []
    for name, text in (("u", u), ("v", "x1^2")):
        path = tmp_path / f"{name}.poly"
        path.write_text(f"n=1\n{text}\n")
        paths.append(str(path))
    argv = ["cov", "--u", paths[0], "--v", paths[1], "--mc", "--mc-samples", samples]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("qcunlink: error:") and err.count("\n") == 1
    assert cause in err
    target = tmp_path / "report.json"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("qcunlink: error:") and err.count("\n") == 1
    assert cause in err
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


def test_unlink_and_check_report_the_same_witness_on_a_shifted_input(capsys, tmp_path):
    # the constant term is part of the input: both commands print values of u itself
    u = tmp_path / "u.poly"
    u.write_text("n=2\nx1^2 + x2^2 - 1/10*x1^4 + 3\n")
    v = tmp_path / "v.poly"
    v.write_text("n=2\nx2^2\n")
    flags = ("--seed", "1", "--trials", "2000")
    code, unlinked, _ = run_json(capsys, "unlink", "--u", str(u), "--v", str(v), *flags)
    assert code == 3
    assert (unlinked["input"], unlinked["kind"]) == ("u", "quasi-convexity")
    code, checked, _ = run_json(capsys, "check", "--p", str(u), *flags)
    assert code == 3
    assert unlinked["witness"]["witness"] == checked["qc"]["witness"]
    assert unlinked["witness"]["trials"] == checked["qc"]["trials"]


def test_exit_3_unlink_asymmetric_many_variables(capsys, tmp_path):
    # a product of 255 variables vanishes on most points with one zero coordinate in [-9, 9]
    u = tmp_path / "u.poly"
    u.write_text("n=256\n" + "*".join(f"x{i}" for i in range(1, 256)) + "\n")
    v = tmp_path / "v.poly"
    v.write_text("n=256\nx256^2\n")
    code, report, _ = run_json(capsys, "unlink", "--u", str(u), "--v", str(v))
    assert code == 3
    assert (report["input"], report["kind"]) == ("u", "symmetry")
    assert report["witness"]["p_x"] != report["witness"]["p_minus_x"]


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


def test_exit_5_concordance_chain_not_nested(capsys, monkeypatch):
    # an overlap outside inv_u_perp: the Gram-Schmidt count refuses the chain
    concord = unlink_module.concordance

    def unnested(u, v):
        report = concord(u, v)
        return dataclasses.replace(report, overlap=report.inv_u)

    monkeypatch.setattr(unlink_module, "concordance", unnested)
    code, out, err = run(
        capsys,
        "unlink",
        "--u", str(FIXTURES / "rot_u.poly"),
        "--v", str(FIXTURES / "rot_v.poly"),
    )
    assert (code, out) == (5, "")
    assert "invariant" in err and "not nested" in err


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


@pytest.mark.parametrize("name", ["square.poly", "square_sum.json"])
def test_input_with_byte_order_mark(capsys, tmp_path, monkeypatch, name):
    # a file saved with a UTF-8 byte-order mark reads as the same polynomial;
    # both copies share a relative path, so the reports can match byte for byte
    content = (FIXTURES / name).read_bytes()
    reports = []
    for prefix in (b"", b"\xef\xbb\xbf"):
        directory = tmp_path / ("marked" if prefix else "plain")
        directory.mkdir()
        (directory / name).write_bytes(prefix + content)
        monkeypatch.chdir(directory)
        reports.append(run(capsys, "cov", "--u", name, "--v", name))
    assert reports[0][0] == 0
    assert reports[1] == reports[0]


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


@pytest.mark.parametrize("indices", ["1,+2", "1_0", "-1", "\u0661", "2.0", "9" * 5000])
def test_marginal_indices_are_ascii_digits(capsys, tmp_path, indices):
    # int() reads "+2", "1_0" and the Arabic-Indic digit one; as in the header, only ASCII digits count
    source = tmp_path / "p.poly"
    source.write_text("n=2\nx1^2\n")
    code, out, err = run(capsys, "marginal", "--p", str(source), "--marginalize", indices)
    assert (code, out) == (2, "")
    assert err.startswith("qcunlink: error: invalid index list")


def test_marginal_indices_allow_spaces_and_empty_entries(capsys, tmp_path):
    source = tmp_path / "p.poly"
    source.write_text("n=2\nx1^2*x2^2\n")
    code, report, _ = run_json(capsys, "marginal", "--p", str(source), "--marginalize", " 2, 1 ,")
    assert code == 0
    assert report["marginalize"] == [1, 2]
    assert report["expression"] == "1"


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


@pytest.mark.parametrize(
    "command, trials", [("check", True), ("unlink", True), ("verify", False), ("invariance", False)]
)
def test_help_describes_the_shared_flags(capsys, command, trials):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    text = " ".join(out.split())
    assert "--seed SEED random seed (default: UNLINK_SEED or 42)" in text
    assert "--out OUT write the report here instead of stdout" in text
    assert ("--trials TRIALS falsifier trials (default: 10^4)" in text) == trials


def test_repeated_in_process_calls(capsys, monkeypatch):
    # one process, one parser: a usage error and --help leave nothing behind,
    # and UNLINK_SEED is read afresh on every call
    code, out, err = run(capsys, "check")
    assert (code, out) == (2, "")
    assert "the following arguments are required: --p" in err
    code, out, _ = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: qcunlink")
    argv = [
        "unlink",
        "--u", str(FIXTURES / "quartic_x1.poly"),
        "--v", str(FIXTURES / "quartic_x2.poly"),
        "--trials", "1000",
    ]
    monkeypatch.setenv("UNLINK_SEED", "7")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    src = str(Path(unlink_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = subprocess.run(
        [sys.executable, "-m", "qcunlink", *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert (fresh.returncode, fresh.stdout) == (0, out)
    assert json.loads(out)["hypothesis"]["qc_verdict_u"]["seed"] == 7
    monkeypatch.setenv("UNLINK_SEED", "8")
    code, report, _ = run_json(capsys, *argv)
    assert code == 0
    assert report["hypothesis"]["qc_verdict_u"]["seed"] == report["hypothesis"]["qc_verdict_v"]["seed"] == 8


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


# ---------------------------------------------------------------------------
# numpy loads for Monte Carlo alone
# ---------------------------------------------------------------------------

# runs ``main`` on its arguments, if any, after ``import qcunlink``; prints
# the exit code and whether numpy was imported
NUMPY_PROBE = """
import contextlib, io, sys
import qcunlink
code = 0
if sys.argv[1:]:
    from qcunlink.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
print(code, "numpy" in sys.modules)
"""

ROT = ("--u", str(FIXTURES / "rot_u.poly"), "--v", str(FIXTURES / "rot_v.poly"))


@pytest.mark.parametrize(
    "argv, loads_numpy",
    [
        ((), False),
        (("check", "--p", str(FIXTURES / "square.poly")), False),
        (("cov", *ROT), False),
        (("invariance", "--p", str(FIXTURES / "rot_u.poly")), False),
        (("concordance", *ROT), False),
        (("marginal", "--p", str(FIXTURES / "square_sum.poly"), "--marginalize", "1"), False),
        (("verify", str(FIXTURES)), False),
        (("unlink", *ROT), False),
        (("cov", *ROT, "--mc", "--mc-samples", "1000"), True),
    ],
    ids=["import", "check", "cov", "invariance", "concordance", "marginal", "verify", "unlink", "cov-mc"],
)
def test_only_monte_carlo_imports_numpy(argv, loads_numpy):
    src = str(Path(unlink_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", str(loads_numpy)]
