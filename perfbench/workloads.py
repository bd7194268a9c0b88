"""The three workloads: seeded corpora of cases with independent oracles.

Every case is one operation of the program: a ``qcunlink.cli.main``
call that writes its report with ``--out``, or one call of a library
function the command line does not expose.  Inputs come from the
benchmark seed; expected outcomes come from how each input is built and
from ``exact``, never from the program.

A case's ``check`` returns ``None`` when the program reached the
expected outcome (exit code and verdict) and every oracle agrees.  It
returns a string when the outcome itself is wrong, which counts the
operation as failed, and raises ``OracleError`` when the outcome is
right but an output disagrees with an oracle.  Each case also lists
corruptions of a good output that its oracles must reject.
"""

from __future__ import annotations

import json
import math
import os
import random
import dataclasses
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import exact as X

# Below the program's defaults (10^4 trials, 10^6 samples): one operation
# must stay well under the quiet stretches of a shared host (see README).
FALSIFIER_TRIALS = 1000
SAMPLES = 200_000

# Seed-independent inputs that reproduce two faults of the program.
TINY_FAULT = "falsifier absolute margin: 1/10^12*x1^2*x2^2 is reported quasi-convex"
SCALE_FAULT = "separation check absolute tolerance: 10^8-scaled rotated pair exits 5"


@dataclass
class Case:
    name: str
    klass: str
    run: Callable[[], object]  # the timed operation
    observe: Callable[[object], bytes]  # canonical bytes of the output
    check: Callable[[object, bytes], object]  # see the module docstring
    out: Optional[str] = None  # report path a CLI case writes
    fault: Optional[str] = None
    corruptions: list = field(default_factory=list)  # (output, data) -> (output, data)


class OracleError(Exception):
    pass


def _require(condition: bool, message: str):
    if not condition:
        raise OracleError(message)


# ---------------------------------------------------------------------------
# Input construction
# ---------------------------------------------------------------------------


def _write_poly(directory: str, name: str, p: dict, n: int) -> str:
    path = os.path.join(directory, name + ".poly")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"n={n}\n{X.render(p)}\n")
    return path


# Rotations and weights are seeded, but their sizes are not: the bit
# lengths of the coefficients, and with them the cost of every exact
# operation, are the same for every seed.


def _plane_rotation(n: int, planes, rng: random.Random):
    """Cayley rotation acting in the given coordinate planes (0-based pairs).

    Each plane gets S = +-1/2, +-2, +-1/3 or +-3, so Q has the entries
    +-3/5 and +-4/5 there.
    """
    entries = {pair: rng.choice([-1, 1]) * rng.choice([Fraction(1, 2), Fraction(2), Fraction(1, 3), Fraction(3)]) for pair in planes}
    return X.cayley(X.skew_from(entries, n))


def _dense_rotation(n: int, rng: random.Random):
    """Cayley rotation with every entry of Q nonzero.

    S is a fixed pattern (1 where i + j is odd, 1/2 elsewhere above the
    diagonal) conjugated by a seeded signed permutation.
    """
    order = list(range(n))
    rng.shuffle(order)
    signs = [rng.choice([-1, 1]) for _ in range(n)]
    entries = {}
    for i in range(n):
        for j in range(i + 1, n):
            value = Fraction(1) if (i + j) % 2 else Fraction(1, 2)
            a, b = order[i], order[j]
            entries[(a, b) if a < b else (b, a)] = value * signs[a] * signs[b] * (1 if a < b else -1)
    q = X.cayley(X.skew_from(entries, n))
    if not all(all(row) for row in q):
        raise ArithmeticError("dense rotation has a zero entry")
    return q


def _weighted_powers(n: int, coords, power: int, rng: random.Random, sign: int = 1) -> dict:
    return X.add(*(X.monomial(n, {i + 1: power}, sign * rng.randint(1, 3)) for i in coords))


# ---------------------------------------------------------------------------
# Oracles shared by the workloads
# ---------------------------------------------------------------------------


def check_witness(witness: dict, p: dict):
    """Re-verify a reported quasi-convexity violation in exact arithmetic."""
    x = [Fraction(c) for c in witness["x"]]
    y = [Fraction(c) for c in witness["y"]]
    alpha = Fraction(witness["alpha"])
    _require(0 < alpha < 1, "witness weight outside (0, 1)")
    mid = [alpha * a + (1 - alpha) * b for a, b in zip(x, y)]
    values = [X.evaluate(p, x), X.evaluate(p, y), X.evaluate(p, mid)]
    _require([Fraction(c) for c in witness["values"]] == values, "witness values differ from exact evaluation")
    _require(values[2] > max(values[0], values[1]), "witness is not a violation")


def check_transform(report: dict, base_u: dict, base_v: dict, rotation, n: int, rng: random.Random):
    """Orthonormality of L, and u o L (v o L) constant off u_block (v_block).

    The inputs are u_base(R x) and v_base(R x), so u(L y) is evaluated as
    u_base(R L y) with the sparse unrotated form.
    """
    q = report["transform"]
    _require(q is not None and len(q) == n and all(len(row) == n for row in q), "transform missing or misshapen")
    for i in range(n):
        for j in range(n):
            dot = sum(q[k][i] * q[k][j] for k in range(n))
            _require(abs(dot - (i == j)) <= 1e-9, "transform is not orthonormal")
    u_block = set(report["u_block"])
    v_block = set(report["v_block"])
    _require(not (u_block & v_block), "u_block and v_block overlap")
    r = [[float(c) for c in row] for row in rotation]
    rq = [[sum(r[i][k] * q[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    for base, block in ((base_u, u_block), (base_v, v_block)):
        for _ in range(3):
            y = [rng.gauss(0.0, 1.0) for _ in range(n)]
            moved = [c if j + 1 in block else rng.gauss(0.0, 1.0) for j, c in enumerate(y)]
            a = X.evaluate_float(base, [sum(rq[i][j] * y[j] for j in range(n)) for i in range(n)])
            b = X.evaluate_float(base, [sum(rq[i][j] * moved[j] for j in range(n)) for i in range(n)])
            _require(abs(a - b) <= 1e-7 * (1.0 + abs(a) + abs(b)), "composition depends on a coordinate outside its block")


def check_mc_mean(mean: float, exact: Fraction, var: Fraction, samples: int, what: str):
    stderr = math.sqrt(float(var) / samples)
    _require(abs(mean - float(exact)) <= 5.0 * stderr, f"{what}: Monte Carlo mean {mean} is over 5 stderr from {exact}")


def _load_report(data: bytes) -> dict:
    return json.loads(data.decode("utf-8")) if data else {}


# ---------------------------------------------------------------------------
# Case constructors
# ---------------------------------------------------------------------------


def _cli_case(cli, name, klass, argv, check, corruptions, fault=None) -> Case:
    out = argv[argv.index("--out") + 1]

    def run():
        return cli.main(argv)

    def observe(code):
        try:
            with open(out, "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return b""

    return Case(name, klass, run, observe, check, out, fault, corruptions)


def _edit(change):
    """A corruption of a CLI report: ``change`` edits the parsed report in place."""

    def corrupt(code, data):
        report = _load_report(data)
        change(report)
        return code, json.dumps(report).encode("utf-8")

    return corrupt


def _shift_first_coordinate(witness: dict):
    witness["x"][0] = str(Fraction(witness["x"][0]) + Fraction(1, 7))


def _swap_columns(report: dict):
    for row in report["transform"]:
        row[0], row[-1] = row[-1], row[0]


def _tilt(report: dict):
    report["transform"][0][0] += 1e-3


def _shift_cov(report: dict):
    report["cov_exact"] = str(Fraction(report["cov_exact"]) + 1)


def _expect(code, data, want_code) -> Optional[str]:
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    if not data:
        return "no report written"
    return None


def check_case(cli, name, path, p, seed, convex: bool) -> Case:
    argv = ["check", "--p", path, "--seed", str(seed), "--trials", str(FALSIFIER_TRIALS), "--out", path + ".out.json"]

    def check(code, data):
        wrong = _expect(code, data, 0 if convex else 3)
        if wrong:
            return wrong
        report = _load_report(data)
        _require(report["symmetric"] is True, "symmetric input reported asymmetric")
        qc = report["qc"]
        if convex:
            if qc["status"] != "not_falsified":
                return f"convex input reported {qc['status']}"
            _require(qc["trials"] == FALSIFIER_TRIALS and report["pass"] is True, "convex check incomplete")
        else:
            if qc["status"] != "falsified":
                return f"non-quasi-convex input reported {qc['status']}"
            _require(1 <= qc["trials"] <= FALSIFIER_TRIALS and report["pass"] is False, "bad falsified report")
            check_witness(qc["witness"], p)

    if convex:
        corruptions = [_edit(lambda r: r["qc"].update(trials=FALSIFIER_TRIALS - 1))]
    else:
        corruptions = [_edit(lambda r: _shift_first_coordinate(r["qc"]["witness"]))]
    klass = "full-trial" if convex else "early-falsified"
    return _cli_case(cli, name, klass, argv, check, corruptions)


def unlink_falsified_case(cli, name, u_path, v_path, u, seed, fault=None) -> Case:
    argv = [
        "unlink", "--u", u_path, "--v", v_path, "--seed", str(seed), "--trials", str(FALSIFIER_TRIALS),
        "--out", u_path + ".out.json",
    ]

    def check(code, data):
        wrong = _expect(code, data, 3)
        if wrong:
            return wrong
        report = _load_report(data)
        if (report.get("error"), report.get("input"), report.get("kind")) != (
            "hypothesis_falsified", "u", "quasi-convexity",
        ):
            return "expected u to be falsified"
        check_witness(report["witness"]["witness"], u)

    corruptions = [_edit(lambda r: _shift_first_coordinate(r["witness"]["witness"]))]
    klass = "full-trial" if fault else "early-falsified"
    return _cli_case(cli, name, klass, argv, check, corruptions, fault)


def unlink_pair_case(cli, name, klass, u_path, v_path, pair, seed, *, expect_unlinked, fault=None) -> Case:
    """``unlink`` on base forms u, v supported on coordinate sets A, B, rotated by R.

    ``pair`` = (base_u, base_v, A, B, R, n).  By construction r = |A & B|,
    t = |A - B|, m = |B - A| and the covariance is that of the base forms.
    """
    base_u, base_v, a, b, rotation, n = pair
    argv = [
        "unlink", "--u", u_path, "--v", v_path, "--seed", str(seed), "--trials", str(FALSIFIER_TRIALS),
        "--out", u_path + ".out.json",
    ]
    expected_cov = X.covariance(base_u, base_v)
    expected_rtm = (len(a & b), len(a - b), len(b - a))

    def check(code, data):
        wrong = _expect(code, data, 0 if expect_unlinked else 4)
        if wrong:
            return wrong
        report = _load_report(data)
        verdict = "unlinked" if expect_unlinked else "hypothesis_failed"
        if report.get("verdict") != verdict:
            return f"verdict {report.get('verdict')}, expected {verdict}"
        _require(Fraction(report["cov_exact"]) == expected_cov, "covariance differs from the exact value")
        _require((report["r"], report["t"], report["m"]) == expected_rtm, "r, t, m differ from the construction")
        hyp = report["hypothesis"]
        _require(hyp["symmetry_u"] and hyp["symmetry_v"], "symmetric inputs reported asymmetric")
        _require(Fraction(hyp["cov_exact"]) == expected_cov, "hypothesis covariance differs")
        for key, base in (("qc_verdict_u", base_u), ("qc_verdict_v", base_v)):
            degree = max(sum(e) for e in base)
            want = ("certified_convex_quadratic", 0) if degree <= 2 else ("not_falsified", FALSIFIER_TRIALS)
            _require((hyp[key]["status"], hyp[key]["trials"]) == want, f"{key} is not {want}")
        if expect_unlinked:
            check_transform(report, base_u, base_v, rotation, n, random.Random(name))
        else:
            _require(report["transform"] is None, "hypothesis_failed report carries a transform")

    corruptions = [_edit(_shift_cov), _edit(lambda r: r.update(r=r["r"] + 1))]
    if expect_unlinked:
        corruptions += [_edit(_tilt), _edit(_swap_columns)]
    return _cli_case(cli, name, klass, argv, check, corruptions, fault)


def _library_case(name, run, check, corruptions) -> Case:
    def observe(result):
        payload = result.to_json() if hasattr(result, "to_json") else result
        # divergence_check returns a numpy bool
        return json.dumps(payload, sort_keys=True, default=lambda o: o.item()).encode("utf-8")

    return Case(name, "spot-check", run, observe, check, corruptions=corruptions)


def _replace(**changes):
    """A corruption of a library result: the same dataclass with fields moved."""

    def corrupt(result, data):
        fields = {key: change(getattr(result, key)) for key, change in changes.items()}
        return dataclasses.replace(result, **fields), data

    return corrupt


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _program_seed(rng: random.Random) -> int:
    return rng.randint(1, 2**31 - 1)


def _negative_powers(n: int, degree: int, rng: random.Random):
    """-(sum of w_i x_i^degree) rotated in the planes (1,2), (3,4), ...

    Concave and not constant, so not quasi-convex; in eight variables a
    random falsifier trial finds a violation with high probability.
    """
    planes = [(i, i + 1) for i in range(0, n - 1, 2)]
    q = _plane_rotation(n, planes, rng)
    return X.compose(_weighted_powers(n, range(n), degree, rng, sign=-1), q, n)


def build_unlink_quartic(cli, workdir: str, rng: random.Random) -> list[Case]:
    cases = []
    # cheap class: rotated non-quasi-convex inputs, falsified in a few trials
    for k, degree in enumerate((4, 4, 4, 6, 6)):
        p = _negative_powers(8, degree, rng)
        path = _write_poly(workdir, f"q_check_{k}", p, 8)
        cases.append(check_case(cli, f"check-nonqc-d{degree}-{k}", path, p, _program_seed(rng), convex=False))
    for k, degree in enumerate((4, 4, 4, 6, 6)):
        u = _negative_powers(8, degree, rng)
        v = X.compose(_weighted_powers(8, range(8), 2, rng), _dense_rotation(8, rng), 8)
        u_path = _write_poly(workdir, f"q_unlink_u_{k}", u, 8)
        v_path = _write_poly(workdir, f"q_unlink_v_{k}", v, 8)
        cases.append(unlink_falsified_case(cli, f"unlink-nonqc-d{degree}-{k}", u_path, v_path, u, _program_seed(rng)))
    # full-trial class: convex inputs that run every falsifier trial
    a, b = (rng.choice([-1, 1]) * k for k in rng.sample([1, 2], 2))
    p = X.add(X.power(X.linear([a, b], 2), 4, 2), X.power(X.linear([a, -b], 2), 4, 2))
    path = _write_poly(workdir, "q_convex_quartic", p, 2)
    cases.append(check_case(cli, "check-convex-d4", path, p, _program_seed(rng), convex=True))
    # Cayley-rotated separated pair: x1^4 + x2^4 with x3^2, rotated in the (2, 3) plane
    q = _plane_rotation(3, [(1, 2)], rng)
    base_u = _weighted_powers(3, (0, 1), 4, rng)
    base_v = _weighted_powers(3, (2,), 2, rng)
    u_path = _write_poly(workdir, "q_pair_u", X.compose(base_u, q, 3), 3)
    v_path = _write_poly(workdir, "q_pair_v", X.compose(base_v, q, 3), 3)
    cases.append(
        unlink_pair_case(
            cli, "unlink-rotated-pair-d4", "full-trial", u_path, v_path,
            (base_u, base_v, {0, 1}, {2}, q, 3), _program_seed(rng), expect_unlinked=True,
        )
    )
    # known fault: a positive multiple of x1^2*x2^2 is not quasi-convex
    u = X.monomial(3, {1: 2, 2: 2}, Fraction(1, 10**12))
    u_path = _write_poly(workdir, "q_tiny_u", u, 3)
    v_path = _write_poly(workdir, "q_tiny_v", X.monomial(3, {3: 2}), 3)
    cases.append(unlink_falsified_case(cli, "unlink-tiny-nonqc", u_path, v_path, u, 42, TINY_FAULT))
    return cases


def _quadratic_pair(n: int, a: set, b: set, rng: random.Random, scale_u=1):
    q = _dense_rotation(n, rng)
    base_u = X.scale(_weighted_powers(n, sorted(a), 2, rng), scale_u)
    base_v = _weighted_powers(n, sorted(b), 2, rng)
    return base_u, base_v, a, b, q, n


def _pair_files(workdir, tag, pair):
    base_u, base_v, _, _, q, n = pair
    return (
        _write_poly(workdir, tag + "_u", X.compose(base_u, q, n), n),
        _write_poly(workdir, tag + "_v", X.compose(base_v, q, n), n),
    )


def build_unlink_quadratic(cli, workdir: str, rng: random.Random) -> list[Case]:
    cases = []
    # cheap class: pairs sharing a coordinate stop at hypothesis_failed
    for k, n in enumerate((6, 6, 7, 7, 8, 8, 9, 9)):
        coords = list(range(n))
        rng.shuffle(coords)
        split = n // 2
        a, b = set(coords[:split]), set(coords[split - 1 : n - 1])
        pair = _quadratic_pair(n, a, b, rng)
        u_path, v_path = _pair_files(workdir, f"h{k}", pair)
        cases.append(
            unlink_pair_case(
                cli, f"unlink-shared-n{n}-{k}", "hypothesis-failed", u_path, v_path, pair,
                _program_seed(rng), expect_unlinked=False,
            )
        )
    for k, n in enumerate((8, 12)):
        coords = list(range(n))
        rng.shuffle(coords)
        split = n // 2
        a, b = set(coords[:split]), set(coords[split : n - 1])
        pair = _quadratic_pair(n, a, b, rng)
        u_path, v_path = _pair_files(workdir, f"s{k}", pair)
        cases.append(
            unlink_pair_case(
                cli, f"unlink-separable-n{n}", "unlinked", u_path, v_path, pair,
                _program_seed(rng), expect_unlinked=True,
            )
        )
    # known fault: the 10^8-scaled pair is unlinked by construction
    fixed = random.Random(0)
    pair = _quadratic_pair(4, {0, 1}, {2, 3}, fixed, scale_u=10**8)
    u_path, v_path = _pair_files(workdir, "scaled", pair)
    cases.append(
        unlink_pair_case(
            cli, "unlink-scaled-1e8-n4", "unlinked", u_path, v_path, pair, 42,
            expect_unlinked=True, fault=SCALE_FAULT,
        )
    )
    return cases


def build_montecarlo(cli, qc, workdir: str, rng: random.Random) -> list[Case]:
    """``qc`` is the imported ``qcunlink`` package, for the library calls."""
    cases = []

    def poly(p: dict, n: int):
        return qc.Polynomial(n, dict(p))

    def cov_case(name, base_u, base_v, rotation, n):
        u = X.compose(base_u, rotation, n) if rotation else base_u
        v = X.compose(base_v, rotation, n) if rotation else base_v
        u_path = _write_poly(workdir, name + "_u", u, n)
        v_path = _write_poly(workdir, name + "_v", v, n)
        seed = _program_seed(rng)
        argv = [
            "cov", "--u", u_path, "--v", v_path, "--mc", "--mc-samples", str(SAMPLES), "--seed", str(seed),
            "--out", u_path + ".out.json",
        ]
        exact_cov = X.covariance(base_u, base_v)
        var = X.centered_product_variance(base_u, base_v, n)

        def check(code, data):
            wrong = _expect(code, data, 0)
            if wrong:
                return wrong
            report = _load_report(data)
            _require(Fraction(report["cov_exact"]) == exact_cov, "covariance differs from the exact value")
            mc = report["mc"]
            _require((mc["samples"], mc["seed"]) == (SAMPLES, seed), "Monte Carlo settings not echoed")
            check_mc_mean(mc["mean"], exact_cov, var, SAMPLES, name)

        def shift_mean(report):
            report["mc"]["mean"] += 10.0 * math.sqrt(float(var) / SAMPLES)

        return _cli_case(cli, name, "sampling", argv, check, [_edit(_shift_cov), _edit(shift_mean)])

    w = [Fraction(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(6)]
    # sparse: two variables, a few terms
    cases.append(
        cov_case(
            "cov-mc-sparse-n2",
            X.add(X.monomial(2, {1: 2}, w[0]), X.monomial(2, {1: 4}, w[1])),
            X.add(X.monomial(2, {1: 2}, w[2]), X.monomial(2, {2: 2}, w[3])),
            None, 2,
        )
    )
    # dense: every quartic and quadratic monomial of two variables, after a rotation
    cases.append(
        cov_case(
            "cov-mc-dense-n2",
            X.add(X.monomial(2, {1: 4}, w[0]), X.monomial(2, {2: 2}, w[1])),
            X.add(X.monomial(2, {2: 4}, w[2]), X.monomial(2, {1: 2}, w[3])),
            _plane_rotation(2, [(0, 1)], rng), 2,
        )
    )

    # mc_estimate of p and of u*v in two variables
    p = X.add(X.monomial(2, {1: 2}, w[4]), X.monomial(2, {2: 4}, w[5]))
    uv = (X.monomial(2, {1: 2}, w[0]), X.add(X.monomial(2, {1: 2}, w[1]), X.monomial(2, {2: 2}, w[2])))
    for name, expr, target in (
        ("mc-estimate-p", poly(p, 2), p),
        ("mc-estimate-uv", (poly(uv[0], 2), poly(uv[1], 2)), X.mul(*uv)),
    ):
        seed = _program_seed(rng)
        mean, var = X.expectation(target), X.variance(target)

        def check(result, data, mean=mean, var=var, seed=seed, name=name):
            _require((result.samples, result.seed) == (SAMPLES, seed), "settings not echoed")
            check_mc_mean(result.mean, mean, var, SAMPLES, name)
            own = math.sqrt(float(var) / SAMPLES)
            _require(0.5 * own <= result.standard_error <= 2.0 * own, f"{name}: stderr far from the exact value")

        own = math.sqrt(float(var) / SAMPLES)
        cases.append(
            _library_case(
                name,
                lambda expr=expr, seed=seed: qc.mc_estimate(expr, SAMPLES, seed),
                check,
                [_replace(mean=lambda m, own=own: m + 10.0 * own)],
            )
        )

    # correlation spot-checks with exactly computable probabilities
    a1, a2 = float(w[0]), float(w[1])
    k1, k2 = 0.5 + rng.random(), 1.0 + rng.random()
    # independent: u = a1*x1^2, v = a2*x2^2
    pa = X.prob_abs_below(math.sqrt(k1 / a1))
    pb = X.prob_abs_below(math.sqrt(k2 / a2))
    indep = (X.monomial(2, {1: 2}, w[0]), X.monomial(2, {2: 2}, w[1]), pa * pb, pa, pb)
    # dependent: u = a1*x1^2 (a strip), v = a2*(x1^2 + x2^2) (a disc)
    strip = math.sqrt(k1 / a1)
    radius = math.sqrt(k2 / a2)
    pdisc = 1.0 - math.exp(-radius * radius / 2.0)
    joint = X.simpson(
        lambda x: math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi) * X.prob_abs_below(math.sqrt(max(radius * radius - x * x, 0.0))),
        -min(strip, radius), min(strip, radius),
    )
    dep = (X.monomial(2, {1: 2}, w[0]), X.add(X.monomial(2, {1: 2}, w[1]), X.monomial(2, {2: 2}, w[1])), joint, pa, pdisc)
    for name, (u, v, p_joint, p_u, p_v) in (("correlation-independent", indep), ("correlation-strip-disc", dep)):
        seed = _program_seed(rng)

        def check(result, data, p_joint=p_joint, p_u=p_u, p_v=p_v, seed=seed, name=name):
            n_s = SAMPLES
            _require(result.passed is True, f"{name}: correlation inequality reported violated")
            _require((result.samples, result.seed) == (n_s, seed), "settings not echoed")
            _require(abs(result.lhs - p_joint) <= 5.0 * math.sqrt(p_joint * (1 - p_joint) / n_s), f"{name}: joint probability off")
            spread = math.sqrt((p_v**2 * p_u * (1 - p_u) + p_u**2 * p_v * (1 - p_v)) / n_s)
            _require(abs(result.rhs - p_u * p_v) <= 5.0 * spread, f"{name}: product of marginals off")

        sigma = math.sqrt(p_joint * (1 - p_joint) / SAMPLES)
        cases.append(
            _library_case(
                name,
                lambda u=poly(u, 2), v=poly(v, 2), seed=seed: qc.correlation_spotcheck(u, v, k1, k2, SAMPLES, seed),
                check,
                [_replace(lhs=lambda x, sigma=sigma: x + 10.0 * sigma)],
            )
        )

    # covariance double-integral identity, arity 1 and 2
    integral_pairs = (
        ("integral-n1", X.monomial(1, {1: 2}, w[2]), X.add(X.monomial(1, {1: 4}, w[3]), X.monomial(1, {1: 2}, w[4])), 1),
        ("integral-n2", X.add(X.monomial(2, {1: 2}, w[0]), X.monomial(2, {2: 2}, w[1])), X.monomial(2, {2: 4}, w[5]), 2),
    )
    for name, u, v, n in integral_pairs:
        seed = _program_seed(rng)
        exact_cov = X.covariance(u, v)
        stderr = math.sqrt(float(X.centered_product_variance(u, v, n)) / SAMPLES)

        def check(result, data, exact_cov=exact_cov, stderr=stderr, seed=seed, name=name):
            _require(Fraction(result.exact_cov) == exact_cov, f"{name}: exact covariance differs")
            _require(result.passed is True, f"{name}: identity reported violated")
            _require((result.samples, result.seed) == (SAMPLES, seed), "settings not echoed")
            tolerance = max(0.05 * abs(float(exact_cov)), 5.0 * stderr)
            _require(abs(result.integral_estimate - float(exact_cov)) <= tolerance, f"{name}: integral estimate off")

        slack = 2.0 * max(0.05 * abs(float(exact_cov)), 5.0 * stderr)
        cases.append(
            _library_case(
                name,
                lambda u=poly(u, n), v=poly(v, n), seed=seed: qc.covariance_integral_check(u, v, SAMPLES, seed=seed),
                check,
                [_replace(integral_estimate=lambda e, slack=slack: e + slack)],
            )
        )

    # divergence along a ray: grows along x1, constant along x2 for u = a*x1^2 + b*x1^4
    u = X.add(X.monomial(2, {1: 2}, w[0]), X.monomial(2, {1: 4}, w[1]))
    for name, direction, expected in (
        ("divergence-growing", [1.0, rng.uniform(-1, 1)], True),
        ("divergence-axis", [rng.uniform(0.5, 2.0), 0.0], True),
        ("divergence-invariant", [0.0, rng.uniform(0.5, 2.0)], False),
    ):
        def check(result, data, expected=expected, name=name):
            _require(bool(result) is expected, f"{name}: expected {expected}, got {result}")

        cases.append(
            _library_case(
                name,
                lambda u=poly(u, 2), direction=direction: qc.divergence_check(u, direction),
                check,
                [lambda result, data: (not result, data)],
            )
        )
    return cases


WORKLOADS = {
    "unlink-quartic": lambda cli, qc, workdir, rng: build_unlink_quartic(cli, workdir, rng),
    "unlink-quadratic": lambda cli, qc, workdir, rng: build_unlink_quadratic(cli, workdir, rng),
    "montecarlo": build_montecarlo,
}
