"""Command-line frontend with deterministic JSON reports.

Subcommands: ``check`` (symmetry + quasi-convexity falsifier),
``invariance`` (invariant-direction basis), ``concordance`` (r, t, m and
bases), ``cov`` (exact covariance, optional Monte Carlo cross-check),
``marginal`` (partial Gaussian expectation), ``unlink`` (full pipeline),
``verify`` (unconditional property suite over a fixture directory).

Reports are byte-identical for identical arguments and input files:
randomized work is seeded (flag ``--seed``, falling back to the
UNLINK_SEED environment variable, then 42), field order is fixed, and
floats are rendered with 17 significant digits.

Exit codes: 0 success, 2 usage or input parse error, 3 a hypothesis was
falsified (symmetry or quasi-convexity; the witness is in the report),
4 the unlink pipeline found a nonzero exact covariance, 5 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import sys
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import gaussmeasure, structure, unlink
from .polyalg import (
    Polynomial,
    PolynomialSyntaxError,
    from_json,
    is_symmetric,
    parse_expression,
    to_expression,
    to_json,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FALSIFIED = 3
EXIT_COV_NONZERO = 4
EXIT_INVARIANT = 5

DEFAULT_SEED = 42
DEFAULT_MC_SAMPLES = 10**6
DEFAULT_TRIALS = 10**4


# ---------------------------------------------------------------------------
# Deterministic JSON writer: fixed key order (insertion), floats at 17
# significant digits, 2-space indentation.
# ---------------------------------------------------------------------------


def _render(value, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        number = float(value)
        if not math.isfinite(number):
            raise ValueError("non-finite float in report")
        return format(number, ".17g")
    if isinstance(value, Fraction):
        return json.dumps(str(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(inner + _render(item, indent + 1) for item in value)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(key))}: {_render(item, indent + 1)}"
            for key, item in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")


def _emit(report: dict, out: str | None):
    text = _render(report, 0) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------


def _load_polynomial(path: str) -> Polynomial:
    """Load a polynomial from a .poly text file or a .json file.

    Text format: first non-blank line ``n=<int>``, remaining lines hold
    one expression.  Any extension other than .json is treated as text.
    """
    with open(path, encoding="utf-8") as handle:
        raw = handle.read()
    if os.path.splitext(path)[1].lower() == ".json":
        return from_json(json.loads(raw))
    lines = [line for line in raw.splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty polynomial file")
    header = lines[0].replace(" ", "")
    if not header.startswith("n="):
        raise ValueError(f"{path}: first line must be 'n=<int>'")
    try:
        arity = int(header[2:])
    except ValueError:
        raise ValueError(f"{path}: invalid arity in header {lines[0]!r}") from None
    return parse_expression(" ".join(lines[1:]), arity)


def _parse_index_set(text: str, arity: int) -> list[int]:
    try:
        indices = sorted({int(part) for part in text.split(",") if part.strip()})
    except ValueError:
        raise ValueError(f"invalid index list {text!r}; expected comma-separated integers") from None
    for index in indices:
        if not 1 <= index <= arity:
            raise ValueError(f"variable index {index} out of range 1..{arity}")
    return indices


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_check(args) -> tuple[dict, int]:
    p = _load_polynomial(args.p)
    symmetric = is_symmetric(unlink.normalize_at_origin(p))
    verdict = structure.qc_falsify(p, args.trials, args.seed)
    ok = symmetric and not verdict.falsified
    report = {
        "command": "check",
        "p": args.p,
        "seed": args.seed,
        "trials": args.trials,
        "symmetric": symmetric,
        "qc": verdict.to_json(),
        "pass": ok,
    }
    return report, EXIT_OK if ok else EXIT_FALSIFIED


def _cmd_invariance(args) -> tuple[dict, int]:
    p = _load_polynomial(args.p)
    constant = p.constant_term()
    normalized = unlink.normalize_at_origin(p)
    space = structure.invariance_subspace(normalized)
    report = {
        "command": "invariance",
        "p": args.p,
        "n": p.arity,
        "normalized": constant != 0,
        "constant_term": str(constant),
        "dimension": space.dimension,
        "basis": space.to_json()["basis"],
    }
    return report, EXIT_OK


def _cmd_concordance(args) -> tuple[dict, int]:
    u = unlink.normalize_at_origin(_load_polynomial(args.u))
    v = unlink.normalize_at_origin(_load_polynomial(args.v))
    report = unlink.concordance(u, v)
    payload = {"command": "concordance", "u": args.u, "v": args.v}
    payload.update(report.to_json())
    return payload, EXIT_OK


def _cmd_cov(args) -> tuple[dict, int]:
    u = _load_polynomial(args.u)
    v = _load_polynomial(args.v)
    exact = gaussmeasure.covariance(u, v)
    report = {
        "command": "cov",
        "u": args.u,
        "v": args.v,
        "cov_exact": str(exact),
    }
    if args.mc:
        report["mc"] = _mc_covariance(u, v, args.mc_samples, args.seed)
    return report, EXIT_OK


def _mc_covariance(u: Polynomial, v: Polynomial, samples: int, seed: int) -> dict:
    su, sv = gaussmeasure.sample_values((u, v), samples, seed)
    # an overflow leaves a non-finite estimate, which the report writer rejects
    with np.errstate(over="ignore", invalid="ignore"):
        centered = (su - su.mean()) * (sv - sv.mean())
        estimate = float(centered.sum() / (samples - 1))
        stderr = float(centered.std(ddof=1) / samples**0.5)
    return {
        "mean": estimate,
        "stderr": stderr,
        "samples": samples,
        "seed": seed,
    }


def _cmd_marginal(args) -> tuple[dict, int]:
    p = _load_polynomial(args.p)
    indices = _parse_index_set(args.marginalize, p.arity)
    result = gaussmeasure.partial_expectation(p, indices)
    report = {
        "command": "marginal",
        "p": args.p,
        "marginalize": indices,
        "result": to_json(result),
        "expression": to_expression(result),
    }
    return report, EXIT_OK


def _cmd_unlink(args) -> tuple[dict, int]:
    u = _load_polynomial(args.u)
    v = _load_polynomial(args.v)
    config = unlink.UnlinkConfig(seed=args.seed, qc_trials=args.trials)
    result = unlink.unlink_decision(u, v, config)
    code = EXIT_COV_NONZERO if result.verdict == unlink.VERDICT_HYPOTHESIS_FAILED else EXIT_OK
    return result.to_json(), code


def _cmd_verify(args) -> tuple[dict, int]:
    directory = Path(args.fixtures)
    paths = sorted(
        path for path in directory.iterdir() if path.suffix.lower() in (".poly", ".json")
    )
    if not paths:
        raise ValueError(f"{directory}: no .poly or .json fixtures found")
    rng = random.Random(args.seed)
    fixtures = []
    loaded: list[tuple[str, Polynomial]] = []
    all_pass = True
    for path in paths:
        p = _load_polynomial(str(path))
        normalized = unlink.normalize_at_origin(p)
        round_trip = parse_expression(to_expression(p), p.arity) == p
        via_parity = is_symmetric(p)
        reflected = Polynomial(
            p.arity, {e: (-c if sum(e) % 2 else c) for e, c in p.terms.items()}
        )
        symmetry_consistent = via_parity == (p - reflected).is_zero
        space = structure.invariance_subspace(normalized)
        basis_rays = all(structure.ray_constant(normalized, vec) for vec in space.basis)
        combos = True
        for _ in range(20):
            if not space.basis:
                break
            coeffs = [Fraction(rng.randint(-9, 9)) for _ in space.basis]
            vec = [
                sum(c * row[i] for c, row in zip(coeffs, space.basis))
                for i in range(p.arity)
            ]
            if not structure.ray_constant(normalized, vec):
                combos = False
                break
        entry_pass = round_trip and symmetry_consistent and basis_rays and combos
        all_pass = all_pass and entry_pass
        fixtures.append(
            {
                "file": path.name,
                "round_trip": round_trip,
                "symmetry_consistent": symmetry_consistent,
                "kernel_rays_constant": basis_rays,
                "combination_rays_constant": combos,
                "pass": entry_pass,
            }
        )
        loaded.append((path.name, normalized))
    pairs = 0
    concordance_symmetric = True
    for (_, a), (_, b) in itertools.combinations(loaded, 2):
        if a.arity != b.arity:
            continue
        pairs += 1
        try:
            unlink.concordance(a, b)
        except unlink.InvariantViolation:
            concordance_symmetric = False
    all_pass = all_pass and concordance_symmetric
    report = {
        "command": "verify",
        "directory": str(directory),
        "seed": args.seed,
        "fixtures": fixtures,
        "pairs_checked": pairs,
        "concordance_symmetric": concordance_symmetric,
        "all_pass": all_pass,
    }
    return report, EXIT_OK if all_pass else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def _default_seed() -> int:
    env = os.environ.get("UNLINK_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"UNLINK_SEED must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def _add_common(sub, *, u=False, v=False, p=False):
    if u:
        sub.add_argument("--u", required=True, help="path to the first polynomial")
    if v:
        sub.add_argument("--v", required=True, help="path to the second polynomial")
    if p:
        sub.add_argument("--p", required=True, help="path to the polynomial")
    sub.add_argument("--seed", type=int, default=None, help="random seed (default: UNLINK_SEED or 42)")
    sub.add_argument("--out", default=None, help="write the report here instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcunlink",
        description="Decision toolkit for unlinking symmetric quasi-convex polynomials "
        "over the standard Gaussian measure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="symmetry and quasi-convexity falsifier")
    _add_common(check, p=True)
    check.add_argument("--trials", type=int, default=DEFAULT_TRIALS)

    invariance = sub.add_parser("invariance", help="basis of the invariance subspace")
    _add_common(invariance, p=True)

    concordance = sub.add_parser("concordance", help="concordance order r and bases")
    _add_common(concordance, u=True, v=True)

    cov = sub.add_parser("cov", help="exact Gaussian covariance")
    _add_common(cov, u=True, v=True)
    cov.add_argument("--mc", action="store_true", help="add a Monte Carlo cross-check")
    cov.add_argument("--mc-samples", type=int, default=DEFAULT_MC_SAMPLES)

    marginal = sub.add_parser("marginal", help="partial Gaussian expectation")
    _add_common(marginal, p=True)
    marginal.add_argument(
        "--marginalize", required=True, help="comma-separated 1-based variable numbers"
    )

    unlink_cmd = sub.add_parser("unlink", help="full unlinking pipeline")
    _add_common(unlink_cmd, u=True, v=True)
    unlink_cmd.add_argument("--trials", type=int, default=DEFAULT_TRIALS)

    verify = sub.add_parser("verify", help="run the property suite over a fixture directory")
    verify.add_argument("fixtures", help="directory of .poly/.json fixtures")
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--out", default=None)

    return parser


_COMMANDS = {
    "check": _cmd_check,
    "invariance": _cmd_invariance,
    "concordance": _cmd_concordance,
    "cov": _cmd_cov,
    "marginal": _cmd_marginal,
    "unlink": _cmd_unlink,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.seed is None:
            args.seed = _default_seed()
        for name in ("seed", "trials", "mc_samples"):
            value = getattr(args, name, None)
            if value is not None and value < 1:
                raise ValueError(f"--{name.replace('_', '-')} must be positive")
        try:
            report, code = _COMMANDS[args.command](args)
        except unlink.HypothesisFalsified as exc:
            report = {
                "error": "hypothesis_falsified",
                "input": exc.which,
                "kind": exc.kind,
                "witness": exc.witness,
                "seed": args.seed,
            }
            code = EXIT_FALSIFIED
        # inside the try: a report that cannot be rendered or written exits 2
        _emit(report, args.out)
    except (PolynomialSyntaxError, ValueError, OSError) as exc:
        print(f"qcunlink: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except unlink.InvariantViolation as exc:
        print(f"qcunlink: internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except Exception:
        traceback.print_exc()
        return EXIT_INVARIANT
    return code
