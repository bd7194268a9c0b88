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

Exit codes: 0 success, 2 usage or input parse error, or a request too
large for memory, 3 a hypothesis was falsified (symmetry or
quasi-convexity; the witness is in the report), 4 the unlink pipeline
found a nonzero exact covariance, 5 internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import random
import sys
import traceback
from fractions import Fraction
from pathlib import Path

from . import gaussmeasure, structure, unlink
from .polyalg import (
    MAX_DIGITS,
    Polynomial,
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
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("non-finite float in report")
        return format(value, ".17g")
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
#
# A command runs with the interpreter's limit on int/str conversion lifted
# (see ``main``), so that exact values are computed and printed in full.
# Every reader of outside text therefore bounds its own integers: no text
# of more than MAX_DIGITS digits reaches int().
# ---------------------------------------------------------------------------


def _is_ascii_number(text: str) -> bool:
    """True for ASCII digits, at most MAX_DIGITS of them: int() also reads
    underscores, signs, spaces and other scripts' digits."""
    return text.isascii() and text.isdigit() and len(text) <= MAX_DIGITS


def _positive_integer(text: str) -> int:
    """An integer flag or UNLINK_SEED.  Raises ``ArgumentTypeError``: argparse prints
    its message as is, but after a ``ValueError`` it quotes the text, of any length."""
    if not _is_ascii_number(text) or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer of at most {MAX_DIGITS} ASCII digits"
        )
    return int(text)


def _json_integer(text: str) -> int:
    digits = len(text.lstrip("-"))
    if digits > MAX_DIGITS:
        raise ValueError(f"JSON integer of {digits} digits exceeds the limit of {MAX_DIGITS}")
    return int(text)


def _load_polynomial(path: str) -> Polynomial:
    """Load a polynomial from a .poly text file or a .json file.

    Text format: first non-blank line ``n=<int>``, remaining lines hold
    one expression.  Any extension other than .json is treated as text.
    Both are read as UTF-8, past a leading byte-order mark if there is one.
    A ``ValueError`` about the content is raised again with the path in
    front; no message quotes the content, which may be of any length.
    """
    try:
        with open(path, encoding="utf-8-sig") as handle:
            raw = handle.read()
        if os.path.splitext(path)[1].lower() == ".json":
            try:
                obj = json.loads(raw, parse_int=_json_integer)
            except RecursionError:
                raise ValueError("JSON nested too deeply") from None
            return from_json(obj)
        lines = [line for line in raw.splitlines() if line.strip()]
        if not lines:
            raise ValueError("empty polynomial file")
        header = lines[0].replace(" ", "")
        if not header.startswith("n="):
            raise ValueError("first line must be 'n=<int>'")
        digits = header[2:].strip()
        if not _is_ascii_number(digits):
            raise ValueError("invalid arity in header")
        return parse_expression(" ".join(lines[1:]), int(digits))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_index_set(text: str, arity: int) -> list[int]:
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not all(_is_ascii_number(part) for part in parts):
        raise ValueError("invalid index list for --marginalize; expected comma-separated integers")
    indices = sorted({int(part) for part in parts})
    if indices and not 1 <= indices[0] <= indices[-1] <= arity:
        raise ValueError(f"--marginalize index out of range 1..{arity}")
    return indices


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_check(args) -> tuple[dict, int]:
    p = _load_polynomial(args.p)
    symmetric = is_symmetric(p)
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
    space = structure.invariance_subspace(p)
    report = {
        "command": "invariance",
        "p": args.p,
        "n": p.arity,
        "normalized": constant != 0,
        "constant_term": constant,
        "dimension": space.dimension,
        "basis": space.to_json()["basis"],
    }
    return report, EXIT_OK


def _cmd_concordance(args) -> tuple[dict, int]:
    report = unlink.concordance(_load_polynomial(args.u), _load_polynomial(args.v))
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
        "cov_exact": exact,
    }
    if args.mc:
        report["mc"] = _mc_covariance(u, v, args.mc_samples, args.seed)
    return report, EXIT_OK


def _mc_covariance(u: Polynomial, v: Polynomial, samples: int, seed: int) -> dict:
    from . import sampling  # numpy loads here, for cov --mc alone
    su, sv = sampling.sample_values((u, v), samples, seed)
    estimate, stderr = sampling.sample_covariance(su, sv)
    sampling._require_finite("Monte Carlo covariance", {"mean": estimate, "stderr": stderr})
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
    result = unlink.unlink_decision(u, v, seed=args.seed, trials=args.trials)
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
    loaded: list[Polynomial] = []
    all_pass = True
    for path in paths:
        p = _load_polynomial(str(path))
        round_trip = parse_expression(to_expression(p), p.arity) == p
        via_parity = is_symmetric(p)
        reflected = Polynomial._from_terms(
            p.arity, {e: (-c if sum(e) % 2 else c) for e, c in p.terms.items()}
        )
        symmetry_consistent = via_parity == (p - reflected).is_zero
        space = structure.invariance_subspace(p)
        basis_rays = all(structure.ray_constant(p, vec) for vec in space.basis)
        combos = True
        for _ in range(20):
            if not space.basis:
                break
            coeffs = [Fraction(rng.randint(-9, 9)) for _ in space.basis]
            vec = [
                sum(c * row[i] for c, row in zip(coeffs, space.basis))
                for i in range(p.arity)
            ]
            if not structure.ray_constant(p, vec):
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
        loaded.append(p)
    pairs = 0
    concordance_symmetric = True
    for a, b in itertools.combinations(loaded, 2):
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
    try:
        return DEFAULT_SEED if env is None else _positive_integer(env)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"UNLINK_SEED: {exc}") from None


def _add_common(sub, *, u=False, v=False, p=False, trials=False):
    if u:
        sub.add_argument("--u", required=True, help="path to the first polynomial")
    if v:
        sub.add_argument("--v", required=True, help="path to the second polynomial")
    if p:
        sub.add_argument("--p", required=True, help="path to the polynomial")
    sub.add_argument("--seed", type=_positive_integer, help="random seed (default: UNLINK_SEED or 42)")
    sub.add_argument("--out", default=None, help="write the report here instead of stdout")
    if trials:
        trials_help = "falsifier trials (default: 10^4)"
        sub.add_argument("--trials", type=_positive_integer, default=DEFAULT_TRIALS, help=trials_help)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Parsing leaves the parser unchanged, and ``--seed``'s fallback to
    UNLINK_SEED is resolved in ``main`` on every call, so one parser
    serves every call of ``main``.
    """
    parser = argparse.ArgumentParser(
        prog="qcunlink",
        description="Decision toolkit for unlinking symmetric quasi-convex polynomials "
        "over the standard Gaussian measure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="symmetry and quasi-convexity falsifier")
    _add_common(check, p=True, trials=True)

    invariance = sub.add_parser("invariance", help="basis of the invariance subspace")
    _add_common(invariance, p=True)

    concordance = sub.add_parser("concordance", help="concordance order r and bases")
    _add_common(concordance, u=True, v=True)

    cov = sub.add_parser("cov", help="exact Gaussian covariance")
    _add_common(cov, u=True, v=True)
    cov.add_argument("--mc", action="store_true", help="add a Monte Carlo cross-check")
    cov.add_argument("--mc-samples", type=_positive_integer, default=DEFAULT_MC_SAMPLES)

    marginal = sub.add_parser("marginal", help="partial Gaussian expectation")
    _add_common(marginal, p=True)
    marginal.add_argument(
        "--marginalize", required=True, help="comma-separated 1-based variable numbers"
    )

    unlink_cmd = sub.add_parser("unlink", help="full unlinking pipeline")
    _add_common(unlink_cmd, u=True, v=True, trials=True)

    verify = sub.add_parser("verify", help="run the property suite over a fixture directory")
    verify.add_argument("fixtures", help="directory of .poly/.json fixtures")
    _add_common(verify)

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


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift the interpreter's limit on int/str conversion, then restore it.

    The limit guards int() on untrusted text; the input readers bound
    their own integers (see "Input loading"), so inside a command it
    would only stop exact values of more than 4300 digits from being
    formed or printed.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.seed is None:
            args.seed = _default_seed()
        with _unlimited_int_digits():
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
    except (ValueError, OSError) as exc:
        print(f"qcunlink: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        # numpy's message quotes the requested size, so none is echoed
        print("qcunlink: error: not enough memory for this command", file=sys.stderr)
        return EXIT_USAGE
    except unlink.InvariantViolation as exc:
        print(f"qcunlink: internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except Exception:
        traceback.print_exc()
        return EXIT_INVARIANT
    return code
