"""Golden digests of the CLI reports over ``tests/fixtures/``.

Each entry pins the exit code and the sha256 of stdout for one
invocation: ``check``, ``invariance`` and ``marginal`` on every fixture,
``concordance``, exact ``cov`` and ``unlink`` on every ordered pair.
Paths are passed relative to ``tests/`` so the digests do not depend on
where the checkout lives.  ``cov --mc`` is left out: its floats come
from numpy summation, whose rounding may differ between numpy builds.

After a change that is meant to alter reports, regenerate with
``PYTHONPATH=src python tests/test_reports.py``.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
from pathlib import Path

from qcunlink.cli import main

HERE = Path(__file__).parent
GOLDEN = HERE / "golden" / "reports.json"
FIXTURES = sorted(
    path.name for path in (HERE / "fixtures").iterdir() if path.suffix in (".poly", ".json")
)


def invocations():
    for name in FIXTURES:
        path = f"fixtures/{name}"
        yield ["check", "--p", path, "--seed", "42"]
        yield ["invariance", "--p", path, "--seed", "42"]
        yield ["marginal", "--p", path, "--marginalize", "1", "--seed", "42"]
    for first, second in itertools.product(FIXTURES, repeat=2):
        pair = ["--u", f"fixtures/{first}", "--v", f"fixtures/{second}", "--seed", "42"]
        yield ["concordance", *pair]
        yield ["cov", *pair]
        yield ["unlink", *pair, "--trials", "1000"]


def digests() -> dict:
    """Exit code and stdout digest of every invocation, run from ``tests/``."""
    out = {}
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        for argv in invocations():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            digest = hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()
            out[" ".join(argv)] = {"exit": code, "sha256": digest}
    finally:
        os.chdir(cwd)
    return out


def test_reports_match_golden_digests():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    current = digests()
    assert sorted(current) == sorted(golden)
    assert [key for key in golden if current[key] != golden[key]] == []


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
