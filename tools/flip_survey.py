"""Comparison-flip mutation survey of one source file.

    python tools/flip_survey.py src/cauchycert/certificates.py [TEST_FILE ...]

Flips one ``<``/``<=`` or ``>``/``>=`` at a time (``<`` becomes ``<=`` and
back), runs the given test files (by default the certificate, golden,
acceptance and CLI tests) on a copy of ``src`` and ``tests`` in a temporary
directory, and prints one line per mutant with the line of the flipped
comparison: ``killed``, ``SURVIVED``, ``equivalent`` or ``STALE MARKER``.

A flip that cannot change a result is marked in the source: a comment holding
``flip-equivalent:`` and the argument, on the comparison's lines or in the
comment block just above them.  A marked mutant that survives is
``equivalent``; one that a test kills is ``STALE MARKER``, since the argument
no longer describes the code.  The repository itself is never edited.
Hypothesis runs with a fixed seed, so a run is reproducible.  Exits 1 on any
unmarked survivor or stale marker.
"""

from __future__ import annotations

import ast
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

FLIP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
DEFAULT_TESTS = ["tests/test_certificates.py", "tests/test_golden.py",
                 "tests/test_acceptance.py", "tests/test_cli.py"]


MARKER = "flip-equivalent:"


def _marked(lines: list[str], node: ast.Compare) -> bool:
    """Whether the comparison's lines, or the comment lines just above them, hold MARKER."""
    start = node.lineno - 1
    while start > 0 and lines[start - 1].lstrip().startswith("#"):
        start -= 1
    return any(MARKER in line for line in lines[start : node.end_lineno])


def mutants(source: str):
    """(line, marked, flipped source) for each flippable comparison operator."""
    lines = source.splitlines()
    count = sum(type(op) in FLIP for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Compare) for op in node.ops)
    for i in range(count):
        tree = ast.parse(source)
        ops = [(node, j) for node in ast.walk(tree) if isinstance(node, ast.Compare)
               for j, op in enumerate(node.ops) if type(op) in FLIP]
        node, j = ops[i]
        node.ops[j] = FLIP[type(node.ops[j])]()
        yield node.lineno, _marked(lines, node), ast.unparse(tree)


def main(target: str, *tests: str) -> int:
    repo = Path(__file__).resolve().parent.parent
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("src", "tests", "pyproject.toml"):
            copy = shutil.copytree if (repo / name).is_dir() else shutil.copy
            copy(repo / name, Path(tmp) / name)
        original = (repo / target).read_text()
        for line, marked, mutated in mutants(original):
            (Path(tmp) / target).write_text(mutated)
            run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                                  "--hypothesis-seed=0", *(tests or DEFAULT_TESTS)],
                                 cwd=tmp, capture_output=True)
            survived = run.returncode == 0
            failures += survived != marked
            verdict = {(False, False): "killed", (True, False): "SURVIVED",
                       (True, True): "equivalent", (False, True): "STALE MARKER"}[survived, marked]
            print(f"{target}:{line}: {verdict}", flush=True)
        (Path(tmp) / target).write_text(original)
    print(f"{failures} unmarked survivors or stale markers")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
