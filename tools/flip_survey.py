"""Comparison-flip mutation survey of one source file.

    python tools/flip_survey.py src/cauchycert/certificates.py [TEST_FILE ...]

Flips one ``<``/``<=`` or ``>``/``>=`` at a time (``<`` becomes ``<=`` and
back), runs the given test files (by default the certificate, golden,
acceptance and CLI tests) on a copy of ``src`` and ``tests`` in a temporary
directory, and prints one line per mutant: ``killed`` or ``SURVIVED`` with the
line of the flipped comparison.  The repository itself is never edited.
Hypothesis runs with a fixed seed, so a run is reproducible.  Exits 1 when
any mutant survives.
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


def mutants(source: str):
    """(line, flipped source) for each flippable comparison operator."""
    count = sum(type(op) in FLIP for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Compare) for op in node.ops)
    for i in range(count):
        tree = ast.parse(source)
        ops = [(node, j) for node in ast.walk(tree) if isinstance(node, ast.Compare)
               for j, op in enumerate(node.ops) if type(op) in FLIP]
        node, j = ops[i]
        node.ops[j] = FLIP[type(node.ops[j])]()
        yield node.lineno, ast.unparse(tree)


def main(target: str, *tests: str) -> int:
    repo = Path(__file__).resolve().parent.parent
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("src", "tests", "pyproject.toml"):
            copy = shutil.copytree if (repo / name).is_dir() else shutil.copy
            copy(repo / name, Path(tmp) / name)
        original = (repo / target).read_text()
        for line, mutated in mutants(original):
            (Path(tmp) / target).write_text(mutated)
            run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                                  "--hypothesis-seed=0", *(tests or DEFAULT_TESTS)],
                                 cwd=tmp, capture_output=True)
            survivors += run.returncode == 0
            print(f"{target}:{line}: {'SURVIVED' if run.returncode == 0 else 'killed'}", flush=True)
        (Path(tmp) / target).write_text(original)
    print(f"{survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
