"""Mutation check for the refusals: tier-1 must fail when any `raise` is replaced by `pass`.

Usage: `python tools/mutants.py` (needs numpy, pytest and Hypothesis).

The check works on a temporary copy of src/, tests/, README.md and
pyproject.toml and never writes into the checkout.  It runs tier-1 on the
unmutated copy twice: first as CI runs it, untraced, which must pass; then
traced with `sys.settrace`, only to learn which tests execute each `raise`
statement of src/scenefuse/ (found with `ast`).  Tracing slows every test
several times over, so a test with a time bound may fail in that run; its
outcome is not checked.  Then, for one `raise` at a time, it swaps in
`pass` and runs just the tests that execute it, stopping at the first
failure.  A mutant that every covering test passes marks a check that
decides nothing; a `raise` that no test runs is not checked at all.

It prints `file:line killed|SURVIVED|not run` per `raise` and exits 0 when
every mutant is killed, 1 when any survived or was not run, and 2 when the
unmutated suite fails in the copy.  Run by pytest as `-p mutants`, this file
is also the plugin that traces the suite and narrows a run to given tests.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

COPIED = ("src", "tests", "README.md", "pyproject.toml")
PACKAGE = Path("src") / "scenefuse"
PYTEST = (sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "mutants")
MUTANT_TIMEOUT_S = 600  # a mutant that makes a test loop forever counts as killed

# --- the pytest plugin -------------------------------------------------------

_TRACE_OUT = os.environ.get("MUTANTS_TRACE_OUT")  # write each test's executed package lines here
_SELECTED = os.environ.get("MUTANTS_SELECTED")  # run only the node ids listed in this file
_lines_by_test: dict[str, set[tuple[str, int]]] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    if not _TRACE_OUT:
        yield
        return
    package = str(Path(PACKAGE).resolve())
    lines = _lines_by_test.setdefault(item.nodeid, set())

    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):  # fixtures and test body alike
        return local if frame.f_code.co_filename.startswith(package) else None

    sys.settrace(calls)
    try:
        yield
    finally:
        sys.settrace(None)


def pytest_sessionfinish(session):
    if _TRACE_OUT:
        root = Path.cwd().resolve()
        by_test = {
            test: sorted([str(Path(f).relative_to(root)), line] for f, line in lines)
            for test, lines in _lines_by_test.items()
        }
        Path(_TRACE_OUT).write_text(json.dumps(by_test), encoding="utf-8")


def pytest_collection_modifyitems(config, items):
    if _SELECTED:
        wanted = set(json.loads(Path(_SELECTED).read_text(encoding="utf-8")))
        items[:] = [item for item in items if item.nodeid in wanted]


# --- the driver --------------------------------------------------------------

def raise_spans(source: bytes) -> list[tuple[int, int, int, int]]:
    """(line, col, end line, end col) of each `raise`; `ast` gives columns as UTF-8 byte offsets."""
    return sorted(
        (node.lineno, node.col_offset, node.end_lineno, node.end_col_offset)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise)
    )


def mutate(source: bytes, span: tuple[int, int, int, int]) -> bytes:
    """`source` with the `raise` statement at `span` replaced by `pass`."""
    line, col, end_line, end_col = span
    lines = source.splitlines(keepends=True)
    lines[line - 1 : end_line] = [lines[line - 1][:col] + b"pass" + lines[end_line - 1][end_col:]]
    return b"".join(lines)


def main() -> int:
    checkout = Path(__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp).resolve()
        for name in COPIED:
            source = checkout / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, copy / name)
        shutil.copy2(__file__, copy / "mutants.py")
        # no bytecode cache: a mutant of the same size and mtime as the last could reuse its .pyc
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(copy / "src"), str(copy)]))
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        trace_out = copy / "trace.json"
        selected = copy / "selected.json"

        unmutated = subprocess.run(PYTEST, cwd=copy, env=env, capture_output=True, text=True)
        if unmutated.returncode != 0:
            print(unmutated.stdout[-3000:] + unmutated.stderr[-3000:])
            print("tier-1 fails on the unmutated copy; no mutant was run")
            return 2
        subprocess.run(
            PYTEST, cwd=copy, env=dict(env, MUTANTS_TRACE_OUT=str(trace_out)), capture_output=True
        )
        trace = {
            test: {tuple(hit) for hit in hits}
            for test, hits in json.loads(trace_out.read_text(encoding="utf-8")).items()
        }

        tally = {"killed": 0, "SURVIVED": 0, "not run": 0}
        for module in sorted((copy / PACKAGE).glob("*.py")):
            path = str(module.relative_to(copy))
            original = module.read_bytes()
            for span in raise_spans(original):
                lines = {(path, n) for n in range(span[0], span[2] + 1)}
                tests = sorted(test for test, hits in trace.items() if lines & hits)
                if not tests:
                    verdict = "not run"
                else:
                    selected.write_text(json.dumps(tests), encoding="utf-8")
                    files = sorted({test.split("::")[0] for test in tests})
                    module.write_bytes(mutate(original, span))
                    try:
                        run = subprocess.run(
                            PYTEST + ("-x", *files), cwd=copy,
                            env=dict(env, MUTANTS_SELECTED=str(selected)),
                            capture_output=True, timeout=MUTANT_TIMEOUT_S,
                        )
                        verdict = "killed" if run.returncode != 0 else "SURVIVED"
                    except subprocess.TimeoutExpired:
                        verdict = "killed"
                    finally:
                        module.write_bytes(original)
                tally[verdict] += 1
                print(f"{path}:{span[0]} {verdict}", flush=True)

    print(", ".join(f"{count} {verdict}" for verdict, count in tally.items()))
    return 1 if tally["SURVIVED"] or tally["not run"] else 0


if __name__ == "__main__":
    sys.exit(main())
