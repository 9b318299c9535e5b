"""Mutation check: tier-1 must fail when any `raise` becomes `pass` or any operator flips.

Usage: `python tools/mutants.py` (needs numpy, pytest and Hypothesis).

The check works on a temporary copy of src/, tests/, README.md and
pyproject.toml and never writes into the checkout.  It runs tier-1 on the
unmutated copy twice: first as CI runs it, untraced, which must pass; then
traced with `sys.settrace`, only to learn which tests execute each line of
src/scenefuse/.  Tracing slows every test several times over, so a test
with a time bound may fail in that run; its outcome is not checked.  Three
passes of mutants follow, each made one at a time on the decoded source:

  * raise → pass: each `raise` statement (found with `ast`) becomes `pass`;
  * comparison flip: each ordering operator (found with `tokenize`) moves
    its boundary, `<` to `<=`, `<=` to `<`, `>` to `>=` and `>=` to `>`;
  * equality and connective swap: each `==` becomes `!=` and each `!=`
    `==`, each `and` becomes `or` and each `or` `and` (found with
    `tokenize`).

Each mutant runs just the tests that execute its lines, stopping at the
first failure.  A mutant that every covering test passes marks a check or
a comparison that decides nothing; one that no test runs is not checked at
all.  A mutant that changes nothing a program could observe is equivalent:
no test can kill it.  `EQUIVALENT` lists each one with its site and the
reason.  A listed mutant still runs, and must survive: one a test kills
is not equivalent, and an entry that matches no mutant names nothing.

It prints `file:line:col old → new killed|SURVIVED|not run|equivalent` per
mutant, a tally per pass, and each entry of `EQUIVALENT` that matched no
surviving mutant.  It exits 0 when every mutant of the three passes is
killed or a listed equivalent, 1 when any survived unlisted or was not
run or an entry of `EQUIVALENT` is stale, and 2 when the unmutated suite
fails in the copy.  Run by pytest as `-p mutants`, this file is also the
plugin that traces the suite and narrows a run to given tests.
"""

from __future__ import annotations

import ast
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

import pytest

COPIED = ("src", "tests", "README.md", "pyproject.toml")
PACKAGE = Path("src") / "scenefuse"
PYTEST = (sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "mutants")
MUTANT_TIMEOUT_S = 600  # a mutant that makes a test loop forever counts as killed
FLIPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">"}
SWAPS = {"==": "!=", "!=": "==", "and": "or", "or": "and"}

Span = tuple[int, int, int, int]  # line, col, end line, end col; columns count characters
Mutant = tuple[Span, str, str]  # where, the text it starts with, the text that replaces it

# mutants no test can kill: (file, a snippet of the mutated line that holds the mutated
# text once, the text, what replaces it, why the program behaves the same)
EQUIVALENT = (
    (
        "src/scenefuse/clustering.py",
        "(labels == c).tobytes()",
        "==",
        "!=",
        "a distance-memo key names a member set, and a member mask names it as its "
        "complement does; a draw's key is an int, so no mask key meets it either way",
    ),
)

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

def _lines(source: str) -> list[str]:
    """`source` split after each newline only, as `ast` and `tokenize` number lines."""
    return io.StringIO(source).readlines()


def raise_mutants(source: str) -> list[Mutant]:
    """Each `raise` statement, to become `pass`."""
    lines = _lines(source)

    def chars(line: int, col: int) -> int:  # `ast` counts columns in UTF-8 bytes
        return len(lines[line - 1].encode("utf-8")[:col].decode("utf-8"))

    return sorted(
        (
            (node.lineno, chars(node.lineno, node.col_offset),
             node.end_lineno, chars(node.end_lineno, node.end_col_offset)),
            "raise",
            "pass",
        )
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise)
    )


def flip_mutants(source: str) -> list[Mutant]:
    """Each ordering operator, to become its boundary flip."""
    return [
        ((*token.start, *token.end), token.string, FLIPS[token.string])
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.OP and token.string in FLIPS
    ]


def swap_mutants(source: str) -> list[Mutant]:
    """Each `==`, `!=`, `and` and `or`, to become its opposite."""
    return [
        ((*token.start, *token.end), token.string, SWAPS[token.string])
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type in (tokenize.OP, tokenize.NAME) and token.string in SWAPS
    ]


PASSES = (
    ("raise → pass", raise_mutants),
    ("comparison flip", flip_mutants),
    ("equality and connective swap", swap_mutants),
)


def listed_equivalent(path: str, source: str, mutant: Mutant) -> tuple[str, ...] | None:
    """The entry of `EQUIVALENT` that names `mutant` of the file at `path`, if any."""
    (line, col, _, _), old, new = mutant
    text = _lines(source)[line - 1]
    for entry in EQUIVALENT:
        at = text.find(entry[1])
        same_site = Path(entry[0]) == Path(path) and 0 <= at <= col < at + len(entry[1])
        if same_site and entry[2:4] == (old, new):
            return entry
    return None


def mutate(source: str, span: Span, replacement: str) -> str:
    """`source` with the text at `span` replaced by `replacement`."""
    line, col, end_line, end_col = span
    lines = _lines(source)
    lines[line - 1 : end_line] = [lines[line - 1][:col] + replacement + lines[end_line - 1][end_col:]]
    return "".join(lines)


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

        tallies = {}
        matched = set()  # the entries of EQUIVALENT whose mutant survived
        for name, mutants in PASSES:
            tally = tallies[name] = {"killed": 0, "SURVIVED": 0, "not run": 0, "equivalent": 0}
            for module in sorted((copy / PACKAGE).glob("*.py")):
                path = str(module.relative_to(copy))
                original = module.read_bytes()
                source = original.decode("utf-8")
                for span, old, new in mutants(source):
                    entry = listed_equivalent(path, source, (span, old, new))
                    lines = {(path, n) for n in range(span[0], span[2] + 1)}
                    tests = sorted(test for test, hits in trace.items() if lines & hits)
                    if not tests:
                        verdict = "not run"
                    else:
                        selected.write_text(json.dumps(tests), encoding="utf-8")
                        files = sorted({test.split("::")[0] for test in tests})
                        module.write_bytes(mutate(source, span, new).encode("utf-8"))
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
                    if verdict == "SURVIVED" and entry is not None:
                        verdict = "equivalent"
                        matched.add(entry)
                    tally[verdict] += 1
                    print(f"{path}:{span[0]}:{span[1]} {old} → {new} {verdict}", flush=True)

    for name, tally in tallies.items():
        print(f"{name}: " + ", ".join(f"{count} {verdict}" for verdict, count in tally.items()))
    stale = [entry for entry in EQUIVALENT if entry not in matched]
    for path, snippet, old, new, _ in stale:
        print(f"stale EQUIVALENT entry: {path} {snippet!r} {old} → {new}: no mutant survived")
    failed = stale or any(tally["SURVIVED"] or tally["not run"] for tally in tallies.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
