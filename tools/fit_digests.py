"""Digests of every fit, net and `--out` file a run makes: same bits, same lines.

Usage:

    python tools/fit_digests.py ['CLI ARGS' ...]

Each quoted argument is one `scenefuse` command line, split as a shell
would split it and run in turn through `scenefuse.cli.main` in the current
directory.  Every `clustering.fit` call a command makes prints one line:
the command's and the call's number, n, d, k and seed, and the SHA-256 of
the returned centroids, labels and sq and the inertia, or the refusal's
message.  Every `train_actions` call (an `action train` or `action repl`)
prints one too: the command's and the call's number, the pair count and
every training setting, and the SHA-256 of the net's `weights_ih` and
`weights_ho` and of its error trace, or the refusal's message.  Each
command then prints its exit code and the SHA-256 of its stdout and, when
it names a file with `--out`, the SHA-256 of that file as the command left
it, or `absent` if there is none.  So a change that alters what a fit
sees but not what a command writes, such as the matrix `train` hands
`clustering.fit`, shows as changed fit lines beside equal file hashes.
Library fits on their own are checked in tier-1, against the reference
that `tests/oracles.py` writes from `fit`'s docstring.

The program under test is the `src/` of the checkout this file is in.  Run
it in two checkouts on the same inputs and `diff` the outputs: no
difference means every fit and every net kept its bits.  Commands that
write files (a `train --out`, an `action train`) should run in a scratch
directory, once per checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import io
import shlex
import struct
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from scenefuse import action_learning, cli, clustering  # noqa: E402
from scenefuse.errors import UsageError  # noqa: E402


def outcome(call, *args, **kwargs):
    """`call(*args, **kwargs)`, or the UsageError it raised."""
    try:
        return call(*args, **kwargs)
    except UsageError as exc:
        return exc


def digest(points, params, result) -> str:
    """One fit's line: its shape and params, then its result's SHA-256 or its refusal."""
    matrix = np.asarray(points)
    head = f"n={matrix.shape[0]} d={matrix.shape[-1]} k={params.k} seed={params.seed}"
    if isinstance(result, UsageError):
        return f"{head} refused: {result}"
    centroids, labels, sq, inertia = result
    sha = hashlib.sha256()
    for array in (centroids, labels.astype(np.int64), sq):
        sha.update(np.ascontiguousarray(array).tobytes())
    sha.update(struct.pack("<d", inertia))
    return f"{head} {sha.hexdigest()}"


def net_digest(settings: dict, result) -> str:
    """One training's line: its pair count and settings, then its net's SHA-256 or its refusal.

    `settings` holds every argument of the call, defaults too, in order.
    The SHA-256 covers `weights_ih`, `weights_ho` and the error trace.
    """
    (_, examples), *rest = settings.items()
    head = " ".join([f"pairs={len(examples)}"] + [f"{name}={value!r}" for name, value in rest])
    if isinstance(result, UsageError):
        return f"{head} refused: {result}"
    net, trace = result
    sha = hashlib.sha256()
    for array in (net.weights_ih, net.weights_ho):
        sha.update(np.ascontiguousarray(array).tobytes())
    for iteration, error in trace:
        sha.update(struct.pack("<qd", iteration, error))
    return f"{head} {sha.hexdigest()}"


def written(words: list[str]) -> str:
    """` out SHA` for the file named after a command's `--out` word, ` out absent` if none.

    An empty string for a command without an `--out` word.
    """
    if "--out" not in words[:-1]:
        return ""
    path = Path(words[words.index("--out") + 1])
    return f" out {hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else 'absent'}"


def run_commands(commands: list[str]) -> None:
    """Run each command line: a digest line per fit and per net, then its exit code and stdout's."""
    real_fit, real_train = clustering.fit, action_learning.train_actions
    lines: dict[str, list[str]] = {"fit": [], "train": []}

    def recorded_fit(points, params):
        result = outcome(real_fit, points, params)
        lines["fit"].append(digest(points, params, result))
        if isinstance(result, UsageError):
            raise result
        return result

    def recorded_train(*args, **kwargs):
        bound = inspect.signature(real_train).bind(*args, **kwargs)
        bound.apply_defaults()
        result = outcome(real_train, *args, **kwargs)
        lines["train"].append(net_digest(bound.arguments, result))
        if isinstance(result, UsageError):
            raise result
        return result

    # `cli` calls the `train_actions` it imported, `action_repl` its own module's
    sites = (
        (clustering, "fit", real_fit, recorded_fit),
        (action_learning, "train_actions", real_train, recorded_train),
        (cli, "train_actions", real_train, recorded_train),
    )
    for module, name, _, recorder in sites:
        setattr(module, name, recorder)
    try:
        for number, command in enumerate(commands, 1):
            for kind_lines in lines.values():
                kind_lines.clear()
            out, words = io.StringIO(), shlex.split(command)
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli.main(words)
            for kind, kind_lines in lines.items():
                for call, line in enumerate(kind_lines, 1):
                    print(f"command {number} {kind} {call} {line}")
            stdout_sha = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
            print(f"command {number} exit {code} stdout {stdout_sha}{written(words)}")
    finally:
        for module, name, real, _ in sites:
            setattr(module, name, real)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("commands", nargs="*", help="scenefuse command lines, one per argument")
    args = parser.parse_args(argv)
    run_commands(args.commands)
    return 0


if __name__ == "__main__":
    sys.exit(main())
