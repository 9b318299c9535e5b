"""The scenefuse benchmark: one command, one workload, one seeded run.

    python3 bench/run.py --workload replay_photo --seed 1 --seconds 45 --trace 0

Run from a checkout of the repository; the program under test is
`src/scenefuse`, imported from source.  A run starts two processes in
turn, the second after the first has ended:

1. the prep process (`corpus.py`), which writes the seeded corpus and, for
   the replays, trains their bundle untimed;
2. the timed process (`worker.py`), which replays the workload through
   `scenefuse.cli.main`, checks every output against ground truth and,
   between rounds, starts the fresh interpreters that time `setup_s`.

End-to-end metrics (--trace 0):
  setup_s       median import time of `scenefuse.cli` in a fresh process,
                over probes spread across the run
  events_per_s  input events per second of CLI wall time, all timed rounds
                of the run together: script events of the `fuse` commands
                on the replays, training examples (clips, photos, pairs) of
                the three training commands on `train`
  peak_rss_mb   ru_maxrss of the timed process
With --trace 1 the last line carries the per-layer metrics of a traced
replay of the same rounds instead.  The lines before it are a readable
report (failed_share, and train_s on `train`); the full results (input
properties, machine info, stdout and bundle SHA-256s, spans) go to
bench/_results/.  The exit code is 0 only when every output was correct.

BENCHMARK.json lists `replay_photo` and `train`.  `replay_audio`, the
control on which a photo-path change should change nothing, runs by hand
with the same command.  It is left out of the listed set because the
full set of repeated runs must stay within a fixed time, and on a small
shared machine a run needs about 45 s to be steady.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("replay_photo", "replay_audio", "train")
# About the fastest a round ran at the commit that defined the benchmark on
# a 2-core x86_64 box (replay_photo rounds took 1.5-3 s there); the prep
# writes enough rounds to fill --seconds at that speed, so a program up to
# about twice as fast still fills a run.  Running out only ends it early.
NOMINAL_ROUND_S = {"replay_photo": 1.5, "replay_audio": 0.35, "train": 8.0}
CHILD_TIMEOUT_S = 170


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    # numpy's BLAS may use at most the cores this process may run on
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, nproc)
    return env


def _run(argv: list[str], env: dict, cwd: Path = ROOT) -> str:
    done = subprocess.run(
        argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"{Path(argv[1]).name} exited with {done.returncode}")
    return done.stdout


def report(results: dict, trace: int) -> tuple[dict, list[str]]:
    """The metrics object and readable lines for the final output."""
    lines = [
        f"workload {results['workload']} seed {results['seed']}: "
        f"{results['rounds']} rounds of {results['events_per_round']} events "
        f"({results['rounds_prepared']} prepared)",
        f"inputs {json.dumps(results['inputs'], sort_keys=True)}",
        f"stdout sha256 {results['stdout_sha256_all']}",
        f"bundle {results['bundle_bytes']} bytes, sha256 {results['bundle_sha256']}",
        f"failed_share {results['failed'] / results['attempted']!r} ratio "
        f"({results['failed']} failed of {results['attempted']} attempted)",
    ]
    if trace:
        lines.append(
            f"traced stdout matches untraced: {results['traced_stdout_matches']}; "
            f"tracing overhead {results['trace_overhead_s']:.4f} s over {results['spans']} spans"
        )
        lines += [
            f"  {name} = {m['value']!r} {m['unit']}"
            + (" (computed from inputs)" if name in results["computed"] else "")
            for name, m in results["layers"].items()
        ]
        return results["layers"], lines

    metrics = {
        "setup_s": {"value": statistics.median(results["setup_s"]), "unit": "s"},
        "events_per_s": {"value": results["events_per_s"], "unit": "1/s"},
        "peak_rss_mb": {"value": results["peak_rss_mb"], "unit": "MB"},
    }
    if results["workload"] == "train":
        train_s = statistics.median(results["round_s"])
        lines.append(f"train_s {train_s!r} s (the three training commands, median round)")
    lines += [f"{name} {m['value']!r} {m['unit']}" for name, m in metrics.items()]
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "scenefuse" / "cli.py").is_file():
        print(f"error: no scenefuse sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    env = _child_env()
    work = BENCH / "_work" / args.workload
    out_dir = BENCH / "_results"
    shutil.rmtree(work, ignore_errors=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{args.workload}-trace{args.trace}"
    try:
        rounds = int(args.seconds / NOMINAL_ROUND_S[args.workload]) + 2
        prep_start = time.perf_counter()
        _run(
            [sys.executable, str(BENCH / "corpus.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--rounds", str(rounds), "--out", str(work)],
            env,
        )
        prep_s = time.perf_counter() - prep_start
        worker = [
            sys.executable, str(BENCH / "worker.py"), "--work", str(work),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", f"{stem}.json",
        ]
        if args.trace:
            worker += ["--spans", str(out_dir / f"{args.workload}-spans.json")]
        _run(worker, env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = json.loads(Path(f"{stem}.json").read_text(encoding="utf-8"))
    results["prep_s"] = prep_s
    Path(f"{stem}.json").write_text(json.dumps(results, indent=1), encoding="utf-8")

    correct = results["failed"] == 0 and (
        not args.trace or (results["traced_stdout_matches"] and not results["span_problems"])
    )
    metrics, lines = report(results, args.trace)
    for line in lines:
        print(line)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": results["attempted"],
                "failed": results["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
