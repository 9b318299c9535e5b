"""The timed process: replays one workload's rounds through `scenefuse.cli.main`.

    python3 bench/worker.py --work DIR --seconds 45 --trace 0 --out results.json

One closed-loop caller: each CLI command starts after the previous one
returns, in this process, with stdout captured.  The manifest's warm-up
rounds run first, untimed; then timed rounds run while the next one is
expected to end within half a round of the time budget, or until the
prepared rounds run out.  Without tracing, SETUP_PROBES fresh-process imports of
`scenefuse.cli` run untimed between rounds, spread over the budget.  With
--trace 1 the budget is halved; the rounds that ran are then replayed with
layer spans installed, their stdout must match the untraced stdout byte
for byte, and the difference in wall time is reported as tracing overhead.

This process runs nothing but the workload's commands, so its peak RSS is
theirs (the import probes are children, outside RUSAGE_SELF); the corpus
and the replay bundle come from the prep process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
from corpus import run_cli

# Fresh-process import probes per run without tracing, for setup_s.  The machine's
# speed drifts over tens of seconds, so the probes are spread evenly over
# the run's time budget rather than taken all at once.
SETUP_PROBES = 10
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import scenefuse.cli; "
    "print(repr(time.perf_counter() - t))"
)


def _sha(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def _decision_line(scene: str | None) -> re.Pattern:
    if scene is None:
        return re.compile(r"No scene detected")
    return re.compile(re.escape(scene.capitalize()) + r"Scene detected \(confidence=\d+\.\d{3}\)")


def check_command(command: dict, code: int, out: str, err: str) -> tuple[int, int]:
    """(attempted, failed) for one command against its ground truth.

    A fuse command is one attempt plus one per expected decision line; each
    decision that differs from the trial's ground truth is one failure.
    Any other command is one attempt, failed unless its stdout matches the
    expected lines and it printed no warnings.
    """
    lines = out.splitlines()
    if "decisions" in command:
        expected = [_decision_line(scene) for scene in command["decisions"]]
        missed = sum(
            1 for pattern, line in zip(expected, lines) if not pattern.fullmatch(line)
        ) + abs(len(expected) - len(lines))
        return 1 + len(expected), int(code != 0 or bool(err)) + missed
    patterns = [re.compile(p) for p in command["lines"]]
    ok = (
        code == 0
        and not err
        and len(patterns) == len(lines)
        and all(p.fullmatch(line) for p, line in zip(patterns, lines))
    )
    return 1, int(not ok)


def _bundle_written(argv: list[str]) -> str | None:
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def run_round(spec: dict, tracer: tracing.Tracer | None = None) -> dict:
    """Run one round's commands in order; return their timings and outputs."""
    for command in spec["commands"]:
        bundle = _bundle_written(command["argv"])
        if bundle is not None:  # train afresh, never merge into an earlier pass's bundle
            Path(bundle).unlink(missing_ok=True)
    walls, stdouts, attempted, failed = [], [], 0, 0
    for command in spec["commands"]:
        argv = command["argv"]
        name = "cli." + "_".join(argv[:2] if argv[0] == "action" else argv[:1])
        start = time.perf_counter()
        if tracer is None:
            code, out, err = run_cli(argv)
        else:
            tracer.command += 1
            with tracer.span(name):
                code, out, err = run_cli(argv)
        walls.append(time.perf_counter() - start)
        stdouts.append(out)
        a, f = check_command(command, code, out, err)
        attempted += a
        failed += f
        if err:
            sys.stderr.write(err)
    return {
        "wall_s": sum(walls),
        "command_s": walls,
        "events": spec["events"],
        "stdout": stdouts,
        "attempted": attempted,
        "failed": failed,
    }


def run_rounds(rounds: list[dict], budget_s: float, tracer=None, between=None) -> list[dict]:
    """Run rounds in order while the next one is expected to end within budget.

    The budget counts round time only.  `between(spent)`, if given, runs
    untimed after each round with the round time spent so far.  The next
    round runs if, taking the median round time so far, it would end less
    than half a round past the budget; so on average a run measures its
    budget, whether its rounds are short or long.
    """
    done: list[dict] = []
    spent = 0.0
    for spec in rounds:
        if done and spent + statistics.median(r["wall_s"] for r in done) / 2 > budget_s:
            break
        done.append(run_round(spec, tracer))
        spent += done[-1]["wall_s"]
        if between is not None:
            between(spent)
    return done


def import_time() -> float:
    """Seconds to import `scenefuse.cli` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, check=True, timeout=60
    )
    return float(done.stdout)


def check_actions(manifest: dict, bundle: str) -> tuple[int, int]:
    """`action predict` must return each scene's paired code."""
    failed = 0
    actions = manifest["recipe"]["actions"]
    for scene, action in actions.items():
        code, out, err = run_cli(["action", "predict", scene, "--bundle", bundle])
        failed += int(code != 0 or bool(err) or out != f"action={action}\n")
    return len(actions), failed


def machine_info() -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in threads},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None, help="where the traced run writes its spans")
    args = parser.parse_args(argv)
    out_path = Path(args.out).resolve()
    spans_path = Path(args.spans).resolve() if args.spans else None
    os.chdir(args.work)
    manifest = json.loads(Path("manifest.json").read_text(encoding="utf-8"))

    budget = args.seconds / 2 if args.trace else args.seconds
    # untimed warm-up rounds on inputs of their own; their outputs are checked
    warm = manifest["warmup"]
    warmed = [run_round(spec) for spec in manifest["rounds"][:warm]]
    timed = manifest["rounds"][warm:]
    setup: list[float] = []

    def probe_setup(spent: float) -> None:
        while len(setup) < SETUP_PROBES and spent >= len(setup) * budget / SETUP_PROBES:
            setup.append(import_time())

    probe = None if args.trace else probe_setup
    if probe is not None:
        probe(0.0)
    done = run_rounds(timed, budget, between=probe)
    if probe is not None:
        probe(float("inf"))  # the rounds ran out before the budget did
    attempted = sum(r["attempted"] for r in warmed + done)
    failed = sum(r["failed"] for r in warmed + done)
    last_bundle = _bundle_written(timed[len(done) - 1]["commands"][-1]["argv"])
    if last_bundle is None:  # the replays read the bundle the prep trained
        last_bundle = "bundle.json"
    else:
        a, f = check_actions(manifest, last_bundle)
        attempted += a
        failed += f
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    stdout_sha = [_sha(out) for r in done for out in r["stdout"]]
    results = {
        "workload": manifest["workload"],
        "seed": manifest["seed"],
        "inputs": manifest["inputs"],
        "machine": machine_info(),
        "rounds": len(done),
        "rounds_prepared": len(timed),
        "warmup_rounds": warm,
        "round_s": [r["wall_s"] for r in done],
        "events_per_round": done[0]["events"],
        "events_per_s": sum(r["events"] for r in done) / sum(r["wall_s"] for r in done),
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "stdout_sha256": stdout_sha,
        "stdout_sha256_all": _sha("".join(stdout_sha)),
        "bundle_sha256": _sha(Path(last_bundle).read_bytes()),
        "bundle_bytes": Path(last_bundle).stat().st_size,
    }

    if args.trace:
        tracer = tracing.Tracer()
        tracing.install_layer_spans(tracer)
        try:
            traced = run_rounds(timed[: len(done)], float("inf"), tracer)
        finally:
            tracer.uninstall()
        same = [t["stdout"] == r["stdout"] for t, r in zip(traced, done)]
        results["traced_stdout_matches"] = all(same)
        results["traced_round_s"] = [t["wall_s"] for t in traced]
        results["trace_overhead_s"] = sum(t["wall_s"] for t in traced) - sum(
            r["wall_s"] for r in done
        )
        results["span_problems"] = tracing.check_nesting(tracer.spans)
        results["spans"] = len(tracer.spans)
        results["layers"] = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in tracing.layer_metrics(tracer).items()
        }
        results["computed"] = ["vision_pipeline.sampled_pixels", "vision_pipeline.distinct_colors"]
        if spans_path is not None:
            spans_path.write_text(json.dumps(tracer.to_json()), encoding="utf-8")

    out_path.write_text(json.dumps(results, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
