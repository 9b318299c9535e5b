"""Tests of the benchmark itself (stdlib unittest, no plugins).

    PYTHONPATH=src python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import os
import tempfile
import unittest
from pathlib import Path

import corpus
import tracing
import worker

BENCH = Path(__file__).resolve().parent


def _files(root: Path) -> dict[str, bytes]:
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return {str(p.relative_to(root)): p.read_bytes() for p in files}


class InDir:
    """Run a block with a fresh directory under bench/_work as the cwd."""

    def __enter__(self) -> Path:
        (BENCH / "_work").mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=BENCH / "_work")
        self._old = os.getcwd()
        os.chdir(self._tmp.name)
        return Path(self._tmp.name)

    def __exit__(self, *exc) -> None:
        os.chdir(self._old)
        self._tmp.cleanup()


class CorpusTest(unittest.TestCase):
    def _build(self, workload: str, seed: int) -> dict[str, bytes]:
        with InDir() as root:
            corpus.build(workload, seed, 1, root)
            return _files(root)

    def test_same_seed_gives_byte_identical_corpus(self):
        for workload in corpus.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self._build(workload, 7), self._build(workload, 7))

    def test_other_seed_gives_other_corpus(self):
        first, second = self._build("replay_photo", 7), self._build("replay_photo", 8)
        self.assertEqual(first.keys(), second.keys())
        self.assertTrue(all(first[name] != second[name] for name in first if name.endswith(".ppm")))

    def test_no_input_repeats(self):
        files = self._build("replay_audio", 3)
        inputs = [data for name, data in files.items() if name.endswith((".wav", ".ppm"))]
        self.assertEqual(len(set(inputs)), len(inputs))


class TracedRunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.dir = InDir()
        root = cls.dir.__enter__()
        cls.manifest = corpus.prepare("replay_audio", 5, 1, root)
        cls.untraced = worker.run_rounds(cls.manifest["rounds"], float("inf"))
        from scenefuse import cli, clustering

        cls.before = {(cli, name): getattr(cli, name) for name in tracing.CLI_BOUNDARIES}
        for name in ("fit", "predict"):
            cls.before[(clustering, name)] = getattr(clustering, name)
        cls.tracer = tracing.Tracer()
        tracing.install_layer_spans(cls.tracer)
        try:
            cls.traced = worker.run_rounds(cls.manifest["rounds"], float("inf"), cls.tracer)
        finally:
            cls.tracer.uninstall()

    @classmethod
    def tearDownClass(cls):
        cls.dir.__exit__(None, None, None)

    def test_outputs_are_correct_and_unchanged_by_tracing(self):
        self.assertEqual(sum(r["failed"] for r in self.untraced), 0)
        self.assertEqual([r["stdout"] for r in self.traced], [r["stdout"] for r in self.untraced])

    def test_spans_nest_and_self_times_are_not_negative(self):
        self.assertGreater(len(self.tracer.spans), 0)
        self.assertEqual(tracing.check_nesting(self.tracer.spans), [])
        self.assertTrue(all(t >= -1e-9 for t in tracing.self_times(self.tracer.spans)))

    def test_nesting_check_catches_an_escaping_child(self):
        spans = [[0, "cli.fuse", 0.0, 1.0, None, 0], [1, "clustering.fit", 0.5, 1.5, 0, 0]]
        self.assertTrue(tracing.check_nesting(spans))

    def test_every_layer_metric_is_reported(self):
        metrics = tracing.layer_metrics(self.tracer)
        self.assertGreater(metrics["clustering.fit.calls"][0], 0)
        self.assertGreater(metrics["clustering.predict.calls"][0], 0)
        self.assertEqual(metrics["fusion.anchor_decided_share"][0], 1 / corpus.ANCHORS_PER_TRIAL)
        self.assertTrue(all(value >= 0.0 for value, _ in metrics.values()))

    def test_wrappers_are_removed_after_the_traced_run(self):
        for (module, name), original in self.before.items():
            self.assertIs(getattr(module, name), original, name)
            self.assertFalse(hasattr(original, "__wrapped__"), name)


if __name__ == "__main__":
    unittest.main()
