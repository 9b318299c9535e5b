"""Scene-to-action mapping learned by a tiny feed-forward network.

Scene labels and action codes are both one-hot encoded over vocabularies
built in first-appearance order.  One hidden layer (default 8 units),
sigmoid activations on both layers, no biases, full-batch gradient descent
on the mean squared output error at a default learning rate of 0.5.
Weights start uniform in [-1, 1] from a seeded generator, so training is
bit-reproducible.  The trace reports the mean absolute output error
sampled every 1000 iterations, starting at iteration 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .errors import UsageError, check_array_size, check_int, check_positive

_TRACE_EVERY = 1000
DEFAULT_ITERATIONS = 100000


@dataclass(frozen=True)
class ActionExample:
    scene_label: str
    action_code: str

    def __post_init__(self) -> None:
        if not self.scene_label or not self.action_code:
            raise UsageError("scene label and action code cannot be empty")


@dataclass(frozen=True, eq=False)
class ActionNet:
    """Trained weights over two vocabularies; the hidden width is their shared axis.

    As after training, each vocabulary is non-empty and lists an entry once.
    """

    scene_vocab: tuple[str, ...]
    action_vocab: tuple[str, ...]
    weights_ih: np.ndarray  # (len(scene_vocab), hidden)
    weights_ho: np.ndarray  # (hidden, len(action_vocab))

    def __post_init__(self) -> None:
        if not (self.scene_vocab and self.action_vocab):
            raise UsageError("scene and action vocabularies cannot be empty")
        for vocab in (self.scene_vocab, self.action_vocab):
            if len(set(vocab)) < len(vocab):
                raise UsageError(f"vocabulary {list(vocab)} repeats an entry")
        if self.weights_ih.ndim != 2 or self.weights_ih.shape[0] != len(self.scene_vocab) or (
            self.weights_ho.shape != (self.weights_ih.shape[1], len(self.action_vocab))
        ):
            raise UsageError("weight shapes disagree with the vocabularies")
        if not (np.isfinite(self.weights_ih).all() and np.isfinite(self.weights_ho).all()):
            raise UsageError("weights must be finite")


def encode_onehot(label: str, vocab: Sequence[str]) -> np.ndarray:
    """One-hot row for `label`; raises UsageError when absent."""
    try:
        index = list(vocab).index(label)
    except ValueError:
        raise UsageError(f"label {label!r} not in vocabulary {list(vocab)}") from None
    row = np.zeros(len(vocab), dtype=np.float64)
    row[index] = 1.0
    return row


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def _forward(
    weights_ih: np.ndarray, weights_ho: np.ndarray, inputs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    hidden = _sigmoid(inputs @ weights_ih)
    return hidden, _sigmoid(hidden @ weights_ho)


def loss_gradients(
    weights_ih: np.ndarray,
    weights_ho: np.ndarray,
    inputs: np.ndarray,
    targets: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of the mean squared output error w.r.t. both weight matrices."""
    hidden, outputs = _forward(weights_ih, weights_ho, inputs)
    d_out = 2.0 * (outputs - targets) / targets.size * outputs * (1.0 - outputs)
    grad_ho = hidden.T @ d_out
    d_hidden = (d_out @ weights_ho.T) * hidden * (1.0 - hidden)
    grad_ih = inputs.T @ d_hidden
    return grad_ih, grad_ho


def train_actions(
    examples: Sequence[ActionExample],
    iterations: int = DEFAULT_ITERATIONS,
    *,
    hidden_size: int = 8,
    learning_rate: float = 0.5,
    seed: int = 0,
) -> tuple[ActionNet, tuple[tuple[int, float], ...]]:
    """Fit the net by full-batch gradient descent; repeats weight the batch.

    Returns the net and the module's error trace as (iteration, error) pairs.

    Raises UsageError for no examples, one scene label mapped to two action
    codes, or a learning rate so large that the weights overflow; the `errors`
    checks refuse bad counts and seeds, and a rate not finite and above 0.
    """
    examples = list(examples)
    if not examples:
        raise UsageError("no scene/action pairs to learn from")
    check_int(iterations, 1, "iterations")
    check_int(hidden_size, 1, "hidden_size")
    check_positive(learning_rate, "learning_rate")
    check_int(seed, 0, "seed")
    seen: dict[str, str] = {}
    for example in examples:
        known = seen.setdefault(example.scene_label, example.action_code)
        if known != example.action_code:
            raise UsageError(
                f"scene {example.scene_label!r} maps to both {known!r} "
                f"and {example.action_code!r}"
            )

    # `seen` lists each scene at its first appearance, with the one action it maps to
    scene_vocab = tuple(seen)
    action_vocab = tuple(dict.fromkeys(seen.values()))
    check_array_size(hidden_size, 8 * max(len(scene_vocab), len(action_vocab)), "hidden_size")
    inputs = np.vstack([encode_onehot(e.scene_label, scene_vocab) for e in examples])
    targets = np.vstack([encode_onehot(e.action_code, action_vocab) for e in examples])

    rng = np.random.default_rng(seed)
    weights_ih = rng.uniform(-1.0, 1.0, (len(scene_vocab), hidden_size))
    weights_ho = rng.uniform(-1.0, 1.0, (hidden_size, len(action_vocab)))

    trace: list[tuple[int, float]] = []
    # a huge learning rate overflows the weights; ActionNet then refuses them
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(iterations):
            if iteration % _TRACE_EVERY == 0:
                _, outputs = _forward(weights_ih, weights_ho, inputs)
                trace.append((iteration, float(np.mean(np.abs(outputs - targets)))))
            grad_ih, grad_ho = loss_gradients(weights_ih, weights_ho, inputs, targets)
            weights_ih -= learning_rate * grad_ih
            weights_ho -= learning_rate * grad_ho

    return ActionNet(scene_vocab, action_vocab, weights_ih, weights_ho), tuple(trace)


def predict_action(net: ActionNet, scene_label: str) -> str:
    """Highest-activation action code for a scene label; UsageError if the net never saw it."""
    row = encode_onehot(scene_label, net.scene_vocab)
    _, outputs = _forward(net.weights_ih, net.weights_ho, row[None, :])
    return net.action_vocab[int(np.argmax(outputs[0]))]


def action_repl(stdin: TextIO, stdout: TextIO, **training) -> ActionNet:
    """Interactive trainer: collect pairs, train, then answer queries.

    Training pairs are read until a blank scene label; the error trace is
    printed, then each queried label gets a prediction until a blank line
    or end of input.  `training` holds `train_actions`' keyword arguments.
    Returns the trained net so callers can persist it.
    """

    def ask(prompt: str) -> str:
        stdout.write(prompt)
        stdout.flush()
        return stdin.readline().strip()

    stdout.write("TRAINING PHASE:\n")
    examples: list[ActionExample] = []
    while True:
        label = ask("Scene label: ")
        if not label:
            break
        code = ask("What action should I take? ")
        if not code:
            break
        examples.append(ActionExample(scene_label=label, action_code=code))
        stdout.write("\n")

    net, trace = train_actions(examples, **training)
    for iteration, error in trace:
        stdout.write(f"output layer error after {iteration} iterations: {error!r}\n")

    stdout.write("\nPREDICTION PHASE:\n")
    while True:
        label = ask("Tell me something: ")
        if not label:
            break
        if label not in net.scene_vocab:
            stdout.write(f"unknown scene label: {label}\n\n")
            continue
        stdout.write("based on your command, here's my action prediction:\n")
        stdout.write(f"[['{predict_action(net, label)}']]\n\n")
    return net
