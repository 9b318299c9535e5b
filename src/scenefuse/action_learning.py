"""Scene-to-action mapping learned by a tiny feed-forward network.

Scene labels and action codes are both one-hot encoded over vocabularies
built in first-appearance order.  One hidden layer (default 8 units),
sigmoid activations on both layers, no biases, full-batch gradient descent
on the mean squared output error at a default learning rate of 0.5.
Weights start uniform in [-1, 1] from a seeded generator, so training is
bit-reproducible.  The trace reports the mean absolute output error
sampled every 1000 iterations, starting at iteration 0.

A training step runs in place: a fixed sequence of NumPy calls writes the
forward pass and both gradients into buffers allocated once per training
call.  Both weight matrices are views of one flat vector and both
gradients views of another, so the update is two calls.  The step
computes each value as the plain expressions would, in the same order,
so its weights and trace keep their bits; `loss_gradients` returns the
gradients of that same step, and `predict_action` runs its forward pass.
Its arrays hold 8 x 8 entries or fewer, so a step costs what its NumPy
calls cost, not their arithmetic: every constant it uses (the clip
bounds, 1, the error's divisor and the learning rate) is a read-only 0-d
float64 array made once, because a ufunc converts a Python float operand
again on every call, and the ufuncs are bound once, positional `out`
wherever the ufunc takes it.  The clipped sigmoid is written inline in
the forward pass, the one place that computes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .errors import UsageError, check_array, check_array_size, check_int, check_positive

_TRACE_EVERY = 1000
DEFAULT_ITERATIONS = 100000


@dataclass(frozen=True)
class ActionExample:
    scene_label: str
    action_code: str

    def __post_init__(self) -> None:
        for name, label in (("scene label", self.scene_label), ("action code", self.action_code)):
            if not (isinstance(label, str) and label):
                got = "an empty str" if isinstance(label, str) else type(label).__name__
                raise UsageError(f"{name} must be a non-empty str, not {got}")


@dataclass(frozen=True, eq=False)
class ActionNet:
    """Trained weights over two vocabularies; the hidden width is their shared axis.

    As after training, each vocabulary is a non-empty tuple of non-empty str
    that lists an entry once, and the hidden layer has at least one unit.
    """

    scene_vocab: tuple[str, ...]
    action_vocab: tuple[str, ...]
    weights_ih: np.ndarray  # (len(scene_vocab), hidden)
    weights_ho: np.ndarray  # (hidden, len(action_vocab))

    def __post_init__(self) -> None:
        for vocab in (self.scene_vocab, self.action_vocab):
            # a str would read as one label per character
            if not (type(vocab) is tuple and all(isinstance(e, str) and e for e in vocab)):
                raise UsageError("a vocabulary must be a tuple of non-empty str")
            if len(set(vocab)) < len(vocab):
                raise UsageError(f"vocabulary {list(vocab)} repeats an entry")
        if not (self.scene_vocab and self.action_vocab):
            raise UsageError("scene and action vocabularies cannot be empty")
        # a hidden width of 0 is an empty axis: every output would be sigmoid(0), argmax the first
        check_array(self.weights_ih, "weights_ih", np.float64, 2)
        check_array(self.weights_ho, "weights_ho", np.float64, 2)
        if self.weights_ih.shape[0] != len(self.scene_vocab) or (
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


def _constant(value) -> np.ndarray:
    """`value` as a read-only 0-d float64 array, a ufunc operand that needs no conversion.

    The dtype is explicit: `np.array(2**70)` would be an object array.
    """
    array = np.array(value, dtype=np.float64)
    array.flags.writeable = False
    return array


_LOW, _HIGH, _ONE = _constant(-60.0), _constant(60.0), _constant(1.0)  # the sigmoid's clip


def _matrices(flat: np.ndarray, first: tuple[int, int], second: tuple[int, int]):
    """Views of `flat` as a `first`-shaped matrix followed by a `second`-shaped one."""
    split = first[0] * first[1]
    return flat[:split].reshape(first), flat[split:].reshape(second)


def _kernel(inputs: np.ndarray, targets: np.ndarray, hidden_size: int):
    """One training call's buffers, allocated once, and the two passes that fill them.

    Returns the flat weight vector, the flat gradient vector (both in the
    `_matrices` layout), the outputs buffer, `forward` and `step`.
    `forward` runs the forward pass from the weights into the outputs;
    `step` runs it, then both gradients of the mean squared output error
    into the gradient vector, in place.
    """
    (rows, scenes), actions = inputs.shape, targets.shape[1]
    params = np.empty(hidden_size * (scenes + actions))
    grads = np.empty_like(params)
    shapes = (scenes, hidden_size), (hidden_size, actions)
    weights_ih, weights_ho = _matrices(params, *shapes)
    grad_ih, grad_ho = _matrices(grads, *shapes)
    # hidden then outputs in one buffer, so one subtraction gives both complements
    layers = np.empty(rows * (hidden_size + actions))
    complements = np.empty_like(layers)
    shapes = (rows, hidden_size), (rows, actions)
    hidden, outputs = _matrices(layers, *shapes)
    hidden_c, outputs_c = _matrices(complements, *shapes)
    d_out = np.empty_like(outputs)
    d_hidden = np.empty_like(hidden)
    inputs_t, hidden_t, weights_ho_t = inputs.T, hidden.T, weights_ho.T
    # 2 * e / size rounds the same real quotient as e / (size / 2)
    half = _constant(targets.size / 2)
    dot, add, subtract, multiply, divide = np.dot, np.add, np.subtract, np.multiply, np.divide
    maximum, minimum, negative, exp = np.maximum, np.minimum, np.negative, np.exp

    def forward() -> None:
        # each layer is 1 / (1 + e^-x) over x clipped to [-60, 60], written out
        # for both, as a loop over the two costs about 2% of a step; NumPy
        # deprecates a positional `out` for np.maximum and np.minimum
        dot(inputs, weights_ih, hidden)
        maximum(hidden, _LOW, out=hidden)
        minimum(hidden, _HIGH, out=hidden)
        negative(hidden, hidden)
        exp(hidden, hidden)
        add(hidden, _ONE, hidden)
        divide(_ONE, hidden, hidden)
        dot(hidden, weights_ho, outputs)
        maximum(outputs, _LOW, out=outputs)
        minimum(outputs, _HIGH, out=outputs)
        negative(outputs, outputs)
        exp(outputs, outputs)
        add(outputs, _ONE, outputs)
        divide(_ONE, outputs, outputs)

    def step() -> None:
        forward()
        subtract(_ONE, layers, complements)
        subtract(outputs, targets, d_out)
        divide(d_out, half, d_out)
        multiply(d_out, outputs, d_out)
        multiply(d_out, outputs_c, d_out)
        dot(hidden_t, d_out, grad_ho)
        dot(d_out, weights_ho_t, d_hidden)
        multiply(d_hidden, hidden, d_hidden)
        multiply(d_hidden, hidden_c, d_hidden)
        dot(inputs_t, d_hidden, grad_ih)

    return params, grads, outputs, forward, step


def loss_gradients(
    weights_ih: np.ndarray,
    weights_ho: np.ndarray,
    inputs: np.ndarray,
    targets: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of the mean squared output error w.r.t. both weight matrices."""
    params, grads, _, _, step = _kernel(inputs, targets, weights_ih.shape[1])
    params[:] = np.concatenate((weights_ih, weights_ho), axis=None)
    step()
    grad_ih, grad_ho = _matrices(grads, weights_ih.shape, weights_ho.shape)
    return grad_ih.copy(), grad_ho.copy()


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

    Raises UsageError for examples that are not a list or tuple of
    ActionExample, no examples, one scene label mapped to two action codes,
    or a learning rate so large that the weights overflow; the `errors`
    checks refuse bad counts and seeds, and a rate not finite and above 0.
    """
    if not (
        isinstance(examples, (list, tuple)) and all(isinstance(e, ActionExample) for e in examples)
    ):
        raise UsageError("examples must be a list or tuple of ActionExample pairs")
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
    # the weight vector holds hidden_size * (scenes + actions) floats, the hidden layer
    # hidden_size * rows
    widths = len(scene_vocab) + len(action_vocab) + len(examples)
    check_array_size(hidden_size, 8 * widths, "hidden_size")
    inputs = np.vstack([encode_onehot(e.scene_label, scene_vocab) for e in examples])
    targets = np.vstack([encode_onehot(e.action_code, action_vocab) for e in examples])

    params, grads, outputs, _, step = _kernel(inputs, targets, hidden_size)
    weights_ih, weights_ho = _matrices(
        params, (len(scene_vocab), hidden_size), (hidden_size, len(action_vocab))
    )
    rng = np.random.default_rng(seed)
    weights_ih[...] = rng.uniform(-1.0, 1.0, weights_ih.shape)
    weights_ho[...] = rng.uniform(-1.0, 1.0, weights_ho.shape)

    rate = _constant(learning_rate)  # float64 even for an int no int64 holds, such as 2**70
    multiply, subtract = np.multiply, np.subtract
    trace: list[tuple[int, float]] = []
    # a huge learning rate overflows the weights; ActionNet then refuses them
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(iterations):
            step()
            if iteration % _TRACE_EVERY == 0:
                trace.append((iteration, float(np.mean(np.abs(outputs - targets)))))
            multiply(grads, rate, grads)
            subtract(params, grads, params)

    return ActionNet(scene_vocab, action_vocab, weights_ih, weights_ho), tuple(trace)


def predict_action(net: ActionNet, scene_label: str) -> str:
    """Highest-activation action code for a scene label; UsageError if the net never saw it."""
    row = encode_onehot(scene_label, net.scene_vocab)
    targets = np.empty((1, len(net.action_vocab)))  # sizes the outputs; the forward pass reads none
    params, _, outputs, forward, _ = _kernel(row[None, :], targets, net.weights_ih.shape[1])
    params[:] = np.concatenate((net.weights_ih, net.weights_ho), axis=None)
    forward()
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
