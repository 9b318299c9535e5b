"""Scene-to-action net: training dynamics, gradients, and the REPL."""

import io
import re

import numpy as np
import pytest

from conftest import SESSION_PAIRS
from oracles import central_difference_gradient, mean_output_error, squared_error_loss
from scenefuse.action_learning import (
    ActionExample,
    action_repl,
    encode_onehot,
    loss_gradients,
    predict_action,
    train_actions,
)
from scenefuse.errors import UsageError


def test_session_pairs_learn_both_mappings(trained_action_session):
    net = trained_action_session.net
    assert predict_action(net, "coffee") == "42"
    assert predict_action(net, "gym") == "10"


def test_error_trace_is_sampled_every_thousand_iterations(trained_action_session):
    trace = trained_action_session.trace
    iterations = [it for it, _ in trace]
    assert iterations == list(range(0, 100_000, 1000))
    errors = [err for _, err in trace]
    assert all(err >= 0.0 for err in errors)
    assert all(later < errors[0] for later in errors[1:])
    assert errors[-1] < 0.01


def test_final_model_error_is_small(trained_action_session):
    final = mean_output_error(
        trained_action_session.net, trained_action_session.examples
    )
    assert final < 0.01


def test_training_is_deterministic_per_seed():
    pairs = [ActionExample("a", "1"), ActionExample("b", "2")]
    n1, t1 = train_actions(pairs, iterations=500, seed=3)
    n2, t2 = train_actions(pairs, iterations=500, seed=3)
    n3, _ = train_actions(pairs, iterations=500, seed=4)
    assert np.array_equal(n1.weights_ih, n2.weights_ih)
    assert np.array_equal(n1.weights_ho, n2.weights_ho)
    assert t1 == t2
    assert not np.array_equal(n1.weights_ih, n3.weights_ih)


def test_vocabularies_keep_first_appearance_order():
    net, _ = train_actions(
        [ActionExample(s, a) for s, a in SESSION_PAIRS], iterations=10
    )
    assert net.scene_vocab == ("coffee", "gym")
    assert net.action_vocab == ("42", "10")


def test_repeated_examples_weight_the_batch():
    # coffee appears six times to gym's once; both must still train, and the
    # duplicated rows stay in the batch rather than being deduplicated
    pairs = [ActionExample("coffee", "42")] * 6 + [ActionExample("gym", "10")]
    net, _ = train_actions(pairs, iterations=20_000)
    assert predict_action(net, "coffee") == "42"
    assert predict_action(net, "gym") == "10"


def test_conflicting_pairs_are_rejected():
    with pytest.raises(UsageError, match="scene 'coffee' maps to both '42' and '17'"):
        train_actions(
            [ActionExample("coffee", "42"), ActionExample("coffee", "17")],
            iterations=10,
        )


def test_empty_training_set_is_rejected():
    with pytest.raises(UsageError, match="no scene/action pairs to learn from"):
        train_actions([], iterations=10)
    with pytest.raises(UsageError):
        train_actions([ActionExample("a", "1")], iterations=0)
    with pytest.raises(UsageError):
        train_actions([ActionExample("a", "1")], iterations=10, hidden_size=0)
    net, _ = train_actions([ActionExample("a", "1")], iterations=10, hidden_size=1)
    assert net.weights_ih.shape == (1, 1)
    with pytest.raises(UsageError):
        ActionExample("", "1")
    for rate in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(UsageError):
            train_actions([ActionExample("a", "1")], iterations=10, learning_rate=rate)
    with pytest.raises(UsageError), np.errstate(all="ignore"):  # the weights overflow
        train_actions(
            [ActionExample("a", "1"), ActionExample("b", "2")], iterations=50, learning_rate=1e308
        )


def test_unknown_labels_are_rejected():
    net, _ = train_actions([ActionExample("a", "1"), ActionExample("b", "2")], iterations=10)
    with pytest.raises(UsageError, match="not in vocabulary"):
        predict_action(net, "z")
    with pytest.raises(UsageError, match="not in vocabulary"):
        encode_onehot("z", net.scene_vocab)


def test_onehot_rows():
    assert encode_onehot("b", ("a", "b", "c")).tolist() == [0.0, 1.0, 0.0]


def test_analytic_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    inputs = np.eye(2)[np.array([0, 1, 0])]
    targets = np.eye(2)[np.array([1, 0, 1])]
    weights_ih = rng.uniform(-1.0, 1.0, (2, 4))
    weights_ho = rng.uniform(-1.0, 1.0, (4, 2))

    grad_ih, grad_ho = loss_gradients(weights_ih, weights_ho, inputs, targets)
    loss = lambda: squared_error_loss(weights_ih, weights_ho, inputs, targets)
    fd_ih = central_difference_gradient(loss, weights_ih)
    fd_ho = central_difference_gradient(loss, weights_ho)

    for analytic, numeric in ((grad_ih, fd_ih), (grad_ho, fd_ho)):
        denom = np.maximum(np.abs(numeric), 1e-8)
        assert float(np.max(np.abs(analytic - numeric) / denom)) < 1e-5


def test_gradient_descent_reduces_the_loss():
    pairs = [ActionExample("a", "1"), ActionExample("b", "2")]
    _, short = train_actions(pairs, iterations=1, seed=0)
    net, long = train_actions(pairs, iterations=5000, seed=0)
    assert mean_output_error(net, pairs) < short[0][1]


# --- interactive trainer ----------------------------------------------------

def _run_repl(script: str, iterations: int = 2000):
    stdout = io.StringIO()
    net = action_repl(io.StringIO(script), stdout, iterations=iterations)
    return net, stdout.getvalue()


def test_repl_full_session_transcript():
    script = "coffee\n42\ngym\n10\n\ncoffee\ngym\n\n"
    net, transcript = _run_repl(script)

    assert transcript.startswith("TRAINING PHASE:\n")
    assert "PREDICTION PHASE:" in transcript
    assert transcript.count("Scene label: ") == 3  # two pairs plus the blank
    assert transcript.count("What action should I take? ") == 2
    assert transcript.count("Tell me something: ") == 3

    error_lines = re.findall(
        r"output layer error after (\d+) iterations: (0\.\d+)", transcript
    )
    assert [int(it) for it, _ in error_lines] == [0, 1000]
    assert float(error_lines[1][1]) < float(error_lines[0][1])

    assert "based on your command, here's my action prediction:\n[['42']]\n" in transcript
    assert "[['10']]\n" in transcript
    assert predict_action(net, "coffee") == "42"


def test_repl_reports_unknown_labels_and_recovers():
    script = "coffee\n42\ngym\n10\n\nbeach\ncoffee\n\n"
    _, transcript = _run_repl(script)
    assert "unknown scene label: beach" in transcript
    assert "[['42']]" in transcript  # the session continued after the miss


def test_repl_with_no_training_pairs_raises():
    with pytest.raises(UsageError, match="no scene/action pairs to learn from"):
        _run_repl("\n")


def test_repl_stops_cleanly_at_end_of_input():
    # input ends right after training with no prediction queries at all
    script = "coffee\n42\n\n"
    net, transcript = _run_repl(script)
    assert "PREDICTION PHASE:" in transcript
    assert predict_action(net, "coffee") == "42"
