"""Scene-to-action net: training dynamics, gradients, and the REPL."""

import io
import re

import numpy as np
import pytest

from conftest import SESSION_PAIRS
from oracles import (
    central_difference_gradient,
    mean_output_error,
    reference_training,
    squared_error_loss,
)
from scenefuse.action_learning import (
    ActionExample,
    ActionNet,
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


def test_examples_must_be_a_list_or_tuple_of_pairs():
    message = "examples must be a list or tuple of ActionExample pairs"
    pair = ActionExample("a", "1")
    for examples in (None, "ab", ["ab"], [("a", "1")], pair, iter([pair]), [pair, None]):
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            train_actions(examples, iterations=10)
    train_actions((pair,), iterations=10)


# (scene, action) pair sets: repeats, shuffled repeats, a single pair, more scenes than
# actions, and eight scenes to eight actions, whose one-hot inputs are the identity, as
# in the benchmark's `action train`
TRAINING_SETS = {
    "repeated": [("coffee", "42")] * 6 + [("gym", "10")],
    "shuffled": [("c", "3"), ("a", "1"), ("b", "2"), ("a", "1"), ("c", "3"), ("b", "2")],
    "single": [("a", "1")],
    "more_scenes": [("a", "1"), ("b", "2"), ("c", "1"), ("d", "2"), ("e", "1")],
    "one_to_one": [(scene, str(code)) for code, scene in enumerate("efghabcd")],
}


@pytest.mark.parametrize("name", TRAINING_SETS)
def test_training_keeps_the_bits_of_the_reference_trainer(name):
    pairs = TRAINING_SETS[name]
    examples = [ActionExample(scene, action) for scene, action in pairs]
    # a Latin square: each width and each rate meets every step count once; 1 and 1001
    # steps end on a trace sample (steps 0 and 1000), 1234 between samples
    settings = [
        (hidden_size, rate, (1, 1001, 1234)[(i + j) % 3])
        for i, hidden_size in enumerate((1, 8, 22))
        for j, rate in enumerate((0.05, 0.5, 3.0))
    ]
    for hidden_size, rate, iterations in settings:
        net, trace = train_actions(
            examples, iterations, hidden_size=hidden_size, learning_rate=rate, seed=7
        )
        weights_ih, weights_ho, expected = reference_training(
            pairs, iterations, hidden_size, rate, seed=7
        )
        case = (hidden_size, rate, iterations)
        assert net.weights_ih.tobytes() == weights_ih.tobytes(), case
        assert net.weights_ho.tobytes() == weights_ho.tobytes(), case
        assert list(trace) == expected, case


def test_twenty_thousand_steps_at_the_cli_defaults_keep_the_reference_bits():
    # the benchmark's `action train`: 20,000 steps, 8 hidden units, rate 0.5, seed 0
    pairs = TRAINING_SETS["one_to_one"]
    net, trace = train_actions([ActionExample(*pair) for pair in pairs], 20_000)
    weights_ih, weights_ho, expected = reference_training(pairs, 20_000, 8, 0.5, seed=0)
    assert net.weights_ih.tobytes() == weights_ih.tobytes()
    assert net.weights_ho.tobytes() == weights_ho.tobytes()
    assert list(trace) == expected


def _trained_or_refused(examples, rate):
    """The weights' and trace's bits of training at `rate`, or the refusal's message."""
    try:
        net, trace = train_actions(examples, 1234, hidden_size=3, learning_rate=rate, seed=7)
    except UsageError as exc:
        return str(exc)
    return net.weights_ih.tobytes(), net.weights_ho.tobytes(), trace


def test_an_int_learning_rate_trains_as_its_float():
    examples = [ActionExample(scene, action) for scene, action in TRAINING_SETS["shuffled"]]
    # 2**70 is past any int64: it must still reach the step as a float64
    for rate in (3, 2**70):
        trained = _trained_or_refused(examples, rate)
        assert trained == _trained_or_refused(examples, float(rate)), rate
    assert not isinstance(_trained_or_refused(examples, 3), str)


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


def test_a_blank_action_code_ends_the_training_phase():
    # "gym" gets no code, so it is no pair: training ends and it is the first query
    script = "coffee\n42\ngym\n\ngym\ncoffee\n\n"
    net, transcript = _run_repl(script)
    assert transcript.count("Scene label: ") == 2
    assert transcript.count("What action should I take? ") == 2
    assert net.scene_vocab == ("coffee",)
    assert "unknown scene label: gym" in transcript
    assert "[['42']]" in transcript


def test_repl_stops_cleanly_at_end_of_input():
    # input ends right after training with no prediction queries at all
    script = "coffee\n42\n\n"
    net, transcript = _run_repl(script)
    assert "PREDICTION PHASE:" in transcript
    assert predict_action(net, "coffee") == "42"
