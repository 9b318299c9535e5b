"""Independent reference implementations the test suite checks against.

Nothing here imports the library's own math: the spectrum oracle is a naive
O(n^2) DFT that never touches numpy.fft, the clustering oracle enumerates
every possible assignment, the fusion oracle is a straight-line replay of
the decision narrative, the gradient oracle is central finite differences
of a loss with its own sigmoid and forward pass, and the output-error
oracle runs that same forward pass over its own one-hot rows.  Keep it
that way — each pairs with a faster implementation in the package and the
two must stay independent.
"""

from __future__ import annotations

from itertools import product

import numpy as np

# --- naive DFT -------------------------------------------------------------

_dft_matrices: dict[int, np.ndarray] = {}


def _dft_matrix(size: int) -> np.ndarray:
    """Root-of-unity matrix for the one-sided naive DFT, cached per size."""
    matrix = _dft_matrices.get(size)
    if matrix is None:
        table = np.exp(-2j * np.pi * np.arange(size) / size)
        ks = np.arange(size // 2 + 1, dtype=np.int64)
        ns = np.arange(size, dtype=np.int64)
        matrix = table[(ks[:, None] * ns[None, :]) % size]
        _dft_matrices[size] = matrix
    return matrix


def naive_spectrum(samples, rate: int) -> tuple[np.ndarray, np.ndarray]:
    """One-sided magnitude spectrum by direct O(n^2) evaluation.

    Pads to the next power of two with its own doubling loop and multiplies
    by an explicitly tabulated root-of-unity matrix; per-size memoization of
    that matrix is the only shortcut.
    """
    x = np.asarray(samples, dtype=np.float64)
    size = 1
    while size < x.size:
        size *= 2
    padded = np.zeros(size, dtype=np.float64)
    padded[: x.size] = x
    amps = np.abs(_dft_matrix(size) @ padded)
    freqs = np.arange(size // 2 + 1, dtype=np.float64) * rate / size
    return freqs, amps


# --- exhaustive K-Means ----------------------------------------------------

def brute_force_inertia(points, k: int) -> float:
    """Lowest within-cluster sum of squares over every k^N assignment."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    assignments = np.array(list(product(range(k), repeat=n)))
    onehot = np.eye(k)[assignments]                     # (A, n, k)
    counts = onehot.sum(axis=1)                         # (A, k)
    sums = np.einsum("ank,nd->akd", onehot, pts)        # (A, k, d)
    total_sq = float((pts**2).sum())
    safe_counts = np.maximum(counts[:, :, None], 1.0)
    contrib = np.where(counts[:, :, None] > 0, (sums**2) / safe_counts, 0.0)
    sse = total_sq - contrib.sum(axis=(1, 2))
    return float(sse.min())


def nearest_centroid_scan(point, centroids) -> tuple[int, float]:
    """Plain linear scan: lowest index wins an exact tie."""
    best_label = 0
    best_sq = None
    for label, centroid in enumerate(centroids):
        sq = 0.0
        for a, b in zip(point, centroid):
            sq += (a - b) * (a - b)
        if best_sq is None or sq < best_sq:
            best_sq = sq
            best_label = label
    return best_label, best_sq**0.5


# --- fusion replay ---------------------------------------------------------

PENDING = ("pending", None, 0.0)
NO_SCENE = ("no_scene", None, 0.0)


def fusion_reference(
    events,
    av_window: float = 30.0,
    photo_window: float = 20.0,
    photos_required: int = 3,
    min_confidence: float = 0.0,
):
    """Straight-line replay of (kind, scene, confidence, at) event tuples.

    kind is "acoustic" or "photo".  Returns one decision tuple per
    event: ("pending"|"no_scene", None, 0.0) or ("identified", scene,
    combined).  Deliberately flat local-variable bookkeeping, no state
    objects — this is the reference the state machine is measured against.
    """
    results = []
    anchor_scene = None
    anchor_conf = 0.0
    anchor_at = 0.0
    shots: list[tuple[str, float, float]] = []

    for kind, scene, conf, at in events:
        if kind == "acoustic":
            anchor_scene, anchor_conf, anchor_at = scene, conf, at
            shots = []
            results.append(PENDING)
            continue

        # photo
        if anchor_scene is None:
            results.append(PENDING)
            continue
        if at > anchor_at + av_window or (shots and at > shots[0][2] + photo_window):
            anchor_scene = None
            shots = []
            results.append(NO_SCENE)
            continue
        shots.append((scene, conf, at))
        if len(shots) < photos_required:
            results.append(PENDING)
            continue

        tally: dict[str, int] = {}
        for shot_scene, _, _ in shots:
            tally[shot_scene] = tally.get(shot_scene, 0) + 1
        top = max(tally.values())
        leaders = [s for s, count in tally.items() if count == top]
        decision = NO_SCENE
        if len(leaders) == 1 and leaders[0] == anchor_scene:
            votes = [c for s, c, _ in shots if s == leaders[0]]
            combined = (anchor_conf + sum(votes) / len(votes)) / 2.0
            if combined >= min_confidence:
                decision = ("identified", leaders[0], combined)
        results.append(decision)
        anchor_scene = None
        shots = []

    return results


# --- finite differences ----------------------------------------------------

def central_difference_gradient(loss, weights: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar loss over one weight matrix."""
    grad = np.zeros_like(weights)
    flat = weights.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + h
        up = loss()
        flat[i] = original - h
        down = loss()
        flat[i] = original
        grad_flat[i] = (up - down) / (2.0 * h)
    return grad


# --- action net forward pass ------------------------------------------------

def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) in the form whose exponent never exceeds 0, so it never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _net_outputs(weights_ih, weights_ho, inputs) -> np.ndarray:
    return _logistic(_logistic(inputs @ weights_ih) @ weights_ho)


def squared_error_loss(weights_ih, weights_ho, inputs, targets) -> float:
    """Mean squared output error of the two-layer sigmoid net, no biases."""
    return float(np.mean((_net_outputs(weights_ih, weights_ho, inputs) - targets) ** 2))


def mean_output_error(net, examples) -> float:
    """Mean absolute output error of a trained net over (scene, action) examples.

    `net` needs `scene_vocab`, `action_vocab`, `weights_ih` and `weights_ho`;
    each example needs `scene_label` and `action_code`.
    """
    inputs = np.array([[float(e.scene_label == s) for s in net.scene_vocab] for e in examples])
    targets = np.array([[float(e.action_code == a) for a in net.action_vocab] for e in examples])
    outputs = _net_outputs(net.weights_ih, net.weights_ho, inputs)
    return float(np.mean(np.abs(outputs - targets)))
