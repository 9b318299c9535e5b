"""Independent reference implementations the test suite checks against.

Nothing here imports the library's own math: the spectrum oracle is a naive
O(n^2) DFT that never touches numpy.fft, one clustering oracle enumerates
every possible assignment, and the k-means reference is `clustering.fit`
written from its docstring as one plain Lloyd loop, with none of its
engines (the column stack, the row blocks, the shared centroid buffer,
the repeated-partition close), only the summation orders and the span
coordinates that its bits depend on.  The fusion oracle is a
straight-line replay of the decision narrative, the gradient oracle is
central finite differences of a loss with its own sigmoid and forward
pass, the output-error oracle runs that same forward pass over its own
one-hot rows, and the reference trainer is the action net's gradient descent written as plain
whole-array expressions, each step allocating its own results.  Keep it
that way — each pairs with a faster implementation in the package and the
two must stay independent: this module imports NumPy and the standard
library only, as a tier-1 test checks.
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


# --- k-means from its specification ------------------------------------------

def _squared_distances(x: np.ndarray, centroids: np.ndarray, columns: bool) -> np.ndarray:
    """(n, k) squared distances from the (n, d) rows `x` to each centroid.

    In the column layout each point's squares are added left to right over
    the columns; in the row layout each row of squares is one NumPy sum
    along that C-ordered row, in NumPy's pairwise order.
    """
    sq = np.empty((len(x), len(centroids)))
    for j, centroid in enumerate(centroids):
        diff = x - centroid
        squares = diff * diff
        if columns:
            total = np.zeros(len(x))
            for column in squares.T:
                total += column
            sq[:, j] = total
        else:
            sq[:, j] = squares.sum(axis=1)
    return sq


def _column_means(rows: np.ndarray, pairwise: bool) -> np.ndarray:
    """Each column's mean over the (m, d) `rows`.

    The sum runs in NumPy's pairwise order along a C-ordered copy of each
    column, or as one running sum in row order.
    """
    total = np.ascontiguousarray(rows.T).sum(axis=1) if pairwise else np.cumsum(rows, axis=0)[-1]
    return total / len(rows)


def _lloyd(x, centroids, columns, pairwise, tol, max_iters):
    """One Lloyd run from `centroids`: (centroids, labels, (n, k) sq, inertia, averaged).

    Each pass assigns every point to its nearest centroid, the lowest label
    on a tie; each empty cluster in turn, in label order, then seizes the
    point farthest from its own centroid among those whose cluster keeps
    another member, the lowest index on a tie, and becomes that point; then
    every centroid becomes the mean of its members.  The run stops after
    `max_iters` updates, or after one that moved no coordinate more than
    `tol`, on one more assignment, which is not repaired.  The inertia is
    NumPy's pairwise sum of each point's squared distance to its centroid.
    `averaged` is the partition the returned centroids are the means of.
    """
    sq = _squared_distances(x, centroids, columns)
    averaged = None
    for _ in range(max_iters):
        labels = np.argmin(sq, axis=1)
        own = sq[np.arange(len(x)), labels]
        counts = np.bincount(labels, minlength=len(centroids))
        for empty in np.flatnonzero(counts == 0):
            victim = int(np.argmax(np.where(counts[labels] > 1, own, -np.inf)))
            counts[labels[victim]] -= 1
            counts[empty] = 1
            labels[victim] = empty
            own[victim] = 0.0
            centroids[empty] = x[victim]
        means = np.array([_column_means(x[labels == c], pairwise) for c in range(len(centroids))])
        averaged = labels
        shift = np.max(np.abs(means - centroids), initial=0.0)
        centroids = means
        sq = _squared_distances(x, centroids, columns)
        if shift <= tol:
            break
    labels = np.argmin(sq, axis=1)
    return centroids, labels, sq, float(sq[np.arange(len(x)), labels].sum()), averaged


def _span_coordinates(x: np.ndarray, block_bytes: int) -> np.ndarray:
    """(n, n) rows with the pairwise distances of the (n, d) `x`, scaled, in exact arithmetic.

    `x` is scaled by 2**-e, e the exponent of its largest |coordinate| (at
    least -1022); each block of max(1, block_bytes // (8 n)) consecutive
    columns is centred by its own column means and its Gram matrix added
    into one sum, whose eigenvectors V, each scaled by the root of its
    eigenvalue clipped at 0, give the rows.
    """
    n = len(x)
    scale = np.ldexp(1.0, -max(int(np.frexp(np.abs(x).max())[1]), -1022))
    width = max(1, block_bytes // (8 * n))
    gram = np.zeros((n, n))
    for start in range(0, x.shape[1], width):
        block = x[:, start : start + width] * scale
        block -= block.mean(axis=0)
        gram += block @ block.T
    values, vectors = np.linalg.eigh(gram)
    return vectors * np.sqrt(np.maximum(values, 0.0))


def _kmeans_pp(x: np.ndarray, k: int, rng: np.random.Generator, columns: bool) -> np.ndarray:
    """k-means++ starts from `rng`: a uniform first point, then inverse-CDF draws.

    Each later draw takes a uniform u and the first point whose cumulative
    sum of squared distances to its nearest start exceeds u times their
    total, clamped to the last point.
    """
    picks = [int(rng.integers(len(x)))]
    closest = _squared_distances(x, x[picks], columns)[:, 0]
    for _ in range(1, k):
        draw = rng.random() * float(closest.sum())
        picks.append(min(int(np.searchsorted(np.cumsum(closest), draw, side="right")), len(x) - 1))
        closest = np.minimum(closest, _squared_distances(x, x[picks[-1:]], columns)[:, 0])
    return x[picks]


def reference_fit(
    points, k: int, seed: int, *, seed_points=1000, tol=1e-6, max_iters=300, block_bytes=1 << 19
):
    """`clustering.fit` as its docstring specifies it, or None where it refuses.

    Returns (centroids, labels, (n, k) sq, inertia) with the bits `fit`
    returns; None for points that are not a float64 NumPy matrix with no
    empty axis, which are never cast, when n < k, or when a centroid or the
    inertia is not finite.  `seed_points`, `tol`, `max_iters` and
    `block_bytes` stand for `fit`'s `_SEED_POINTS`, `_TOL`, `_MAX_ITERS` and
    `_BLOCK_BYTES`, for tests that patch them.  Columns on which every point
    agrees are dropped: the rest are gathered into a C-ordered (n, d) copy
    and every centroid keeps the shared value of each dropped column.  With
    fewer varying columns than points the fit is in the column layout, and
    otherwise in the row layout.  Ten restarts, each k-means++ then Lloyd,
    draw in turn from one `np.random.default_rng(seed)`; restart i sees rows
    i % stride : span : stride, with stride = min(ceil(n / seed_points),
    n // k) and span = n // stride * stride.  The lowest inertia wins, the
    earliest on a tie (NaN never wins but a first one is never beaten).
    With stride 1 in the row layout the restarts run, in the row layout, on
    the rows `_span_coordinates` gives.  Every fit then ends with one more
    Lloyd run on all points, from the winner's centroids: the means of its
    last averaged partition over its points, taken over the varying columns
    for a span winner.

    The summation orders are part of the bits:
      * a squared distance adds its squares left to right over the columns
        in the column layout, and in NumPy's pairwise order along the row in
        the row layout;
      * a mean sums its members in point order, as one running sum, except
        in the column layout's runs on every point (stride 1, and the last
        run), which sum each column in NumPy's pairwise order;
      * a k-means++ total and an inertia are NumPy's pairwise sum over points.
    """
    if not (isinstance(points, np.ndarray) and points.dtype == np.float64 and points.ndim == 2):
        return None
    x = points
    n = len(x)
    if n < k or not x.size:
        return None
    varying = (x != x[0]).any(axis=0)
    work = np.ascontiguousarray(np.compress(varying, x, axis=1))
    columns = work.shape[1] < n
    stride = min(-(-n // seed_points), n // k)
    span = n // stride * stride
    rng = np.random.default_rng(seed)
    reduced = stride == 1 and not columns
    restarted = _span_coordinates(work, block_bytes) if reduced else work
    with np.errstate(over="ignore", invalid="ignore"):
        best = None
        for i in range(10):
            sample = restarted[i % stride : span : stride]
            start = _kmeans_pp(sample, k, rng, columns)
            run = _lloyd(sample, start, columns, columns and stride == 1, tol, max_iters)
            if best is None or run[3] < best[3]:
                best = run
        start = best[0]
        if reduced:
            # the span winner's partition, averaged over the varying columns
            start = np.array([_column_means(work[best[4] == c], False) for c in range(k)])
        centroids, labels, sq, inertia, _ = _lloyd(work, start, columns, columns, tol, max_iters)
    if not (np.isfinite(centroids).all() and np.isfinite(inertia)):
        return None
    full = np.repeat(x[:1], k, axis=0)
    full[:, varying] = centroids
    return full, labels, sq, inertia


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


# --- action net training ----------------------------------------------------

def _clipped_sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def reference_training(pairs, iterations: int, hidden_size: int, learning_rate: float, seed: int):
    """Full-batch gradient descent of the action net, one plain expression per value.

    `pairs` are (scene, action) tuples; each vocabulary lists its labels in
    first-appearance order.  Weights start uniform in [-1, 1] from
    `np.random.default_rng(seed)`, input-to-hidden first.  Before every
    thousandth step the mean absolute output error joins the trace.
    Returns (weights_ih, weights_ho, trace), trace as (iteration, error).
    """
    scenes = list(dict.fromkeys(scene for scene, _ in pairs))
    actions = list(dict.fromkeys(action for _, action in pairs))
    inputs = np.array([[float(scene == s) for s in scenes] for scene, _ in pairs])
    targets = np.array([[float(action == a) for a in actions] for _, action in pairs])
    rng = np.random.default_rng(seed)
    weights_ih = rng.uniform(-1.0, 1.0, (len(scenes), hidden_size))
    weights_ho = rng.uniform(-1.0, 1.0, (hidden_size, len(actions)))
    trace = []
    for iteration in range(iterations):
        hidden = _clipped_sigmoid(inputs @ weights_ih)
        outputs = _clipped_sigmoid(hidden @ weights_ho)
        if iteration % 1000 == 0:
            trace.append((iteration, float(np.mean(np.abs(outputs - targets)))))
        d_out = 2.0 * (outputs - targets) / targets.size * outputs * (1.0 - outputs)
        grad_ho = hidden.T @ d_out
        d_hidden = (d_out @ weights_ho.T) * hidden * (1.0 - hidden)
        grad_ih = inputs.T @ d_hidden
        weights_ih = weights_ih - learning_rate * grad_ih
        weights_ho = weights_ho - learning_rate * grad_ho
    return weights_ih, weights_ho, trace
