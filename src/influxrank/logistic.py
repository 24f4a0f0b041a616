"""Logistic response model: P = 1 / (1 + exp(w0 + w . x)).

Note the sign: a larger linear score means a LOWER response probability, so a
feature with positive weight depresses the prediction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .features import FEATURE_NAMES, MinMaxScaler


class TrainingError(RuntimeError):
    pass


def probability_of_score(z: np.ndarray) -> np.ndarray:
    """Response probability 1 / (1 + exp(z)) of linear scores z = w0 + w.x,
    clipped so exp cannot overflow."""
    return 1.0 / (1.0 + np.exp(np.clip(z, -500.0, 500.0)))


def response_probability(w0: float, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    return probability_of_score(w0 + np.atleast_2d(x) @ np.asarray(w, float))


def log_loss(
    w0: float, w: np.ndarray, x: np.ndarray, y: np.ndarray,
    counts: Optional[np.ndarray] = None,
) -> float:
    """Mean log loss of labels y at rows x; with ``counts``, row r stands
    for counts[r] instances, y[r] of them positive."""
    p = np.clip(response_probability(w0, w, x), 1e-12, 1.0 - 1e-12)
    y = np.asarray(y, float)
    counts = np.ones(len(y)) if counts is None else counts
    return float(-np.sum(y * np.log(p) + (counts - y) * np.log(1.0 - p)) / counts.sum())


def grouped_log_loss_gradient(
    w0: float, w: np.ndarray, x: np.ndarray, positives: np.ndarray, counts: np.ndarray
) -> tuple[float, np.ndarray]:
    """Analytic gradient of the mean log loss wrt (w0, w) over the
    instances that row r of x stands for: counts[r] of them, positives[r]
    labelled 1. With p = sigmoid(-(w0 + w.x)), dL/dz = y - p for
    z = w0 + w.x.

    With n_r = counts[r], n1_r = positives[r] and N instances in all, this
    is the grouped binomial gradient sum_r x_r (n1_r - n_r p_r) / N.
    """
    x = np.atleast_2d(x)
    err = positives - counts * response_probability(w0, w, x)
    n = counts.sum()
    return float(err.sum() / n), (err @ x) / n


def grouped_counts(
    row_of: np.ndarray, y: np.ndarray, n_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """(counts, positives): for each of n_rows rows, how many instances of
    ``row_of`` use it and how many of those have label 1 in y."""
    return (np.bincount(row_of, minlength=n_rows).astype(float),
            np.bincount(row_of, weights=y, minlength=n_rows))


@dataclass
class LogisticModel:
    w0: float
    w: np.ndarray
    scaler: Optional[MinMaxScaler] = None
    metadata: dict = field(default_factory=dict)

    def predict(self, x) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 1
        if x.shape[-1] != len(self.w):
            raise ValueError(
                f"feature dimension {x.shape[-1]} != model dimension {len(self.w)}"
            )
        p = response_probability(self.w0, self.w, x)
        return float(p[0]) if scalar else p

    def to_json(self) -> dict:
        obj = {
            "w0": self.w0,
            "w": self.w.tolist(),
            "metadata": self.metadata,
        }
        if self.scaler is not None:
            obj["scaler"] = self.scaler.to_json()
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "LogisticModel":
        return cls(
            w0=float(obj["w0"]),
            w=np.asarray(obj["w"], float),
            scaler=(
                MinMaxScaler.from_json(obj["scaler"]) if "scaler" in obj else None
            ),
            metadata=obj.get("metadata", {}),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "LogisticModel":
        return cls.from_json(json.loads(Path(path).read_text()))


def train(
    x: np.ndarray,
    y: np.ndarray,
    learning_rate: float = 0.1,
    epochs: int = 500,
    seed: int = 0,
    scaler: Optional[MinMaxScaler] = None,
    counts: Optional[np.ndarray] = None,
) -> LogisticModel:
    """Full-batch gradient descent on the log loss; deterministic given inputs.

    y holds one 0/1 label per row of x. With ``counts``, row r of x stands
    for counts[r] instances instead, y[r] of them positive: the same loss
    over fewer rows. Without, every count is 1, and the grouped gradient
    equals the per-row gradient (``log_loss_gradient`` in tests/oracles.py)
    bit for bit. Weights start at zero, so the seed only flows into
    metadata. There is no L2 penalty; the metadata records it as 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    counts = np.ones(len(y)) if counts is None else np.asarray(counts, dtype=float)
    if not (counts.shape == y.shape and (y >= 0).all() and (y <= counts).all()
            and (y == np.round(y)).all() and (counts == np.round(counts)).all()):
        raise ValueError("labels must be 0/1, or whole positives in [0, counts]")
    used = counts > 0
    if not used.all():
        # rows that no instance uses add nothing
        x, y, counts = x[used], y[used], counts[used]
    w0 = 0.0
    w = np.zeros(x.shape[1])
    for epoch in range(epochs):
        g0, g = grouped_log_loss_gradient(w0, w, x, y, counts)
        w0 -= learning_rate * g0
        w -= learning_rate * g
        # log_loss clips p, so the loss can only turn non-finite through the
        # gradient or the weights; checking those skips a loss pass per epoch.
        if not (np.isfinite(g0) and np.isfinite(g).all()
                and np.isfinite(w0) and np.isfinite(w).all()):
            raise TrainingError(f"non-finite gradient or weights at epoch {epoch}")
    final_loss = log_loss(w0, w, x, y, counts)
    if not np.isfinite(final_loss):
        raise TrainingError("non-finite final loss")
    return LogisticModel(
        w0=w0,
        w=w,
        scaler=scaler,
        metadata={
            "seed": seed,
            "learning_rate": learning_rate,
            "epochs": epochs,
            "l2": 0.0,
            "final_loss": final_loss,
        },
    )


def _stratified_folds(
    y: np.ndarray, folds: int, seed: int, keys: Optional[np.ndarray] = None
) -> np.ndarray:
    """Fold index per instance; permutation-invariant when keys are given.

    ``keys`` is one sortable value per instance, or one row per instance
    compared column by column (an ``InstanceSet.keys``); instances are dealt
    to folds in key order.
    """
    n = len(y)
    if keys is not None:
        keys = np.asarray(keys)
        columns = [keys] if keys.ndim == 1 else keys.T[::-1]
        base = np.lexsort(columns)
    else:
        base = np.arange(n)
    rng = np.random.default_rng(seed)
    assignment = np.empty(n, dtype=int)
    for cls in (0, 1):
        members = base[y[base] == cls]
        members = members[rng.permutation(len(members))]
        assignment[members] = np.arange(len(members)) % folds
    return assignment


def cross_validate(
    x: np.ndarray,
    y: np.ndarray,
    folds: int = 5,
    seed: int = 0,
    learning_rate: float = 0.1,
    epochs: int = 500,
    keys: Optional[np.ndarray] = None,
    row_of: Optional[np.ndarray] = None,
) -> tuple[list[float], float]:
    """Stratified k-fold accuracy at threshold 0.5.

    y holds one label per instance. With ``row_of``, instance i has the
    features x[row_of[i]], and each fold trains on the counts of its own
    instances per row of x; without, instance i is row i.
    """
    if folds < 2:
        raise ValueError("folds must be >= 2")
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    row_of = np.arange(len(y)) if row_of is None else row_of
    assignment = _stratified_folds(y, folds, seed, keys)
    # every fold is checked before the first fit
    for f in range(folds):
        test = assignment == f
        for name, mask in (("train", ~test), ("test", test)):
            if len(np.unique(y[mask])) < 2:
                raise ValueError(f"fold {f}: {name} split lacks both classes")
    accuracies = []
    for f in range(folds):
        test = assignment == f
        train_mask = ~test
        counts, positives = grouped_counts(row_of[train_mask], y[train_mask], len(x))
        model = train(x, positives, learning_rate, epochs, seed, counts=counts)
        pred = (model.predict(x)[row_of[test]] >= 0.5).astype(float)
        accuracies.append(float((pred == y[test]).mean()))
    return accuracies, float(np.mean(accuracies))


def rank_features(
    model: LogisticModel, names: Sequence[str] = FEATURE_NAMES
) -> list[tuple[str, float]]:
    """Features sorted by |weight| descending; ties keep feature-index order."""
    order = sorted(range(len(model.w)), key=lambda i: (-abs(model.w[i]), i))
    return [(names[i], float(model.w[i])) for i in order]
