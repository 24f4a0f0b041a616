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


def log_loss(w0: float, w: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    p = np.clip(response_probability(w0, w, x), 1e-12, 1.0 - 1e-12)
    y = np.asarray(y, float)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def log_loss_gradient(
    w0: float, w: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Analytic gradient of the mean log loss wrt (w0, w).

    With p = sigmoid(-(w0 + w.x)), dL/dz = y - p for z = w0 + w.x.
    """
    x = np.atleast_2d(x)
    p = response_probability(w0, w, x)
    err = np.asarray(y, float) - p
    return float(err.mean()), (err @ x) / len(x)


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
    l2: float = 0.0,
    scaler: Optional[MinMaxScaler] = None,
) -> LogisticModel:
    """Full-batch gradient descent on the log loss; deterministic given inputs.

    Weights start at zero, so the seed only flows into metadata. L2 is off by
    default.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if set(np.unique(y)) - {0.0, 1.0}:
        raise ValueError("labels must be 0/1")
    w0 = 0.0
    w = np.zeros(x.shape[1])
    for epoch in range(epochs):
        g0, g = log_loss_gradient(w0, w, x, y)
        if l2 > 0:
            g = g + l2 * w
        w0 -= learning_rate * g0
        w -= learning_rate * g
        # log_loss clips p, so the loss can only turn non-finite through the
        # gradient or the weights; checking those skips a loss pass per epoch.
        if not (np.isfinite(g0) and np.isfinite(g).all()
                and np.isfinite(w0) and np.isfinite(w).all()):
            raise TrainingError(f"non-finite gradient or weights at epoch {epoch}")
    final_loss = log_loss(w0, w, x, y)
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
            "l2": l2,
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
) -> tuple[list[float], float]:
    """Stratified k-fold accuracy at threshold 0.5."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    assignment = _stratified_folds(y, folds, seed, keys)
    accuracies = []
    for f in range(folds):
        test = assignment == f
        train_mask = ~test
        for name, mask in (("train", train_mask), ("test", test)):
            if len(np.unique(y[mask])) < 2:
                raise ValueError(f"fold {f}: {name} split lacks both classes")
        model = train(x[train_mask], y[train_mask], learning_rate, epochs, seed)
        pred = (model.predict(x[test]) >= 0.5).astype(float)
        accuracies.append(float((pred == y[test]).mean()))
    return accuracies, float(np.mean(accuracies))


def rank_features(
    model: LogisticModel, names: Sequence[str] = FEATURE_NAMES
) -> list[tuple[str, float]]:
    """Features sorted by |weight| descending; ties keep feature-index order."""
    order = sorted(range(len(model.w)), key=lambda i: (-abs(model.w[i]), i))
    return [(names[i], float(model.w[i])) for i in order]
