"""Plain-numpy re-scoring of posts from the files the `eval` command reads.

Independent of the fairfilter package: it reads the checkpoint archive, the
word-vector file and the corpus directly. Each filter layer is the mean of
the targets' generated U W V matrices applied as an affine map
[weight | bias], then comes the classifier MLP and its sigmoid.
"""

from __future__ import annotations

import json
import re

import numpy as np

# the classifier's sigmoid is clamped to [PROB_FLOOR, 1 - PROB_FLOOR]
PROB_FLOOR = 1e-7
_TOKEN_SPLIT = re.compile(r"[\s_\-]+")


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


class OracleScorer:
    def __init__(self, checkpoint, vectors_path):
        with np.load(checkpoint, allow_pickle=False) as archive:
            meta = json.loads(str(archive["__meta__"]))
            self.params = {k: archive[k] for k in archive.files if k != "__meta__"}
        config = meta["config"]
        self.d = config["hidden_dim"]
        self.rank = config["rank"]
        self.depth = config["depth"]
        self.adapter_depth = config["adapter_depth"]
        self.vectors: dict[str, np.ndarray] = {}
        with open(vectors_path, encoding="utf-8") as fh:
            for line in fh:
                token, *values = line.split()
                self.vectors[token.lower()] = np.array([float(v) for v in values])
        self._thetas: dict[tuple[str, int], np.ndarray] = {}

    def indicator(self, target: str) -> np.ndarray:
        stored = self.params.get(f"indicator/{target}")
        if stored is not None:
            return stored
        tokens = [t for t in _TOKEN_SPLIT.split(target.lower()) if t]
        return np.mean([self.vectors[t] for t in tokens if t in self.vectors], axis=0)

    def theta(self, target: str, layer: int) -> np.ndarray:
        """U W V for one target and filter layer, shape (d, d + 1)."""
        key = (target, layer)
        if key not in self._thetas:
            p = f"param/hyper/L{layer}"
            h = _relu(self.indicator(target) @ self.params[f"{p}.W0"]
                      + self.params[f"{p}.b0"])
            flat = h @ self.params[f"{p}.W1"] + self.params[f"{p}.b1"]
            d, k = self.d, self.rank
            u = flat[:d * k].reshape(d, k)
            w = flat[d * k:d * k + k * k].reshape(k, k)
            v = flat[d * k + k * k:].reshape(k, d + 1)
            self._thetas[key] = u @ w @ v
        return self._thetas[key]

    def score(self, embedding, targets) -> float:
        h = np.asarray(embedding, dtype=np.float64)
        for i in range(self.adapter_depth):
            h = h @ self.params[f"param/enc/W{i}"]
            if i < self.adapter_depth - 1:
                h = _relu(h)
        for layer in range(self.depth):
            theta = np.mean([self.theta(t, layer) for t in targets], axis=0)
            h = theta[:, :self.d] @ h + theta[:, self.d]
            if layer < self.depth - 1:
                h = _relu(h)
        n_layers = sum(1 for k in self.params if k.startswith("param/hate/W"))
        for i in range(n_layers):
            h = h @ self.params[f"param/hate/W{i}"] + self.params[f"param/hate/b{i}"]
            if i < n_layers - 1:
                h = _relu(h)
        prob = 1.0 / (1.0 + np.exp(-float(h[0])))
        return min(max(prob, PROB_FLOOR), 1.0 - PROB_FLOOR)
