"""Prize models: a shared per-request predictor applied to each feature row.

Both model kinds map a feature vector to one scalar and are applied
independently per request, which makes predictions permutation-equivariant
and independent of the number of open requests. ``output_scale`` converts the
O(1) network output into cost units.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .features import FeatureConfig, feature_dim

MLP_HIDDEN = (10, 10, 10, 10)


@dataclass
class PrizeModel:
    kind: str
    feature_config: FeatureConfig
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    output_scale: float = 1.0
    meta: dict = field(default_factory=dict)


def init_model(
    kind: str, fcfg: FeatureConfig, seed: int = 0, output_scale: float = 1.0
) -> PrizeModel:
    """Uniform init scaled by fan-in: U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    dim = feature_dim(fcfg.set_kind)
    rng = np.random.default_rng([seed, dim])
    weights: list[np.ndarray] = []
    biases: list[np.ndarray] = []
    if kind == "linear":
        bound = 1.0 / np.sqrt(dim)
        weights.append(rng.uniform(-bound, bound, size=(dim, 1)))
        biases.append(np.zeros(1))
    elif kind == "mlp":
        sizes = (dim,) + MLP_HIDDEN + (1,)
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
    else:
        raise ValueError(f"unknown model kind: {kind}")
    return PrizeModel(kind=kind, feature_config=fcfg, weights=weights, biases=biases,
                      output_scale=float(output_scale))


def _forward(model: PrizeModel, feats: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Raw (unscaled) outputs plus the activations needed for the backward pass."""
    acts = [feats]
    a = feats
    last = len(model.weights) - 1
    for li, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        a = z if li == last else np.maximum(z, 0.0)
        acts.append(a)
    return a[:, 0], acts


def predict_prizes(model: PrizeModel, feats: np.ndarray) -> np.ndarray:
    """Prize vector for a feature matrix (one prize per row)."""
    if feats.ndim != 2 or feats.shape[1] != feature_dim(model.feature_config.set_kind):
        raise ValueError(
            f"feature matrix shape {feats.shape} does not match model dimension "
            f"{feature_dim(model.feature_config.set_kind)}"
        )
    raw, _ = _forward(model, feats)
    return model.output_scale * raw


def backprop(
    model: PrizeModel, feats: np.ndarray, grad_theta: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Chain rule through the shared per-request model.

    ``grad_theta`` is dL/dθ per request; returns (dL/dW, dL/db) per layer.
    """
    raw, acts = _forward(model, feats)
    if not np.all(np.isfinite(raw)):
        raise FloatingPointError("non-finite model output in backward pass")
    grad_out = (np.asarray(grad_theta, dtype=float) * model.output_scale)[:, None]
    grads_w = [np.zeros_like(w) for w in model.weights]
    grads_b = [np.zeros_like(b) for b in model.biases]
    delta = grad_out
    for li in range(len(model.weights) - 1, -1, -1):
        a_prev = acts[li]
        grads_w[li] = a_prev.T @ delta
        grads_b[li] = delta.sum(axis=0)
        if li > 0:
            delta = (delta @ model.weights[li].T) * (acts[li] > 0)
        if not np.all(np.isfinite(grads_w[li])):
            raise FloatingPointError(f"non-finite gradient at layer {li}")
    return grads_w, grads_b


def model_to_json_dict(model: PrizeModel) -> dict:
    return {
        "kind": model.kind,
        "feature_config": {
            "set_kind": model.feature_config.set_kind,
            "mean": list(model.feature_config.mean),
            "scale": list(model.feature_config.scale),
        },
        "layers": [
            {"w": w.tolist(), "b": b.tolist()}
            for w, b in zip(model.weights, model.biases)
        ],
        "output_scale": model.output_scale,
        "meta": model.meta,
    }


def model_from_json_dict(data: dict) -> PrizeModel:
    fc = data["feature_config"]
    fcfg = FeatureConfig(
        set_kind=fc["set_kind"], mean=tuple(fc["mean"]), scale=tuple(fc["scale"])
    )
    weights = [np.asarray(layer["w"], dtype=float) for layer in data["layers"]]
    biases = [np.asarray(layer["b"], dtype=float) for layer in data["layers"]]
    return PrizeModel(
        kind=data["kind"],
        feature_config=fcfg,
        weights=weights,
        biases=biases,
        output_scale=float(data["output_scale"]),
        meta=dict(data.get("meta", {})),
    )


def save_model(model: PrizeModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json_dict(model), fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_model(path: str) -> PrizeModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json_dict(json.load(fh))
