"""Per-request feature extraction and standardization.

Three feature sets: ``model_free`` uses only what the current state shows,
``model_aware`` summarizes the static instance's travel-time and slack
distributions through empirical quantiles, ``complete`` concatenates both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..instance import StaticInstance
from ..simulator import DynamicConfig, SystemState, reachable

MODEL_FREE_DIM = 11
MODEL_AWARE_DIM = 9

TRAVEL_QUANTILES = (0.01, 0.05, 0.10, 0.50)
SLACK_QUANTILES = (0.0, 0.01, 0.05, 0.10, 0.50)


def feature_dim(set_kind: str) -> int:
    if set_kind == "model_free":
        return MODEL_FREE_DIM
    if set_kind == "model_aware":
        return MODEL_AWARE_DIM
    if set_kind == "complete":
        return MODEL_FREE_DIM + MODEL_AWARE_DIM
    raise ValueError(f"unknown feature set kind: {set_kind}")


@dataclass(frozen=True)
class FeatureConfig:
    set_kind: str
    mean: tuple[float, ...]
    scale: tuple[float, ...]

    def __post_init__(self):
        if len(self.mean) != feature_dim(self.set_kind) or len(self.scale) != len(self.mean):
            raise ValueError("standardization vectors do not match the feature dimension")
        if any(s <= 0 for s in self.scale):
            raise ValueError("standardization scale must be positive")


def quantile_lower(values: Sequence[float], q: float) -> float:
    """Largest data value x with #{v < x} / k <= q."""
    return _quantile_sorted(sorted(values), q)


def _quantile_sorted(vals: Sequence[float], q: float) -> float:
    """``quantile_lower`` of data sorted ascending. At most i values lie
    below vals[i], and exactly i below the first of equal values, so the
    answer is the element at floor(q * k), or the last one."""
    k = len(vals)
    if k == 0:
        raise ValueError("quantile of empty data")
    return float(vals[min(k - 1, math.floor(q * k + 1e-9))])


def extract_features_raw(
    state: SystemState, inst: StaticInstance, cfg: DynamicConfig, set_kind: str
) -> np.ndarray:
    """Unstandardized feature matrix, one row per open request in state order."""
    if not state.open:
        raise ValueError("state has no open requests")
    feature_dim(set_kind)
    rows = []
    remaining = inst.horizon - cfg.epoch_start(state.epoch)
    departure = cfg.dispatch_time(state.epoch)
    for req in state.open:
        loc = req.location
        t_dr = float(inst.travel[0, loc])
        row: list[float] = []
        if set_kind in ("model_free", "complete"):
            denom_tw = req.tw_close - req.service
            row.extend(
                [
                    float(inst.coords[loc][0]),
                    float(inst.coords[loc][1]),
                    float(req.demand),
                    float(req.service),
                    float(req.tw_open),
                    float(req.tw_close),
                    t_dr,
                    t_dr / denom_tw if denom_tw != 0 else 0.0,
                    req.tw_open / remaining if remaining > 0 else 0.0,
                    req.tw_close / remaining if remaining > 0 else 0.0,
                    0.0 if reachable(inst, loc, req.tw_close, departure) else 1.0,
                ]
            )
        if set_kind in ("model_aware", "complete"):
            others = [j for j in range(inst.n_locations) if j != loc]
            travels = sorted(float(inst.travel[loc, j]) for j in others)
            base = req.tw_open + req.service
            slacks = sorted(float(inst.tw[j][1] - (base + inst.travel[loc, j])) for j in others)
            row.extend(_quantile_sorted(travels, q) for q in TRAVEL_QUANTILES)
            row.extend(_quantile_sorted(slacks, q) for q in SLACK_QUANTILES)
        rows.append(row)
    return np.asarray(rows, dtype=float)


def fit_standardization(raw_batches: Sequence[np.ndarray], set_kind: str) -> FeatureConfig:
    """Per-feature mean/scale over all rows of all batches; zero-variance -> scale 1."""
    stacked = np.vstack(raw_batches)
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0)
    scale = np.where(std > 1e-12, std, 1.0)
    return FeatureConfig(set_kind=set_kind, mean=tuple(map(float, mean)), scale=tuple(map(float, scale)))


def extract_features(
    state: SystemState, inst: StaticInstance, cfg: DynamicConfig, fcfg: FeatureConfig
) -> np.ndarray:
    raw = extract_features_raw(state, inst, cfg, fcfg.set_kind)
    return (raw - np.asarray(fcfg.mean)) / np.asarray(fcfg.scale)
