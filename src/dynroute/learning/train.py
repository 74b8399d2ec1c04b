"""Mini-batch Adam over the smoothed regret loss."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..instance import StaticInstance
from ..simulator import DynamicConfig
from ..dataset import TrainingSample
from .features import extract_features_raw, fit_standardization
from .loss import PerturbationConfig, inner_for_sample, perturbed_loss_and_grad
from .models import PrizeModel, activity, backprop, init_model, predict_prizes


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, log: list):
        self.log = log
        super().__init__(f"non-finite loss estimate in epoch {epoch}")


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 4
    learning_rate: float = 0.005
    lr_decay: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning rate must be >= 0")
        if self.lr_decay <= 0:
            raise ValueError("lr_decay must be > 0")


@dataclass
class TrainResult:
    model: PrizeModel
    log: list[dict] = field(default_factory=list)


class _Adam:
    def __init__(self, model: PrizeModel):
        self.b1, self.b2, self.eps = 0.9, 0.999, 1e-8
        self.t = 0
        self.mw = [np.zeros_like(w) for w in model.weights]
        self.vw = [np.zeros_like(w) for w in model.weights]
        self.mb = [np.zeros_like(b) for b in model.biases]
        self.vb = [np.zeros_like(b) for b in model.biases]

    def step(self, model: PrizeModel, grads_w, grads_b, lr: float) -> None:
        self.t += 1
        for i in range(len(model.weights)):
            self.mw[i] = self.b1 * self.mw[i] + (1 - self.b1) * grads_w[i]
            self.vw[i] = self.b2 * self.vw[i] + (1 - self.b2) * grads_w[i] ** 2
            self.mb[i] = self.b1 * self.mb[i] + (1 - self.b1) * grads_b[i]
            self.vb[i] = self.b2 * self.vb[i] + (1 - self.b2) * grads_b[i] ** 2
            mw_hat = self.mw[i] / (1 - self.b1**self.t)
            vw_hat = self.vw[i] / (1 - self.b2**self.t)
            mb_hat = self.mb[i] / (1 - self.b1**self.t)
            vb_hat = self.vb[i] / (1 - self.b2**self.t)
            model.weights[i] -= lr * mw_hat / (np.sqrt(vw_hat) + self.eps)
            model.biases[i] -= lr * mb_hat / (np.sqrt(vb_hat) + self.eps)


def train(
    samples: list[TrainingSample],
    instances: dict[str, StaticInstance],
    cfg: DynamicConfig,
    set_kind: str = "complete",
    model_kind: str = "mlp",
    pcfg: PerturbationConfig | None = None,
    tcfg: TrainConfig | None = None,
) -> TrainResult:
    """Fit a prize model on imitation samples.

    Standardization and the output scale come from the samples and are frozen
    into the model. Deterministic given the seeds and an iteration-budget
    inner solver.
    """
    pcfg = pcfg or PerturbationConfig()
    tcfg = tcfg or TrainConfig()
    usable = [s for s in samples if len(s.state.open) > 0]
    if not usable:
        raise ValueError("dataset has no samples with open requests")

    rng = np.random.default_rng([tcfg.seed, len(usable)])
    # An unused draw, kept because every epoch's sample order follows it.
    rng.permutation(len(usable))

    raw = [
        extract_features_raw(s.state, instances[s.instance], cfg, set_kind) for s in usable
    ]
    fcfg = fit_standardization(raw, set_kind)
    feats = [
        (r - np.asarray(fcfg.mean)) / np.asarray(fcfg.scale) for r in raw
    ]
    output_scale = float(max(instances[s.instance].travel.max() for s in usable))
    model = init_model(model_kind, fcfg, output_scale=output_scale)
    model.meta = {
        "epsilon": pcfg.epsilon,
        "n_samples": pcfg.n_samples,
        "seed": tcfg.seed,
        "set_kind": set_kind,
    }
    inners: dict[int, object] = {}

    def inner_at(i: int):
        if i not in inners:
            inners[i] = inner_for_sample(usable[i], instances[usable[i].instance], cfg, pcfg)
        return inners[i]
    # Perturbations are drawn in cost units, on the scale of the prizes.
    scaled = dataclasses.replace(pcfg, epsilon=pcfg.epsilon * model.output_scale)
    z_rng = np.random.default_rng([pcfg.seed, 7])

    adam = _Adam(model)
    log: list[dict] = []
    all_feats = np.vstack(feats)

    for epoch in range(tcfg.epochs):
        lr = tcfg.learning_rate * (tcfg.lr_decay**epoch)
        perm = rng.permutation(len(usable))
        epoch_losses: list[float] = []
        for start in range(0, len(perm), tcfg.batch_size):
            batch = perm[start : start + tcfg.batch_size]
            grads_w = [np.zeros_like(w) for w in model.weights]
            grads_b = [np.zeros_like(b) for b in model.biases]
            for i in batch:
                z = z_rng.standard_normal((pcfg.n_samples, len(usable[i].state.open)))
                theta = predict_prizes(model, feats[i])
                out = perturbed_loss_and_grad(theta, usable[i], inner_at(i), scaled, z=z)
                if not np.isfinite(out.loss):
                    raise TrainingDiverged(epoch, log)
                epoch_losses.append(out.loss)
                gw, gb = backprop(model, feats[i], out.grad)
                for li in range(len(grads_w)):
                    grads_w[li] += gw[li] / len(batch)
                    grads_b[li] += gb[li] / len(batch)
            if lr > 0:
                adam.step(model, grads_w, grads_b, lr)
        train_loss = float(np.mean(epoch_losses)) if epoch_losses else float("nan")
        # A dying network shows as a hidden layer with no live unit and prizes
        # that no longer vary across the training rows.
        prizes, dead = activity(model, all_feats)
        p10, p50, p90 = np.percentile(prizes, [10, 50, 90])
        log.append({"epoch": epoch, "train_loss": train_loss, "dead_units": dead,
                    "prize_p10": float(p10), "prize_p50": float(p50), "prize_p90": float(p90)})

    model.meta["trained_epochs"] = tcfg.epochs
    return TrainResult(model=model, log=log)
