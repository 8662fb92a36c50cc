"""Composite objective, Adam loop, metrics ledger, sweep, and model selection.

The total objective is reconstruction (Huber) plus codebook, commitment,
and adversarial cross-entropy terms.  Each term has at most one knob: the
codebook term `gamma`, the commitment term the model's commitment weight.
The adversarial term enters unscaled; its strength is the gradient-reversal
scale `adversarial_weight`, the one factor by which it reaches the encoder.
The classifier always trains at full strength, so its accuracy stays a
usable leakage probe even when the reversal scale is zero.

Each step stacks its utterances into one zero-padded [B, T, M] batch with
per-row lengths and runs a single forward and backward graph over it.  Every
loss term is a per-utterance mean over that utterance's valid frames,
averaged over the batch, so the objective equals the mean of B separate
single-utterance losses.

Per-step metrics go to a tab-separated ledger; candidate runs are compared
on final-window means and ranked by the selection rule: keep candidates
with low speaker accuracy and high codebook perplexity, then prefer the
lowest reconstruction loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from . import bottleneck as bn
from .adversary import speaker_accuracy
from .autodiff import Tensor
from .data import DataError, read_text
from .model import VcModel, pad_batch, save_checkpoint
from .signal import MelSpectrogram, write_then_replace


class DivergenceError(RuntimeError):
    """Training hit a non-finite loss or gradient; carries the last good checkpoint path."""

    def __init__(self, step: int, checkpoint_path=None):
        suffix = f"; last good state at {checkpoint_path}" if checkpoint_path else ""
        super().__init__(f"non-finite loss or gradient at step {step}{suffix}")
        self.step = step
        self.checkpoint_path = checkpoint_path


@dataclass(frozen=True)
class LossWeights:
    """Multiplier of the codebook term plus the Huber threshold.

    The commitment term is scaled once, by `ModelConfig.commitment_weight`,
    and the adversarial term once, by `TrainConfig.adversarial_weight`.
    `delta` is the Huber transition point.
    """

    gamma: float = 1.0     # codebook term
    delta: float = 1.0     # Huber threshold

    def __post_init__(self):
        if not 0 <= self.gamma < math.inf:   # NaN fails too
            raise ValueError(f"gamma must be finite and non-negative, got {self.gamma}")
        if not 0 < self.delta < math.inf:
            raise ValueError(f"delta must be finite and positive, got {self.delta}")


def huber(y, y_hat, delta: float = 1.0, lengths=None) -> Tensor:
    """Mean Huber loss, two ops: the elementwise `ad.huber` and `ad.row_mean`.

    Either side may be an array (a target is one).  For padded [B, T, M]
    inputs the mean is per utterance over its [lengths[b], M] valid
    entries, then over rows.
    """
    return ad.row_mean(ad.huber(y, y_hat, delta), lengths)


def total_loss(recon: Tensor, codebook: Tensor, commit: Tensor, adv: Tensor,
               weights: LossWeights) -> Tensor:
    """Sum of the four components; `commit` arrives already weighted and the
    adversarial term enters unscaled (its strength is the reversal weight)."""
    gamma = np.asarray(weights.gamma, dtype=codebook.dtype)
    return ad.add(ad.add(recon, ad.mul(codebook, gamma)), ad.add(commit, adv))


ADAM_BLOCK = 1 << 16   # elements per pass: a block's m, v, gradient and scratch stay in cache
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam with bias correction over one flat array of values.

    `step(grads)` takes the gradient in the layout of `values` and updates
    `values` in place, never rebinding it, so views of it (a model's
    parameters) see the update.  The moments `m` and `v` share that layout
    and are allocated by the first step, so an optimizer that never steps
    holds nothing.  A step is one pass in blocks of `ADAM_BLOCK` elements
    with one operation per textbook term in the textbook order, so the
    result is bit-equal to the update done element by element.
    """

    def __init__(self, values: np.ndarray, lr: float = 1e-4):
        self.values = values
        self.lr = lr
        self.t = 0
        self._state: tuple | None = None

    def step(self, grads: np.ndarray) -> None:
        if self._state is None:
            n, dtype = self.values.size, self.values.dtype
            scratch = min(n, ADAM_BLOCK)
            self._state = (np.zeros(n, dtype), np.zeros(n, dtype),
                           np.empty(scratch, dtype), np.empty(scratch, dtype))
        self.t += 1
        b1c = 1.0 - BETA1**self.t
        b2c = 1.0 - BETA2**self.t
        m_all, v_all, s_all, u_all = self._state
        for lo in range(0, self.values.size, ADAM_BLOCK):
            p, g, m, v = (a[lo : lo + ADAM_BLOCK] for a in (self.values, grads, m_all, v_all))
            s, u = s_all[: p.size], u_all[: p.size]
            # p - lr * (m / b1c) / (sqrt(v / b2c) + eps), one rounding per
            # operation in the textbook order
            m *= BETA1
            m += np.multiply(g, 1.0 - BETA1, out=s)
            v *= BETA2
            np.multiply(g, 1.0 - BETA2, out=s)
            v += np.multiply(s, g, out=s)
            np.divide(v, b2c, out=s)
            np.sqrt(s, out=s)
            s += EPS
            update = np.divide(m, b1c, out=u)
            update *= self.lr
            update /= s
            p -= update


@dataclass
class StepMetrics:
    step: int
    recon: float
    codebook: float
    commit: float
    adv: float
    speaker_acc: float
    perplexity: float


# the ledger's metric columns, after the step
LEDGER_FIELDS = tuple(f.name for f in fields(StepMetrics) if f.name != "step")
FINAL_WINDOW = 0.1   # the share of a run's last steps that its final-window means cover


class MetricsLedger:
    """Per-step training metrics with a deterministic tab-separated file form."""

    def __init__(self):
        self.records: list[StepMetrics] = []

    def append(self, m: StepMetrics) -> None:
        if self.records and m.step <= self.records[-1].step:
            raise ValueError(f"steps must increase: {m.step} after {self.records[-1].step}")
        if not all(np.isfinite(getattr(m, f)) for f in LEDGER_FIELDS):
            raise ValueError(f"non-finite metric at step {m.step}")
        self.records.append(m)

    def __len__(self) -> int:
        return len(self.records)

    def lines(self) -> list[str]:
        return [
            "\t".join([str(m.step)] + [f"{getattr(m, f):.9g}" for f in LEDGER_FIELDS])
            for m in self.records
        ]

    def write(self, path) -> None:
        with write_then_replace(path) as f:
            f.write("".join(line + "\n" for line in self.lines()).encode("utf-8"))

    @staticmethod
    def read(path) -> "MetricsLedger":
        """Parse a ledger file; every way it can be unreadable or malformed
        raises `DataError` naming the path, and the line for a bad row."""
        ledger = MetricsLedger()
        for lineno, line in enumerate(read_text(path, "ledger").splitlines(), 1):
            parts = line.split("\t")
            try:
                if len(parts) != 1 + len(LEDGER_FIELDS):
                    raise ValueError(f"{len(parts)} fields, expected {1 + len(LEDGER_FIELDS)}")
                ledger.append(StepMetrics(step=int(parts[0]), **{
                    f: float(x) for f, x in zip(LEDGER_FIELDS, parts[1:])}))
            except ValueError as e:
                raise DataError(f"{path}:{lineno}: malformed ledger line {line!r} ({e})") from None
        return ledger

    def final_window_means(self, fraction: float = FINAL_WINDOW) -> dict[str, float]:
        """Mean of each column over the last `fraction` of recorded steps."""
        if not self.records:
            raise ValueError("empty ledger")
        n = max(1, int(round(len(self.records) * fraction)))
        tail = self.records[-n:]
        return {f: float(np.mean([getattr(m, f) for m in tail])) for f in LEDGER_FIELDS}


@dataclass(frozen=True)
class TrainConfig:
    """The loop's settings.  Every field is the `[train]` key of the same
    name and default (see `config.py`), but `weights`, whose fields are the
    keys `gamma` and `delta`."""

    steps: int = 2000
    lr: float = 1e-4
    seed: int = 0
    adversarial_weight: float = 0.1   # gradient-reversal scale
    weights: LossWeights = field(default_factory=LossWeights)
    batch_size: int = 1               # utterances per step, one padded graph
    checkpoint_every: int = 0         # 0 = final checkpoint only

    def __post_init__(self):
        for name, least in (("steps", 0), ("seed", 0), ("batch_size", 1),
                            ("checkpoint_every", 0), ("adversarial_weight", 0)):
            if not getattr(self, name) >= least:   # NaN fails too
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if self.adversarial_weight == math.inf:
            raise ValueError("adversarial_weight must be finite, got inf")


@dataclass
class TrainResult:
    ledger: MetricsLedger
    final_step: int


Dataset = Sequence[tuple[MelSpectrogram, int]]


def feature_stats(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin mean and standard deviation over every frame in the corpus.

    Two passes, one utterance at a time: the per-bin sum, then the sum of
    squared deviations from the mean.  Each adds the rows in corpus order
    onto its running sum, as an axis-0 reduction over the concatenated
    frames does, so both statistics equal that array's `mean` and `std` bit
    for bit without a copy of the corpus.
    """
    def row_sum(blocks) -> np.ndarray:
        acc = None
        for block in blocks:
            rows = block if acc is None else np.concatenate([acc[None], block])
            acc = np.add.reduce(rows, axis=0)
        return acc

    n_frames = sum(mel.n_frames for mel, _ in dataset)
    mean = row_sum(mel.data for mel, _ in dataset) / n_frames
    var = row_sum(np.square(mel.data - mean) for mel, _ in dataset) / n_frames
    return mean, np.sqrt(var)


def train(model: VcModel, dataset: Dataset, cfg: TrainConfig,
          out_dir: str | Path | None = None, checkpoint_meta: dict | None = None) -> TrainResult:
    """Run the Adam loop; deterministic given the seed.

    With an `out_dir` (created if missing) the run writes a checkpoint every
    `cfg.checkpoint_every` steps and at the end, with `checkpoint_meta` in
    each, then the ledger as `metrics.ledger`; without one it writes nothing.

    The same features serve as input and reconstruction target.  At step 0
    the feature statistics and the codebook are initialized from the data.
    A non-finite loss or gradient halts training before the update, after
    writing the parameters of the last completed step.

    Gradients share the buffer's layout in one array per call, laid out by
    the first step (so a call with no steps allocates none) and zeroed
    before each backward.  Each step binds every parameter's `.grad` to its
    view, so backward adds each gradient into its slot, the divergence
    guard is one dot product over the `trainable` slice, and Adam updates
    that slice in one pass.  The bindings are released after the update
    (and before `DivergenceError` is raised), so no parameter holds a
    gradient between steps or after the call.
    """
    if not dataset:
        raise ValueError("dataset is empty")
    rng = np.random.default_rng(cfg.seed)
    out_dir = Path(out_dir) if out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    if model.step == 0:
        mean, std = feature_stats(dataset)
        model.set_feature_stats(mean, std)
        # seed the codebook from encoder outputs of the first few utterances
        seed_outputs = [model.encode(mel).values for mel, _ in dataset[:8]]
        model.codebook.init_from_outputs(np.concatenate(seed_outputs, axis=0), rng)

    optimizer = Adam(model.buffer[model.trainable], lr=cfg.lr)
    ledger = MetricsLedger()

    def write_checkpoint(tag: str) -> str:
        path = str(out_dir / f"step{tag}.vcck")
        save_checkpoint(model, path, extra_meta=checkpoint_meta)
        return path

    grads = views = None
    for i in range(cfg.steps):
        step = model.step + 1
        picks = [dataset[int(rng.integers(len(dataset)))] for _ in range(cfg.batch_size)]
        values, lengths = pad_batch([mel.data for mel, _ in picks])
        speakers = np.array([speaker for _, speaker in picks])

        with ad.Tape() as tape:
            recon, qr, logits = model.forward_tensors(
                values, speakers, adv_weight=cfg.adversarial_weight, lengths=lengths
            )
            recon_loss = huber(values.astype(model.dtype, copy=False), recon,
                               delta=cfg.weights.delta, lengths=lengths)
            adv_loss = ad.cross_entropy(logits, speakers)
            loss = total_loss(recon_loss, qr.codebook_loss, qr.commit_loss, adv_loss,
                              cfg.weights)
        # one array kept for the whole call and refilled with zeros: a fresh
        # one per step would map its pages anew, each one faulted twice,
        # since backward's first touch of a slot is a `+=`.  A frozen
        # encoder's gradients land in the leading slice, which nothing reads.
        if grads is None:
            grads = np.empty(model.buffer.size, model.dtype)
            views = model.layout(grads)
        grads.fill(0)
        for name, view in views.items():
            model.params[name].grad = view
        tape.backward(loss)
        g = grads[model.trainable]
        finite = np.isfinite(loss.values).all() and np.isfinite(np.vdot(g, g))
        if finite:
            optimizer.step(g)
        ad.zero_grads(model.params.values())
        if not finite:
            # the live parameters are still those of the last completed step
            path = write_checkpoint(f"{model.step:06d}-lastgood") if out_dir and i else None
            raise DivergenceError(step, path)
        model.step = step

        counts = bn.usage_counts(qr.indices, model.codebook.n_entries)
        ledger.append(StepMetrics(
            step=step,
            recon=recon_loss.item(),
            codebook=qr.codebook_loss.item(),
            commit=qr.commit_loss.item(),
            adv=adv_loss.item(),
            speaker_acc=speaker_accuracy(logits.values, speakers),
            perplexity=float(np.mean([bn.perplexity(c) for c in counts])),
        ))

        if out_dir and cfg.checkpoint_every and step % cfg.checkpoint_every == 0:
            write_checkpoint(f"{step:06d}")

    if out_dir:
        write_checkpoint("final")
        ledger.write(out_dir / "metrics.ledger")
    return TrainResult(ledger=ledger, final_step=model.step)


# ---------------------------------------------------------------------------
# sweep and selection


@dataclass(frozen=True)
class CandidateMetrics:
    label: str
    speaker_acc: float
    perplexity: float
    recon: float

    @staticmethod
    def from_ledger(label: str, ledger: MetricsLedger, window: float) -> "CandidateMetrics":
        """A run's final-window means over the last `window` fraction of its steps."""
        means = ledger.final_window_means(window)
        return CandidateMetrics(label=label, speaker_acc=means["speaker_acc"],
                                perplexity=means["perplexity"], recon=means["recon"])


@dataclass
class SelectionReport:
    candidates: list[CandidateMetrics]
    criteria: dict[str, dict[str, bool]]   # label -> {"acc_ok": .., "ppl_ok": ..}
    ranking: list[str]
    selected: str | None
    fallback_used: bool
    acc_max: float
    ppl_min: float

    def lines(self) -> list[str]:
        out = [f"# selection: acc_max={self.acc_max:.9g} ppl_min={self.ppl_min:.9g}"]
        for c in self.candidates:
            flags = self.criteria[c.label]
            out.append(
                f"{c.label}\tacc={c.speaker_acc:.9g}\tppl={c.perplexity:.9g}"
                f"\trecon={c.recon:.9g}\tacc_ok={flags['acc_ok']}\tppl_ok={flags['ppl_ok']}"
            )
        out.append("ranking\t" + (",".join(self.ranking) if self.ranking else "-"))
        if self.fallback_used:
            out.append("warning\tno candidate meets criteria; fallback ranking applied")
        out.append(f"selected\t{self.selected if self.selected is not None else '-'}")
        return out


def select_model(candidates: Sequence[CandidateMetrics],
                 acc_max: float = 0.2, ppl_min: float = 64.0) -> SelectionReport:
    """Filter on speaker accuracy and perplexity, then rank by reconstruction.

    Survivors (acc <= acc_max and ppl >= ppl_min) are ranked by ascending
    reconstruction loss.  With no survivors every candidate is ranked by
    (acc ascending, recon ascending) and the report is flagged.
    """
    if not candidates:
        raise ValueError("no candidates to select from")
    criteria = {
        c.label: {"acc_ok": c.speaker_acc <= acc_max, "ppl_ok": c.perplexity >= ppl_min}
        for c in candidates
    }
    survivors = [c for c in candidates if criteria[c.label]["acc_ok"] and criteria[c.label]["ppl_ok"]]
    fallback = not survivors
    if survivors:
        ranked = sorted(survivors, key=lambda c: (c.recon, c.label))
    else:
        ranked = sorted(candidates, key=lambda c: (c.speaker_acc, c.recon, c.label))
    return SelectionReport(
        candidates=list(candidates),
        criteria=criteria,
        ranking=[c.label for c in ranked],
        selected=ranked[0].label,
        fallback_used=fallback,
        acc_max=acc_max,
        ppl_min=ppl_min,
    )


@dataclass
class SweepResult:
    ledgers: dict[str, MetricsLedger]
    report: SelectionReport


def sweep_adversarial_weight(
    weights: Sequence[float],
    model_factory: Callable[[], VcModel],
    dataset: Dataset,
    cfg: TrainConfig,
    acc_max: float = 0.2,
    ppl_min: float | None = None,
) -> SweepResult:
    """One fresh training run per reversal weight, compared on final-window
    means over the last `FINAL_WINDOW` of its steps.

    Every candidate's config is built, and so range-checked, before the first run.
    """
    ledgers: dict[str, MetricsLedger] = {}
    candidates: list[CandidateMetrics] = []
    n_entries = None
    for label, run_cfg in sweep_configs(weights, cfg).items():
        model = model_factory()
        n_entries = model.config.vq_entries
        result = train(model, dataset, run_cfg)
        ledgers[label] = result.ledger
        candidates.append(CandidateMetrics.from_ledger(label, result.ledger, FINAL_WINDOW))
    if ppl_min is None:
        ppl_min = n_entries / 2
    report = select_model(candidates, acc_max=acc_max, ppl_min=ppl_min)
    return SweepResult(ledgers=ledgers, report=report)


def sweep_configs(weights: Sequence[float], cfg: TrainConfig) -> dict[str, TrainConfig]:
    """One `TrainConfig` per reversal weight, keyed by its label.

    Raises `ValueError` for fewer than two weights, a weight the config rejects,
    or two weights with the same label (their ledgers would overwrite each other).
    """
    if len(weights) < 2:
        raise ValueError("sweep needs at least two weights")
    configs: dict[str, TrainConfig] = {}
    for w in weights:
        label = format_weight(w)
        if label in configs:
            raise ValueError(f"weight {w!r} repeats the label {label!r}")
        configs[label] = replace(cfg, adversarial_weight=w)
    return configs


def format_weight(w: float) -> str:
    return f"{w:g}"
