"""The benchmark's workloads: set-up, warmup and one timed round each.

Every workload is a closed loop with one caller.  Inputs come from the
workload seed; the model and the training run use the config's fixed
seeds.  A round repeats identical work, so every round of a run must give
the same digest; the run loop checks that.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from vcaug import augment, bottleneck, data, signal, training
from vcaug import autodiff as ad
from vcaug import model as vmodel
from vcaug.autodiff import Tensor

from checks import arrays_digest, check_converted, check_emit, check_ledger, tree_digest
from tracing import PROBE_ROOT, TIMED_ROOT


@dataclass(frozen=True)
class Sizes:
    config: str                  # configs/<config>.cfg gives the model shapes
    n_speakers: int
    utts_per_speaker: int        # 1-second utterances: 98 frames each
    wav_utts_per_speaker: int    # augment_wav_mixed, 0.5-4 s each
    steps_per_round: int         # one `training.train` call per round
    warmup_steps: int
    setup_repeats: int
    probe_utts: int              # utterances in the backward-by-stage probe


SIZES = {
    "desk": Sizes("desk", 6, 10, 4, 10, 2, 3, 8),
    "toy": Sizes("toy", 2, 2, 1, 2, 1, 1, 1),
}


@dataclass
class Round:
    op_ms: list[float]             # one entry per train step or convert call
    timed_s: float
    frames: int                    # source mel frames processed
    utts: int                      # utterances through the round's main call
    main_s: float                  # wall time of that call
    ops: dict[str, list[int]]      # phase -> [attempted, failed]
    digests: dict[str, str]        # identical on every round of a run
    problems: list[str] = field(default_factory=list)


def timed(tracer):
    """Record the block under the timed root when a tracer is given."""
    return nullcontext() if tracer is None else tracer.recording(TIMED_ROOT)


def content_hash(path: Path) -> str:
    return vmodel.read_checkpoint_raw(path)[0]["content_hash"]


class Workload:
    op = ""   # name of the op whose latency is reported

    def __init__(self, seed: int, sizes: Sizes, cfg, work: Path):
        self.seed = seed
        self.sizes = sizes
        self.model_cfg = cfg.model_config(sizes.n_speakers)
        self.build_cfg = cfg.train_config()
        self.train_cfg = cfg.train_config(seed=seed)
        self.policy = cfg.augment_policy()
        self.work = work
        self.checkpoint_bytes = 0

    def _checkpoint(self, model, path: Path):
        """Save and reload, as a user of a trained model does."""
        vmodel.save_checkpoint(model, path)
        self.checkpoint_bytes = path.stat().st_size
        return vmodel.load_checkpoint(path)

    def setup(self, directory: Path) -> dict[str, str]:
        """Build inputs and model; return digests that every repeat must match."""
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def run_round(self, tracer) -> Round:
        raise NotImplementedError

    def probe(self, tracer) -> tuple[dict[str, float], list[str]]:
        """Counts taken once per traced run, and problems seen; see each workload."""
        raise NotImplementedError

    def report(self, utt_per_s: float) -> dict[str, tuple[float, str]]:
        """Workload-specific end-to-end metrics for the full report."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# train_desk


class StepClock(list):
    """The training corpus, stamping the moment each step draws its first pick.

    `training.train` indexes the dataset `batch` times at the start of every
    step, so every `batch`-th integer index is a step boundary.  Traced, the
    boundary also ends the previous `training.step` span and opens the next;
    the last one ends with the `training.train` span.
    """

    def __init__(self, items, batch: int, tracer=None):
        super().__init__(items)
        self.batch = batch
        self.tracer = tracer
        self.picks = 0
        self.frames = 0
        self.starts: list[float] = []
        self._span = -1

    def __getitem__(self, index):
        if isinstance(index, slice):
            return super().__getitem__(index)
        if self.picks % self.batch == 0:
            self.starts.append(time.perf_counter())
            if self.tracer is not None:
                if self.tracer.is_open(self._span):
                    self.tracer.close(self._span)
                self._span = self.tracer.open("training.step")
        self.picks += 1
        item = super().__getitem__(index)
        self.frames += item[0].n_frames
        return item


class TrainDesk(Workload):
    """In-memory training on the synthetic corpus, one `train` call per round."""

    op = "train_step"

    def setup(self, directory):
        directory.mkdir(parents=True)
        s = self.sizes
        self.dataset = data.synthetic_corpus(
            s.n_speakers, s.utts_per_speaker, seed=self.seed, n_mels=self.model_cfg.n_mels
        )
        path = directory / "init.vcck"
        self.model = self._checkpoint(vmodel.VcModel(self.model_cfg), path)
        return {
            "corpus": arrays_digest(mel.data for mel, _ in self.dataset),
            "checkpoint": content_hash(path),
        }

    def warmup(self):
        training.train(self.model, self.dataset,
                       replace(self.train_cfg, steps=self.sizes.warmup_steps))
        self.warm_path = self.work / "warm.vcck"
        vmodel.save_checkpoint(self.model, self.warm_path)
        self.recon_final = float("nan")

    def run_round(self, tracer):
        model = vmodel.load_checkpoint(self.warm_path)
        batch = max(1, self.train_cfg.batch_size)
        clock = StepClock(self.dataset, batch, tracer)
        cfg = replace(self.train_cfg, steps=self.sizes.steps_per_round)
        problems = []
        result = None
        with timed(tracer):
            t0 = time.perf_counter()
            try:
                result = training.train(model, clock, cfg)
            except training.DivergenceError:
                pass
            t1 = time.perf_counter()
        steps = len(clock.starts)
        if clock.picks != steps * batch:
            problems.append(f"step clock saw {clock.picks} picks for {steps} steps of {batch}")
        op_ms = list(np.diff(clock.starts + [t1]) * 1000.0)
        failed = 1 if result is None else 0
        digests = {}
        if result is not None:
            if steps != cfg.steps:
                problems.append(f"train ran {steps} steps, asked for {cfg.steps}")
            problems += check_ledger(result.ledger)
            self.recon_final = result.ledger.final_window_means(0.1)["recon"]
            path = self.work / "round.vcck"
            vmodel.save_checkpoint(model, path)
            digests["checkpoint_after_train"] = content_hash(path)
            digests["ledger"] = hashlib.sha256(
                "\n".join(result.ledger.lines()).encode("utf-8")).hexdigest()
        return Round(
            op_ms=op_ms,
            timed_s=t1 - t0,
            frames=clock.frames,
            utts=clock.picks,
            main_s=t1 - t0,
            ops={"train_step": [steps, failed]},
            digests=digests,
            problems=problems,
        )

    def probe(self, tracer):
        """Backward time and tape nodes per stage, each stage on its own tape.

        One tape over the whole loss gives the gradient at every stage
        boundary.  Each stage then runs again from a leaf copy of its input
        and is seeded with that downstream gradient through
        reduce_sum(mul(out, g)), which replays exactly its share of the
        training backward.
        """
        model = vmodel.load_checkpoint(self.warm_path)
        cfg = self.train_cfg
        w, weights = cfg.adversarial_weight, cfg.weights
        rng = np.random.default_rng([self.seed, 4])
        counts: dict[str, float] = {}
        problems = []

        def leaf(t):
            return Tensor(t.values.copy())

        def stage(name, forward):
            with ad.Tape() as tape:
                pairs = forward()
                counts[f"autodiff.tape_nodes.{name}"] = len(tape)
                seed = None
                for out, g in pairs:
                    g = np.zeros_like(out.values) if g is None else g
                    term = ad.reduce_sum(ad.mul(out, Tensor(g)))
                    seed = term if seed is None else ad.add(seed, term)
            with tracer.span(f"autodiff.backward.{name}"):
                tape.backward(seed)

        for _ in range(self.sizes.probe_utts):
            mel, spk = self.dataset[int(rng.integers(len(self.dataset)))]
            target = Tensor(mel.data.astype(model.dtype))
            with ad.Tape() as full:
                z_e = model.encode(mel)
                qr = bottleneck.quantize(z_e, model.codebook,
                                         commitment_weight=model.config.commitment_weight)
                logits = model.adversary.logits(qr.z_q, w)
                recon = model.decode(model.embed_and_concat(qr.z_q, spk), mel.n_frames)
                loss = training.total_loss(
                    training.huber(target, recon, delta=weights.delta),
                    qr.codebook_loss, qr.commit_loss, ad.cross_entropy(logits, spk), weights,
                )
            counts["autodiff.tape_nodes.total"] = len(full)
            if not np.array_equal(recon.values, model.forward_tensors(mel, spk, w)[0].values):
                problems.append("probe's stage composition differs from forward_tensors")
            full.backward(loss)

            with tracer.span(PROBE_ROOT):
                stage("encode", lambda: [(model.encode(mel), z_e.grad)])
                z_e_leaf = leaf(z_e)

                def quantize():
                    r = bottleneck.quantize(z_e_leaf, model.codebook,
                                            commitment_weight=model.config.commitment_weight)
                    return [(r.z_q, qr.z_q.grad), (r.codebook_loss, qr.codebook_loss.grad),
                            (r.commit_loss, qr.commit_loss.grad)]

                stage("quantize", quantize)
                z_q_adv, z_q_dec = leaf(qr.z_q), leaf(qr.z_q)
                stage("adversary", lambda: [(model.adversary.logits(z_q_adv, w), logits.grad)])
                stage("decode", lambda: [(
                    model.decode(model.embed_and_concat(z_q_dec, spk), mel.n_frames), recon.grad,
                )])
                recon_leaf, logits_leaf = leaf(recon), leaf(logits)
                cb_leaf, cm_leaf = leaf(qr.codebook_loss), leaf(qr.commit_loss)

                def loss_stage():
                    total = training.total_loss(
                        training.huber(target, recon_leaf, delta=weights.delta),
                        cb_leaf, cm_leaf, ad.cross_entropy(logits_leaf, spk), weights,
                    )
                    return [(total, np.ones_like(total.values))]

                stage("loss", loss_stage)
        return counts, problems

    def report(self, utt_per_s):
        return {"train_recon_final": (self.recon_final, "loss")}


# ---------------------------------------------------------------------------
# augment_melf and augment_wav_mixed


class Augment(Workload):
    """Phase 1 converts each source once; phase 2 is one `emit_dataset` call."""

    op = "convert"

    def write_corpus(self, corpus: Path) -> list[tuple[str, signal.MelSpectrogram, int]]:
        """Write the source tree; return (relative path, features, speaker)."""
        raise NotImplementedError

    def setup(self, directory):
        corpus = directory / "corpus"
        sources = self.write_corpus(corpus)
        model = vmodel.VcModel(self.model_cfg)
        # 0 steps still sets feature stats and seeds the codebook from the data
        training.train(model, [(mel, spk) for _, mel, spk in sources],
                       replace(self.build_cfg, steps=0))
        path = directory / "init.vcck"
        self.model = self._checkpoint(model, path)
        self.corpus_dir = corpus
        self.pool = augment.SpeakerPool.all_of(self.model)
        rng = np.random.default_rng([self.seed, 3])
        self.jobs = [(rel, mel, augment.sample_target(self.pool, rng)) for rel, mel, _ in sources]
        self.source_shapes = {rel: mel.data.shape for rel, mel, _ in sources}
        return {"corpus": tree_digest(corpus), "checkpoint": content_hash(path)}

    def warmup(self):
        for _, mel, target in self.jobs[:2]:
            augment.convert(mel, target, self.model)

    def run_round(self, tracer):
        op_ms, outputs, errors = [], [], []
        with timed(tracer):
            t0 = time.perf_counter()
            for _, mel, target in self.jobs:
                s = time.perf_counter()
                try:
                    outputs.append(augment.convert(mel, target, self.model))
                except Exception as e:  # noqa: BLE001 - a failed op is counted, not fatal
                    outputs.append(None)
                    errors.append(repr(e))
                op_ms.append((time.perf_counter() - s) * 1000.0)
            t1 = time.perf_counter()

        problems = [f"convert failed: {errors[0]}"] if errors else []
        converted = []
        for (rel, mel, _), out in zip(self.jobs, outputs):
            if out is not None:
                problems += check_converted(mel.data, out, rel)
                converted.append(out.data)

        out_dir = self.work / "emit"
        shutil.rmtree(out_dir, ignore_errors=True)
        result = None
        with timed(tracer):
            t2 = time.perf_counter()
            try:
                result = augment.emit_dataset(self.corpus_dir, self.model, self.pool,
                                              self.policy, out_dir, seed=self.seed)
            except Exception as e:  # noqa: BLE001 - a failed op is counted, not fatal
                problems.append(f"emit_dataset raised {e!r}")
            t3 = time.perf_counter()

        n = len(self.jobs)
        emit_failed = n if result is None else len(result.failures)
        frames = sum(mel.n_frames for (_, mel, _), out in zip(self.jobs, outputs) if out is not None)
        digests = {"converted": arrays_digest(converted)}
        pairs = 0
        if result is not None:
            problems += check_emit(result, out_dir, self.source_shapes)
            failed_rels = {rel for rel, _ in result.failures}
            frames += sum(mel.n_frames for rel, mel, _ in self.jobs if rel not in failed_rels)
            digests["emitted"] = tree_digest(out_dir)
            pairs = result.n_pairs
        return Round(
            op_ms=op_ms,
            timed_s=(t1 - t0) + (t3 - t2),
            frames=frames,
            utts=pairs,
            main_s=t3 - t2,
            ops={"convert": [n, len(errors)], "emit": [n, emit_failed]},
            digests=digests,
            problems=problems,
        )

    def probe(self, tracer):
        """Share of one convert call's ops that `adversary.logits` runs.

        `convert` records nothing without a tape, so a tape is opened here
        only to count the ops; the count repeats exactly.
        """
        _, mel, target = self.jobs[0]
        with ad.Tape() as tape:
            augment.convert(mel, target, self.model)
        total = len(tape)
        z_e = self.model.encode(mel)
        with ad.Tape() as tape:
            self.model.adversary.logits(z_e, self.train_cfg.adversarial_weight)
        return {"augment.convert.discarded_node_share": len(tape) / total}, []

    def report(self, utt_per_s):
        return {"augment_utt_per_s": (utt_per_s, "utt/s")}


class AugmentMelf(Augment):
    """`<spk>/uNN.melf` tree of 98-frame utterances: no featurization at emit."""

    def write_corpus(self, corpus):
        s = self.sizes
        dataset = data.synthetic_corpus(
            s.n_speakers, s.utts_per_speaker, seed=self.seed, n_mels=self.model_cfg.n_mels
        )
        sources = []
        for i, (mel, spk) in enumerate(dataset):
            rel = f"spk{spk}/u{i % s.utts_per_speaker:02d}.melf"
            (corpus / f"spk{spk}").mkdir(parents=True, exist_ok=True)
            signal.write_melf(corpus / rel, mel)
            sources.append((rel, mel, spk))
        return sources


class AugmentWavMixed(Augment):
    """`<spk>/uNN.wav` tree with seeded lengths over 0.5-4 s.

    Each speaker's last utterance is 4 s long, so the longest input, and
    with it peak memory and the largest attention matrix, is the same for
    every seed.  The others take one length from each of n equal strata of
    the range, so the length mix barely moves with the seed either.
    """

    def write_corpus(self, corpus):
        s = self.sizes
        per = s.wav_utts_per_speaker
        rng = np.random.default_rng([self.seed, 2])
        n = s.n_speakers * (per - 1)
        drawn = iter(0.5 + 3.5 * (rng.permutation(n) + rng.uniform(size=n)) / n)
        profiles = data.speaker_profiles(s.n_speakers, self.seed)
        alphabet = data.phone_alphabet()
        sources = []
        for spk in range(s.n_speakers):
            (corpus / f"spk{spk}").mkdir(parents=True)
            for u in range(per):
                duration = 4.0 if u == per - 1 else float(next(drawn))
                rel = f"spk{spk}/u{u:02d}.wav"
                wave = data.synth_utterance(profiles[spk], rng, duration, alphabet=alphabet)
                signal.write_wav(corpus / rel, wave)
                mel = signal.compute_log_mel(signal.read_wav(corpus / rel),
                                             n_mels=self.model_cfg.n_mels)
                sources.append((rel, mel, spk))
        return sources


WORKLOADS = {
    "train_desk": TrainDesk,
    "augment_melf": AugmentMelf,
    "augment_wav_mixed": AugmentWavMixed,
}
