"""Command-line front door.

Subcommands: featurize, train, sweep, select, convert, augment, gradcheck,
inspect.  Exit codes: 0 success, 1 configuration or usage error, 2 data
error or a failed file access, 3 numeric divergence.  All randomness hangs
off --seed (or the seed in the config file when the flag is absent).

The adversarial-weight comparison on the synthetic corpus is
`scripts/make_synthetic_corpus.py --out corpus` followed by
`vcaug sweep --config configs/desk.cfg --out sweep_out`.

BLAS threads: the GEMMs of desk-sized models are too small to gain from a
second BLAS thread, which only spins.  Running with
`OPENBLAS_NUM_THREADS=1` (or the variable of the BLAS in use) halves
process CPU at the same wall time: a 4-s `convert` on a desk model took
16-21 ms of CPU with OpenBLAS's default 2 threads on 2 vCPUs and 7-9 ms
with 1, in 7-11 ms of wall time either way.  `augment` now runs one
process per CPU (the caller and forked workers, each converting whole
length-grouped batches), so BLAS threads would only compete with the other
processes for the same CPUs: keep `OPENBLAS_NUM_THREADS=1` there too.  Set
it in the environment; the program leaves the thread count to the BLAS.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import augment as aug
from . import data as vd
from . import model as vm
from . import training as tr
from .config import ConfigError, load_config, parse_pool
from .signal import compute_log_mel, read_melf, read_wav, write_melf

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_DIVERGENCE = 3


def _build_model(cfg, n_speakers: int) -> vm.VcModel:
    model = vm.VcModel(cfg.model_config(n_speakers))
    if cfg.donor_checkpoint:
        vm.load_encoder_from(model, cfg.resolve(cfg.donor_checkpoint))
    return model


def _checkpoint_meta(cfg) -> dict:
    return {"run_config": cfg.canonical_text(), "run_config_sha256": cfg.sha256()}


def cmd_featurize(args) -> int:
    wav_dir = Path(args.wav_dir)
    out_dir = Path(args.out)
    if not wav_dir.is_dir():
        raise vd.DataError(f"wav directory not found: {wav_dir}")
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = []
    count = 0
    for path in sorted(wav_dir.rglob("*.wav")):
        rel = path.relative_to(wav_dir)
        try:
            mel = compute_log_mel(read_wav(path), n_mels=args.n_mels)
        except ValueError as e:
            failures.append((str(rel), str(e)))
            print(f"featurize: skipped {rel}: {e}", file=sys.stderr)
            continue
        target = (out_dir / rel).with_suffix(".melf")
        target.parent.mkdir(parents=True, exist_ok=True)
        write_melf(target, mel)
        count += 1
    print(f"featurize: wrote {count} feature files to {out_dir}")
    return EXIT_DATA if failures else EXIT_OK


def _speaker_map(cfg) -> dict[str, int]:
    if not cfg.data.corpus or not cfg.data.speaker_map:
        raise ConfigError("[data] corpus and speaker_map are required for this command")
    return vd.load_speaker_map(cfg.resolve(cfg.data.speaker_map))


def cmd_train(args) -> int:
    # every config check runs before the corpus is read and featurized
    cfg = load_config(args.config)
    speaker_map = _speaker_map(cfg)
    model = _build_model(cfg, len(speaker_map))
    corpus = vd.load_corpus(cfg.resolve(cfg.data.corpus), speaker_map, n_mels=cfg.model.n_mels)
    result = tr.train(model, corpus, cfg.train_config(seed=args.seed), out_dir=args.out,
                      checkpoint_meta=_checkpoint_meta(cfg))
    if result.ledger.records:
        means = result.ledger.final_window_means()
        print(
            f"train: {result.final_step} steps, final-window "
            f"recon={means['recon']:.9g} acc={means['speaker_acc']:.9g} "
            f"ppl={means['perplexity']:.9g}"
        )
    else:
        print(f"train: {result.final_step} steps (no metrics recorded)")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    train_cfg = cfg.train_config(seed=args.seed)
    try:
        weights = [float(w) for w in args.weights.split(",") if w.strip()]
        tr.sweep_configs(weights, train_cfg)
    except ValueError as e:
        raise ConfigError(f"--weights: {e}") from None
    speaker_map = _speaker_map(cfg)
    corpus = vd.load_corpus(cfg.resolve(cfg.data.corpus), speaker_map, n_mels=cfg.model.n_mels)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = tr.sweep_adversarial_weight(
        weights,
        lambda: _build_model(cfg, len(speaker_map)),
        corpus,
        train_cfg,
        acc_max=args.acc_max,
        ppl_min=args.ppl_min,
    )
    for label, ledger in result.ledgers.items():
        ledger.write(out_dir / f"adv{label}.ledger")
    report_path = out_dir / "selection.txt"
    report_path.write_text("".join(line + "\n" for line in result.report.lines()), encoding="utf-8")
    print("\n".join(result.report.lines()))
    return EXIT_OK


def cmd_select(args) -> int:
    candidates = [tr.CandidateMetrics.from_ledger(Path(path).stem, tr.MetricsLedger.read(path),
                                                  args.window)
                  for path in args.ledgers]
    report = tr.select_model(candidates, acc_max=args.acc_max, ppl_min=args.ppl_min)
    print("\n".join(report.lines()))
    if args.out:
        Path(args.out).write_text("".join(line + "\n" for line in report.lines()), encoding="utf-8")
    return EXIT_OK


def cmd_convert(args) -> int:
    model = vm.load_checkpoint(args.checkpoint)
    mel = read_melf(args.melf)
    out = aug.convert(mel, args.speaker_id, model)
    write_melf(args.out, out)
    print(f"convert: wrote {args.out} ({out.n_frames}x{out.n_mels}, speaker {args.speaker_id})")
    return EXIT_OK


def cmd_augment(args) -> int:
    cfg = load_config(args.config)
    model = vm.load_checkpoint(args.checkpoint)
    pool = aug.SpeakerPool(ids=parse_pool(cfg.pool, model.config.n_speakers))
    seed = cfg.train.seed if args.seed is None else args.seed
    corpus_dir = cfg.resolve(cfg.data.corpus) if cfg.data.corpus else None
    if args.corpus:
        corpus_dir = Path(args.corpus)
    if corpus_dir is None:
        raise ConfigError("no corpus: set [data] corpus or pass --corpus")
    result = aug.emit_dataset(corpus_dir, model, pool, cfg.augment, args.out, seed)
    for rel, err in result.failures:
        print(f"augment: failed {rel}: {err}", file=sys.stderr)
    print(f"augment: wrote {result.n_pairs} view pairs, manifest {result.manifest_path}")
    return EXIT_DATA if result.failures else EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg = load_config(args.config)
    seed = cfg.train.seed if args.seed is None else args.seed
    model_cfg = cfg.model_config(n_speakers=4)
    model = vm.VcModel(model_cfg, dtype=np.float64)
    rng = np.random.default_rng(seed)
    mel = rng.normal(size=(12, model_cfg.n_mels))
    weights = cfg.train.weights

    def loss_fn():
        recon, qr, logits = model.forward_tensors(mel, 1, adv_weight=cfg.train.adversarial_weight)
        recon_loss = tr.huber(mel, recon, delta=weights.delta)
        adv_loss = ad.cross_entropy(logits, 1)
        return tr.total_loss(recon_loss, qr.codebook_loss, qr.commit_loss, adv_loss, weights)

    report = ad.check_gradients(
        loss_fn, model.params,
        sample_per_param=args.samples or None, rng=np.random.default_rng(seed),
    )
    worst = max(report.per_param, key=report.per_param.get)
    print(f"gradcheck: max relative error {report.max_rel_err:.3e} ({worst})")
    if not report.ok(args.tolerance):
        print(f"gradcheck: FAILED tolerance {args.tolerance}", file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


def cmd_inspect(args) -> int:
    meta, step, named = vm.read_checkpoint_raw(args.checkpoint)
    print(f"checkpoint: {args.checkpoint}")
    print(f"step: {step}")
    print(f"content_hash: {meta['content_hash']}")
    print(f"config: {json.dumps(meta['config'], sort_keys=True)}")
    extra = meta.get("extra")
    if isinstance(extra, dict) and extra.get("run_config_sha256"):
        print(f"run_config_sha256: {extra['run_config_sha256']}")
    print(f"tensors: {len(named)}")
    for name in sorted(named):
        arr = named[name]
        print(f"  {name}\t{'x'.join(str(d) for d in arr.shape)}")
    return EXIT_OK


def _checked(kind, rule: str, ok):
    """An option type: `kind(text)`, a usage error naming `rule` unless `ok` holds."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value
    parse.__name__ = kind.__name__   # argparse's "invalid float value" for unparsable text
    return parse


_non_negative_int = _checked(int, "non-negative", lambda v: v >= 0)
_positive_int = _checked(int, "at least 1", lambda v: v >= 1)
_fraction = _checked(float, "in (0, 1]", lambda v: 0 < v <= 1)   # NaN fails each float rule
_non_negative_float = _checked(float, "finite and non-negative", lambda v: 0 <= v < math.inf)
_positive_float = _checked(float, "finite and positive", lambda v: 0 < v < math.inf)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcaug",
        description="Voice-conversion training and two-view augmentation tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("featurize", help="batch log-mel extraction for a wav tree")
    p.add_argument("--wav-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n-mels", type=_positive_int, default=80)
    p.set_defaults(handler=cmd_featurize)

    p = sub.add_parser("train", help="run the training loop")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_non_negative_int, default=None)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser(
        "sweep", help="train once per adversarial weight and compare",
        description="Train one model per reversal weight and apply the selection rule. "
                    "On the synthetic corpus: scripts/make_synthetic_corpus.py --out corpus, "
                    "then vcaug sweep --config configs/desk.cfg --out sweep_out.",
    )
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--weights", default="0.0,0.1,0.5,1.0")
    p.add_argument("--seed", type=_non_negative_int, default=None)
    p.add_argument("--acc-max", type=_non_negative_float, default=0.2)
    p.add_argument("--ppl-min", type=_non_negative_float, default=None)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("select", help="apply the selection rule to ledger files")
    p.add_argument("ledgers", nargs="+")
    p.add_argument("--acc-max", type=_non_negative_float, default=0.2)
    p.add_argument("--ppl-min", type=_non_negative_float, default=64.0)
    p.add_argument("--window", type=_fraction, default=tr.FINAL_WINDOW)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_select)

    p = sub.add_parser("convert", help="convert one feature file to a target speaker")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--melf", required=True)
    p.add_argument("--speaker-id", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_convert)

    p = sub.add_parser("augment", help="emit paired original/converted views")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--corpus", default=None, help="override [data] corpus")
    p.add_argument("--seed", type=_non_negative_int, default=None)
    p.set_defaults(handler=cmd_augment)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full loss")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=_non_negative_int, default=None)
    p.add_argument("--samples", type=_non_negative_int, default=4,
                   help="elements probed per tensor (0 = every element)")
    p.add_argument("--tolerance", type=_positive_float, default=1e-4)
    p.set_defaults(handler=cmd_gradcheck)

    p = sub.add_parser("inspect", help="dump checkpoint metadata")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(handler=cmd_inspect)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:   # argparse has printed the usage error, or the help
        return EXIT_CONFIG if e.code else EXIT_OK
    try:
        return args.handler(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as e:   # every domain error is a ValueError
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except tr.DivergenceError as e:
        print(f"divergence: {e}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
