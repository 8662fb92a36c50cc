"""Run configuration: INI-style sections with strict key checking.

Sections: [model] (architecture), [train] (loop and loss weights), [data]
(corpus locations), [augment] (masking policy and target pool).  Unknown
sections or keys are rejected, referenced paths are checked at load time,
and the canonical text form has a stable hash that is recorded into
checkpoints.  A file that cannot be read, or whose values the model or
training configs reject, raises `ConfigError`.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field, fields
from pathlib import Path

from .model import DecoderConfig, EncoderConfig, ModelConfig
from .signal import SpecAugmentPolicy
from .training import LossWeights, TrainConfig


class ConfigError(ValueError):
    """Bad configuration file; the message names the offending key or path."""


@dataclass(frozen=True)
class ModelSection:
    n_mels: int = 80
    speaker_dim: int = 256
    encoder_blocks: int = 2
    model_dim: int = 64
    n_heads: int = 2
    frozen: bool = False
    donor_checkpoint: str = ""
    lstm_layers: int = 2
    lstm_dim: int = 64
    vq_groups: int = 2
    vq_entries: int = 128
    commitment_weight: float = 0.25
    adv_hidden: int = 128
    init_seed: int = 0


@dataclass(frozen=True)
class TrainSection:
    steps: int = 2000
    lr: float = 1e-4
    seed: int = 0
    batch_size: int = 1
    adversarial_weight: float = 0.1
    gamma: float = 1.0
    delta: float = 1.0
    checkpoint_every: int = 0


@dataclass(frozen=True)
class DataSection:
    corpus: str = ""
    speaker_map: str = ""


@dataclass(frozen=True)
class AugmentSection:
    n_freq_masks: int = 2
    max_freq_width: int = 10
    n_time_masks: int = 2
    max_time_width: int = 10
    mask_value: float = 0.0
    pool: str = "all"   # "all" or comma-separated speaker ids


@dataclass(frozen=True)
class RunConfig:
    model: ModelSection = field(default_factory=ModelSection)
    train: TrainSection = field(default_factory=TrainSection)
    data: DataSection = field(default_factory=DataSection)
    augment: AugmentSection = field(default_factory=AugmentSection)
    base_dir: str = field(default=".", compare=False)

    def resolve(self, path_str: str) -> Path:
        """Paths in the file are relative to the config file's directory."""
        p = Path(path_str)
        return p if p.is_absolute() else Path(self.base_dir) / p

    def model_config(self, n_speakers: int) -> ModelConfig:
        m = self.model
        try:
            return ModelConfig(
                n_mels=m.n_mels,
                n_speakers=n_speakers,
                speaker_dim=m.speaker_dim,
                encoder=EncoderConfig(
                    n_blocks=m.encoder_blocks,
                    model_dim=m.model_dim,
                    n_heads=m.n_heads,
                    frozen=m.frozen,
                ),
                decoder=DecoderConfig(n_lstm_layers=m.lstm_layers, lstm_dim=m.lstm_dim),
                vq_groups=m.vq_groups,
                vq_entries=m.vq_entries,
                commitment_weight=m.commitment_weight,
                adv_hidden=m.adv_hidden,
                seed=m.init_seed,
            )
        except ValueError as e:
            raise ConfigError(f"[model] {e}") from None

    def train_config(self, seed: int | None = None, out_dir: str | None = None) -> TrainConfig:
        t = self.train
        try:
            return TrainConfig(
                steps=t.steps,
                lr=t.lr,
                seed=t.seed if seed is None else seed,
                adversarial_weight=t.adversarial_weight,
                weights=LossWeights(gamma=t.gamma, delta=t.delta),
                batch_size=t.batch_size,
                checkpoint_every=t.checkpoint_every,
                out_dir=out_dir,
            )
        except ValueError as e:
            raise ConfigError(f"[train] {e}") from None

    def augment_policy(self) -> SpecAugmentPolicy:
        a = self.augment
        try:
            return SpecAugmentPolicy(
                n_freq_masks=a.n_freq_masks,
                max_freq_width=a.max_freq_width,
                n_time_masks=a.n_time_masks,
                max_time_width=a.max_time_width,
                mask_value=a.mask_value,
            )
        except ValueError as e:
            raise ConfigError(f"[augment] {e}") from None

    def canonical_text(self) -> str:
        """Stable serialization: sorted sections and keys, repr-style values."""
        sections = {"model": self.model, "train": self.train,
                    "data": self.data, "augment": self.augment}
        lines = []
        for name in sorted(sections):
            lines.append(f"[{name}]")
            section = sections[name]
            for f in sorted(fields(section), key=lambda f: f.name):
                value = getattr(section, f.name)
                if isinstance(value, bool):
                    value = "true" if value else "false"
                lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()


_SECTION_TYPES = {
    "model": ModelSection,
    "train": TrainSection,
    "data": DataSection,
    "augment": AugmentSection,
}


def _coerce(section: str, key: str, raw: str, target_type):
    try:
        if target_type is bool:
            lowered = raw.strip().lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return target_type(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} as {target_type.__name__}"
        ) from None


def parse_config_text(text: str, base_dir: str = ".", validate_paths: bool = False) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"malformed config: {e}") from None

    built = {}
    for section_name in parser.sections():
        if section_name not in _SECTION_TYPES:
            raise ConfigError(f"unknown section [{section_name}]")
        cls = _SECTION_TYPES[section_name]
        known = {f.name: f.type for f in fields(cls)}
        type_map = {f.name: type(getattr(cls(), f.name)) for f in fields(cls)}
        values = {}
        for key, raw in parser.items(section_name):
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section_name}]")
            values[key] = _coerce(section_name, key, raw, type_map[key])
        built[section_name] = cls(**values)

    cfg = RunConfig(
        model=built.get("model", ModelSection()),
        train=built.get("train", TrainSection()),
        data=built.get("data", DataSection()),
        augment=built.get("augment", AugmentSection()),
        base_dir=base_dir,
    )
    if validate_paths:
        _check_paths(cfg)
    return cfg


def _check_paths(cfg: RunConfig) -> None:
    for name, value in (
        ("data.corpus", cfg.data.corpus),
        ("data.speaker_map", cfg.data.speaker_map),
        ("model.donor_checkpoint", cfg.model.donor_checkpoint),
    ):
        if value and not cfg.resolve(value).exists():
            raise ConfigError(f"{name}: path does not exist: {cfg.resolve(value)}")


def load_config(path, validate_paths: bool = True) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    return parse_config_text(text, base_dir=str(path.parent), validate_paths=validate_paths)


def parse_pool(spec: str, n_speakers: int) -> tuple[int, ...]:
    """Pool field: "all" or comma-separated ids, validated against the model."""
    if spec.strip().lower() == "all":
        return tuple(range(n_speakers))
    try:
        ids = tuple(int(x) for x in spec.split(",") if x.strip())
    except ValueError:
        raise ConfigError(f"[augment] pool: cannot parse {spec!r}") from None
    bad = [i for i in ids if not 0 <= i < n_speakers]
    if bad:
        raise ConfigError(f"[augment] pool: speaker ids {bad} out of range [0, {n_speakers})")
    if not ids:
        raise ConfigError("[augment] pool: empty id list")
    return ids
