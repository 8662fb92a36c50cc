"""Run configuration: INI-style sections with strict key checking.

Sections: [model] (architecture), [train] (loop and loss weights), [data]
(corpus locations), [augment] (masking policy and target pool).  Each
section parses into one frozen dataclass whose fields are its keys, with
the same names and defaults; the defaults give the keys' types.  [model]
parses into `ModelConfig`, [train] into `TrainConfig` and [augment] into
`SpecAugmentPolicy`, the types their readers take, with the exceptions
`RunConfig.keys` states.  Unknown sections or keys are rejected, referenced
paths are checked at load time, and the canonical text form has a stable
hash that is recorded into checkpoints.  A file that cannot be read, or a
value its section's dataclass rejects, raises `ConfigError` from
`load_config`, naming the key.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .model import ModelConfig
from .signal import SpecAugmentPolicy
from .training import LossWeights, TrainConfig


class ConfigError(ValueError):
    """Bad configuration file; the message names the offending key or path."""


@dataclass(frozen=True)
class DataSection:
    corpus: str = ""
    speaker_map: str = ""


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataSection = field(default_factory=DataSection)
    augment: SpecAugmentPolicy = field(default_factory=SpecAugmentPolicy)
    donor_checkpoint: str = ""   # a [model] key: see `keys`
    pool: str = "all"            # an [augment] key, "all" or speaker ids: see `keys`
    base_dir: str = field(default=".", compare=False)

    def keys(self, section: str) -> dict:
        """Each key of `section` and its value here.

        A section's keys are the fields of its dataclass, with these
        exceptions.  In [model], `n_speakers` is not a key, since the
        speaker map gives it; and `donor_checkpoint` is a key held here, not
        on `ModelConfig`, since a path is not architecture and a model's
        config snapshot should not record it.  In [train], `weights` is not
        a key but its fields `gamma` and `delta` are, since the loss reads
        them from one `LossWeights`.  In [augment], `pool` is a key held
        here, not on `SpecAugmentPolicy`, since it picks targets rather than
        masks.
        """
        part = getattr(self, section)
        keys = {f.name: getattr(part, f.name) for f in fields(part)}
        if section == "model":
            del keys["n_speakers"]
        if section == "train":
            keys.update(asdict(keys.pop("weights")))
        if section in _RUN_KEYS:
            keys[_RUN_KEYS[section]] = getattr(self, _RUN_KEYS[section])
        return keys

    def resolve(self, path_str: str) -> Path:
        """Paths in the file are relative to the config file's directory."""
        p = Path(path_str)
        return p if p.is_absolute() else Path(self.base_dir) / p

    def model_config(self, n_speakers: int) -> ModelConfig:
        return replace(self.model, n_speakers=n_speakers)

    def train_config(self, seed: int | None = None) -> TrainConfig:
        """[train], with `seed` in place of its seed when given."""
        return self.train if seed is None else replace(self.train, seed=seed)

    def augment_policy(self) -> SpecAugmentPolicy:
        return self.augment

    def canonical_text(self) -> str:
        """Stable serialization: sorted sections and keys, repr-style values."""
        lines = []
        for name in sorted(_SECTION_TYPES):
            lines.append(f"[{name}]")
            for key, value in sorted(self.keys(name).items()):
                if isinstance(value, bool):
                    value = "true" if value else "false"
                lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()


# the keys held on `RunConfig`, not on their section's dataclass: see `RunConfig.keys`
_RUN_KEYS = {"model": "donor_checkpoint", "augment": "pool"}

_SECTION_TYPES = {
    "model": ModelConfig,
    "train": TrainConfig,
    "data": DataSection,
    "augment": SpecAugmentPolicy,
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

    defaults = RunConfig()
    sections, run_keys = {}, {}
    for name in parser.sections():
        if name not in _SECTION_TYPES:
            raise ConfigError(f"unknown section [{name}]")
        known = defaults.keys(name)
        values = {}
        for key, raw in parser.items(name):
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in section [{name}]")
            values[key] = _coerce(name, key, raw, type(known[key]))
        run_key = _RUN_KEYS.get(name)
        if run_key in values:
            run_keys[run_key] = values.pop(run_key)
        try:
            if name == "train":
                values["weights"] = LossWeights(**{f.name: values.pop(f.name)
                                                  for f in fields(LossWeights) if f.name in values})
            sections[name] = _SECTION_TYPES[name](**values)
        except ValueError as e:
            raise ConfigError(f"[{name}] {e}") from None

    cfg = RunConfig(**sections, **run_keys, base_dir=base_dir)
    if validate_paths:
        _check_paths(cfg)
    return cfg


def _check_paths(cfg: RunConfig) -> None:
    for name, value in (
        ("data.corpus", cfg.data.corpus),
        ("data.speaker_map", cfg.data.speaker_map),
        ("model.donor_checkpoint", cfg.donor_checkpoint),
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
    """Pool field: "all" or comma-separated distinct ids, validated against the model."""
    if spec.strip().lower() == "all":
        return tuple(range(n_speakers))
    try:
        ids = tuple(int(x) for x in spec.split(",") if x.strip())
    except ValueError:
        raise ConfigError(f"[augment] pool: cannot parse {spec!r}") from None
    bad = [i for i in ids if not 0 <= i < n_speakers]
    if bad:
        raise ConfigError(f"[augment] pool: speaker ids {bad} out of range [0, {n_speakers})")
    repeated = sorted({i for i in ids if ids.count(i) > 1})
    if repeated:
        raise ConfigError(f"[augment] pool: speaker ids {repeated} repeat")
    if not ids:
        raise ConfigError("[augment] pool: empty id list")
    return ids
