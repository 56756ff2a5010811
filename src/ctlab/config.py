"""Strict sectioned key-value run configuration.

Sections and keys are validated against one key table (`_TABLE`) before any
computation starts; unknown sections or keys are build-stopping errors that
name the offending entry.  Transforms are declared as numbered descriptor
lines that reference the generated world's templates and originals.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import operator
from dataclasses import dataclass

from .objectives import McConfig
from .svd import TruncationSpec
from .world import PROB_TOL, World, WorldSpec, build_transform

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config", "row_seed", "make_transforms"]


class ConfigError(ValueError):
    """Raised on unknown keys, bad values, or inconsistent settings."""


REQUIRED = object()  # the default of a key that has none
_CHECKS = ("t1", "t3", "t4", "corollaries")

# section -> key -> (field, kind, default, bound or allowed values).  World
# fields are WorldSpec's and their ranges WorldSpec.validate's, which loaded
# worlds share; the other fields are RunConfig's.  A bound is a comma-separated
# list of conditions on the value, or on each entry of a list.  Every float
# must also be finite, and the entries of an int list (a sweep) distinct.
_TABLE = {
    "run": {"seed": ("seed", "int", 0, None)},
    "world": {
        "k": ("K", "int", REQUIRED, None),
        "per_class": ("per_class", "int", 1, None),
        "m": ("m", "int", REQUIRED, None),
        "m_prime": ("m_prime", "int", REQUIRED, None),
        "q_star": ("q_star", "int", REQUIRED, None),
        "nuisance_rank": ("nuisance_rank", "int", 0, None),
        "nuisance_confusion": ("nuisance_confusion", "float", 0.0, None),
        "noise_scale": ("noise_scale", "float", 0.0, None),
        "seed": ("seed", "int", None, None),  # None: run.seed
    },
    "transforms": {"rho": ("rho", "float", 0.35, ">= 0, <= 1")},  # plus transform_N
    "svd": {
        "mode": (
            "svd_mode", "choice", "none", ("none", "keep_top_q", "discard_pair", "discard_single")
        ),
        "q": ("svd_q", "int", None, None),  # 0 counts as unset, like None
        "pair_index": ("svd_pair_index", "int", None, ">= 0"),  # 0 counts as unset
        "sweep": ("svd_sweep", "ints", (), None),
    },
    "train": {
        "loss": ("train_loss", "choice", "infonce", ("infonce", "spectral")),
        "k": ("train_k", "int", 3, ">= 1"),
        "k_sweep": ("train_k_sweep", "ints", (), ">= 1"),
        "steps": ("train_steps", "int", 30, ">= 0"),
        "step_size": ("train_step_size", "float", 1.0, "> 0"),
        "m": ("train_M", "int", 1, ">= 1"),
    },
    "probe": {
        "steps": ("probe_steps", "int", 300, ">= 0"),
        "step_size": ("probe_step_size", "float", 2.0, "> 0"),
        "l2": ("probe_l2", "float", 0.0, ">= 0"),
    },
    "bounds": {
        "which": ("bounds_which", "choices", _CHECKS, _CHECKS),
        "mc_samples": ("mc_samples", "int", McConfig.samples, ">= 1"),
        "mc_replicates": ("mc_replicates", "int", McConfig.replicates, ">= 2"),
        "n_max": ("mc_n_max", "int", McConfig.n_max, ">= 1"),
        "m_max": ("mc_m_max", "int", McConfig.m_max, ">= 1"),
    },
    "inflation": {"factor": ("inflation_factor", "int", 1, ">= 1")},
    "output": {
        "directory": ("output_directory", "str", "artifacts", None),
        "formats": ("output_formats", "choices", ("csv", "text"), ("csv", "text")),
    },
}

# kind -> (parser of the raw text, what the text must be)
_KINDS = {
    "int": (int, "integer"),
    "float": (float, "number"),
    "ints": (lambda raw: [int(v) for v in raw.split(",")] if raw.strip() else [],
             "comma-separated integers"),
    "choice": (str, None),
    "choices": (lambda raw: [v.strip() for v in raw.split(",") if v.strip()], None),
    "str": (str, None),
}
_OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le}

# transform kind -> number of integer arguments before the probability
_ARITY = {"identity": 0, "flip": 2, "bridge": 2, "sibling": 1, "block_mask": 4}


@dataclass
class RunConfig:
    seed: int
    world: WorldSpec
    transform_descriptors: list  # (name, kind, args tuple, probability)
    rho: float
    svd_mode: str
    svd_q: int | None
    svd_pair_index: int | None
    svd_sweep: list
    train_loss: str
    train_k: int
    train_k_sweep: list
    train_steps: int
    train_step_size: float
    train_M: int
    probe_steps: int
    probe_step_size: float
    probe_l2: float
    bounds_which: list
    mc_samples: int
    mc_replicates: int
    mc_n_max: int
    mc_m_max: int
    inflation_factor: int
    output_directory: str
    output_formats: list

    def truncation(self) -> TruncationSpec | None:
        """The [svd] section's truncation of the raw originals; None for mode none."""
        if self.svd_mode == "none":
            return None
        if self.svd_mode == "keep_top_q":
            return TruncationSpec(mode="keep_top_q", q=self.svd_q)
        return TruncationSpec(mode=self.svd_mode, pair_index=self.svd_pair_index)

    def mc_config(self, seed: int) -> McConfig:
        """Monte Carlo settings of the [bounds] section, keyed by a row seed."""
        return McConfig(samples=self.mc_samples, replicates=self.mc_replicates, seed=seed,
                        n_max=self.mc_n_max, m_max=self.mc_m_max)

    def echo(self) -> list[str]:
        """Sorted `section.key = value` lines of every section but [run] and [output].

        World keys are echoed under their WorldSpec field names.
        """
        items = {
            f"transforms.{name}": f"{kind} {' '.join(map(str, args))} {prob}".replace("  ", " ")
            for name, kind, args, prob in self.transform_descriptors
        }
        for section, keys in _TABLE.items():
            if section in ("run", "output"):
                continue
            for key, (name, *_) in keys.items():
                if section == "world":
                    items[f"world.{name}"] = getattr(self.world, name)
                else:
                    items[f"{section}.{key}"] = getattr(self, name)
        return [f"{item} = {items[item]}" for item in sorted(items)]


def row_seed(global_seed: int, row_key: str) -> int:
    """Stable per-row seed independent of sweep order and worker schedule."""
    digest = hashlib.sha256(f"{global_seed}:{row_key}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")


def load_config(path: str, overrides=()) -> RunConfig:
    parser = configparser.ConfigParser(strict=True, interpolation=None)
    parser.optionxform = str
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from None
    for item in overrides:
        target, eq, value = item.partition("=")
        section, dot, key = target.partition(".")
        if not (eq and dot):
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)
    return parse_config(parser)


def _value(where, kind, raw, bound):
    """Parse one raw entry of the table's `kind` and check it against `bound`."""
    parse, expected = _KINDS[kind]
    try:
        value = parse(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected {expected}, got {raw!r}") from None
    if kind == "float" and not math.isfinite(value):
        raise ConfigError(f"{where}: must be finite, got {value}")
    if kind == "ints" and len(set(value)) < len(value):
        repeated = next(v for i, v in enumerate(value) if v in value[:i])
        raise ConfigError(f"{where}: entry {repeated} repeated")
    values = value if kind in ("ints", "choices") else [value]
    if kind in ("choice", "choices"):
        for v in values:
            if v not in bound:
                allowed = ", ".join(bound)
                raise ConfigError(f"{where}: unknown value {v!r}, expected one of {allowed}")
    elif bound is not None:
        for v in values:
            for condition in bound.split(","):
                op, limit = condition.split()
                if not _OPS[op](v, type(v)(limit)):
                    raise ConfigError(f"{where}: must be {op} {limit}, got {v}")
    return value


def _descriptor(name, text):
    """(name, kind, integer args, probability) of one transform_N entry."""
    where = f"transforms.{name}"
    parts = text.split()
    if not parts:
        raise ConfigError(f"{where}: empty descriptor")
    kind, *rest = parts
    if kind not in _ARITY:
        raise ConfigError(f"{where}: unknown kind {kind!r}")
    if len(rest) != _ARITY[kind] + 1:
        raise ConfigError(
            f"{where}: {kind} takes {_ARITY[kind]} integers and a probability, got {text!r}"
        )
    args = tuple(_value(where, "int", v, None) for v in rest[:-1])
    return name, kind, args, _value(where, "float", rest[-1], None)


def parse_config(parser: configparser.ConfigParser) -> RunConfig:
    for section in parser.sections():
        if section not in _TABLE:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            descriptor = key[:10] == "transform_" and key[10:].isdecimal()
            if key not in _TABLE[section] and not (section == "transforms" and descriptor):
                raise ConfigError(f"unknown key {section}.{key}")
    for section in ("world", "transforms"):
        if not parser.has_section(section):
            raise ConfigError(f"missing required section [{section}]")

    fields, world = {}, {}
    for section, keys in _TABLE.items():
        entries = parser[section] if parser.has_section(section) else {}
        for key, (name, kind, default, bound) in keys.items():
            raw = entries.get(key)
            if raw is not None:
                value = _value(f"{section}.{key}", kind, raw, bound)
            elif default is REQUIRED:
                raise ConfigError(f"{section}.{key}: required key missing")
            else:
                value = list(default) if isinstance(default, tuple) else default
            (world if section == "world" else fields)[name] = value

    if world["seed"] is None:
        world["seed"] = fields["seed"]
    spec = WorldSpec(**world)
    try:
        spec.validate()
    except ValueError as exc:  # named by the keys of the spec fields it read
        keys = [f"world.{k}" for k, (name, *_) in _TABLE["world"].items() if name in exc.fields]
        raise ConfigError(f"{'/'.join(keys)}: {exc}") from None

    t = parser["transforms"]
    numbered = sorted((k for k in t if k not in _TABLE["transforms"]), key=lambda k: int(k[10:]))
    if not numbered:
        raise ConfigError("transforms: at least one transform_N required")
    cfg = RunConfig(world=spec, transform_descriptors=[_descriptor(k, t[k]) for k in numbered],
                    **fields)

    cfg.svd_q, cfg.svd_pair_index = cfg.svd_q or None, cfg.svd_pair_index or None
    # each rank set, then the baseline row's truncation, named by the key it reads
    named = [("svd.q", TruncationSpec(mode="keep_top_q", q=cfg.svd_q))] if cfg.svd_q else []
    named += [("svd.sweep", TruncationSpec(mode="keep_top_q", q=q)) for q in cfg.svd_sweep]
    if cfg.svd_mode != "none":
        named.append(("svd.q" if cfg.svd_mode == "keep_top_q" else "svd.pair_index",
                      cfg.truncation()))
    for key, trunc in named:
        try:
            trunc.validate(min(spec.m, spec.m_prime))
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    return cfg


def make_transforms(cfg: RunConfig, world: World):
    """Materialize transform descriptors against a generated world."""
    try:
        transforms = [build_transform(world, *d, cfg.rho) for d in cfg.transform_descriptors]
    except ValueError as exc:  # led by the transform's id, which is its key's name
        raise ConfigError(f"transforms.{exc}") from None
    total = sum(t.probability for t in transforms)
    if abs(total - 1.0) > PROB_TOL:
        raise ConfigError(f"transforms: probabilities sum to {total}, expected 1")
    return transforms
