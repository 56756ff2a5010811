"""Strict sectioned key-value run configuration.

Sections and keys are validated against a fixed schema before any
computation starts; unknown sections or keys are build-stopping errors that
name the offending entry.  Transforms are declared as numbered descriptor
lines that reference the generated world's templates and originals.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field

from .objectives import McConfig, ProbeConfig
from .svd import TruncationSpec
from .world import PROB_TOL, World, WorldSpec, build_transform

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config", "row_seed", "make_transforms"]


class ConfigError(ValueError):
    """Raised on unknown keys, bad values, or inconsistent settings."""


_SCHEMA = {
    "run": {"seed"},
    "world": {
        "k", "per_class", "m", "m_prime", "q_star", "nuisance_rank",
        "nuisance_confusion", "noise_scale", "seed",
    },
    "transforms": None,  # rho plus numbered transform_N keys, checked separately
    "svd": {"mode", "q", "pair_index", "sweep"},
    "train": {"loss", "k", "k_sweep", "steps", "step_size", "m"},
    "probe": {"steps", "step_size", "l2"},
    "bounds": {"which", "mc_samples", "mc_replicates", "n_max", "m_max"},
    "inflation": {"factor"},
    "output": {"directory", "formats"},
}

_BOUND_NAMES = ("t1", "t3", "t4", "corollaries")


@dataclass
class RunConfig:
    seed: int
    world: WorldSpec
    transform_descriptors: list  # (name, kind, args tuple, probability)
    rho: float
    svd_mode: str                # "none" | "keep_top_q" | "discard_pair" | "discard_single"
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
    output_formats: list = field(default_factory=lambda: ["csv"])

    def truncation(self, q=None) -> TruncationSpec | None:
        mode = self.svd_mode
        if q is not None:
            return TruncationSpec(mode="keep_top_q", q=q)
        if mode == "none":
            return None
        if mode == "keep_top_q":
            return TruncationSpec(mode=mode, q=self.svd_q)
        return TruncationSpec(mode=mode, pair_index=self.svd_pair_index)

    def mc_config(self, seed: int) -> McConfig:
        """Monte Carlo settings of the [bounds] section, keyed by a row seed."""
        return McConfig(
            samples=self.mc_samples,
            replicates=self.mc_replicates,
            seed=seed,
            n_max=self.mc_n_max,
            m_max=self.mc_m_max,
        )


def row_seed(global_seed: int, row_key: str) -> int:
    """Stable per-row seed independent of sweep order and worker schedule."""
    digest = hashlib.sha256(f"{global_seed}:{row_key}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")


def _getint(sec, key, default=None, minimum=None):
    raw = sec.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"{sec.name}.{key}: required key missing")
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{sec.name}.{key}: expected integer, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"{sec.name}.{key}: must be >= {minimum}, got {value}")
    return value


def _getfloat(sec, key, default=None, minimum=None, strict=False):
    """Float entry; with minimum, it must be finite and >= minimum (> if strict)."""
    raw = sec.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"{sec.name}.{key}: required key missing")
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{sec.name}.{key}: expected number, got {raw!r}") from None
    if minimum is not None and not (
        math.isfinite(value) and (value > minimum if strict else value >= minimum)
    ):
        bound = ">" if strict else ">="
        raise ConfigError(
            f"{sec.name}.{key}: must be finite and {bound} {minimum}, got {value}"
        )
    return value


def _int_list(sec, key):
    raw = sec.get(key, "").strip()
    if not raw:
        return []
    try:
        return [int(v.strip()) for v in raw.split(",")]
    except ValueError:
        raise ConfigError(f"{sec.name}.{key}: expected comma-separated integers") from None


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
        if "=" not in item:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        target, _, value = item.partition("=")
        if "." not in target:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        section, _, key = target.partition(".")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)
    return parse_config(parser)


def parse_config(parser: configparser.ConfigParser) -> RunConfig:
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        allowed = _SCHEMA[section]
        if allowed is None:
            for key in parser[section]:
                if key != "rho" and not key.startswith("transform_"):
                    raise ConfigError(f"unknown key transforms.{key}")
        else:
            for key in parser[section]:
                if key not in allowed:
                    raise ConfigError(f"unknown key {section}.{key}")

    def sec(name):
        return parser[name] if parser.has_section(name) else parser["DEFAULT"]

    run = sec("run")
    seed = _getint(run, "seed", 0)

    if not parser.has_section("world"):
        raise ConfigError("missing required section [world]")
    w = sec("world")
    world = WorldSpec(
        K=_getint(w, "k", minimum=2),
        per_class=_getint(w, "per_class", 1, minimum=1),
        m=_getint(w, "m", minimum=1),
        m_prime=_getint(w, "m_prime", minimum=1),
        q_star=_getint(w, "q_star", minimum=1),
        nuisance_rank=_getint(w, "nuisance_rank", 0, minimum=0),
        nuisance_confusion=_getfloat(w, "nuisance_confusion", 0.0),
        noise_scale=_getfloat(w, "noise_scale", 0.0),
        seed=_getint(w, "seed", seed),
    )
    try:
        world.validate()
    except ValueError as exc:
        raise ConfigError(f"world: {exc}") from None

    if not parser.has_section("transforms"):
        raise ConfigError("missing required section [transforms]")
    t = sec("transforms")
    rho = _getfloat(t, "rho", 0.35)
    descriptors = []
    numbered = sorted(
        (k for k in t if k.startswith("transform_")),
        key=lambda k: int(k.split("_", 1)[1]) if k.split("_", 1)[1].isdigit() else -1,
    )
    for key in numbered:
        suffix = key.split("_", 1)[1]
        if not suffix.isdigit():
            raise ConfigError(f"transforms.{key}: expected transform_<number>")
        parts = t[key].split()
        if not parts:
            raise ConfigError(f"transforms.{key}: empty descriptor")
        kind = parts[0]
        try:
            if kind == "identity":
                (prob,) = map(float, parts[1:])
                args = ()
            elif kind in ("flip", "bridge"):
                c, wcls = int(parts[1]), int(parts[2])
                prob = float(parts[3])
                args = (c, wcls)
            elif kind == "sibling":
                c = int(parts[1])
                prob = float(parts[2])
                args = (c,)
            elif kind == "block_mask":
                r0, r1, c0, c1 = map(int, parts[1:5])
                prob = float(parts[5])
                args = (r0, r1, c0, c1)
            else:
                raise ConfigError(f"transforms.{key}: unknown kind {kind!r}")
        except (ValueError, IndexError):
            raise ConfigError(
                f"transforms.{key}: malformed descriptor {t[key]!r}"
            ) from None
        descriptors.append((key, kind, args, prob))
    if not descriptors:
        raise ConfigError("transforms: at least one transform_N required")

    s = sec("svd")
    svd_mode = s.get("mode", "none")
    if svd_mode not in ("none", "keep_top_q", "discard_pair", "discard_single"):
        raise ConfigError(f"svd.mode: unknown mode {svd_mode!r}")
    svd_q = _getint(s, "q", 0) or None
    svd_pair = _getint(s, "pair_index", 0) or None
    svd_sweep = _int_list(s, "sweep")
    rank_bound = min(world.m, world.m_prime)
    for q in ([svd_q] if svd_q else []) + svd_sweep:
        if not (1 <= q <= rank_bound):
            raise ConfigError(f"svd.q: q={q} out of range [1, {rank_bound}]")
    if svd_mode == "keep_top_q" and svd_q is None and not svd_sweep:
        raise ConfigError("svd.q: required when mode = keep_top_q")
    if svd_mode in ("discard_pair", "discard_single") and svd_pair is None:
        raise ConfigError("svd.pair_index: required for discard modes")

    tr = sec("train")
    train_loss = tr.get("loss", "infonce")
    if train_loss not in ("infonce", "spectral"):
        raise ConfigError(f"train.loss: unknown loss {train_loss!r}")
    train_k = _getint(tr, "k", 3, minimum=1)
    train_k_sweep = _int_list(tr, "k_sweep")
    train_steps = _getint(tr, "steps", 30, minimum=0)
    train_step_size = _getfloat(tr, "step_size", 1.0, minimum=0.0, strict=True)
    train_M = _getint(tr, "m", 1, minimum=1)

    p = sec("probe")
    probe_steps = _getint(p, "steps", ProbeConfig.steps, minimum=0)
    probe_step_size = _getfloat(
        p, "step_size", ProbeConfig.step_size, minimum=0.0, strict=True
    )
    probe_l2 = _getfloat(p, "l2", ProbeConfig.l2, minimum=0.0)

    b = sec("bounds")
    which_raw = b.get("which", "t1,t3,t4,corollaries")
    which = [v.strip() for v in which_raw.split(",") if v.strip()]
    for name in which:
        if name not in _BOUND_NAMES:
            raise ConfigError(f"bounds.which: unknown check {name!r}")
    mc_samples = _getint(b, "mc_samples", McConfig.samples, minimum=1)
    mc_replicates = _getint(b, "mc_replicates", McConfig.replicates, minimum=2)
    mc_n_max = _getint(b, "n_max", McConfig.n_max, minimum=1)
    mc_m_max = _getint(b, "m_max", McConfig.m_max, minimum=1)

    i = sec("inflation")
    inflation = _getint(i, "factor", 1, minimum=1)

    o = sec("output")
    out_dir = o.get("directory", "artifacts")
    formats = [v.strip() for v in o.get("formats", "csv,text").split(",") if v.strip()]
    for fmt in formats:
        if fmt not in ("csv", "text"):
            raise ConfigError(f"output.formats: unknown format {fmt!r}")

    return RunConfig(
        seed=seed,
        world=world,
        transform_descriptors=descriptors,
        rho=rho,
        svd_mode=svd_mode,
        svd_q=svd_q,
        svd_pair_index=svd_pair,
        svd_sweep=svd_sweep,
        train_loss=train_loss,
        train_k=train_k,
        train_k_sweep=train_k_sweep,
        train_steps=train_steps,
        train_step_size=train_step_size,
        train_M=train_M,
        probe_steps=probe_steps,
        probe_step_size=probe_step_size,
        probe_l2=probe_l2,
        bounds_which=which,
        mc_samples=mc_samples,
        mc_replicates=mc_replicates,
        mc_n_max=mc_n_max,
        mc_m_max=mc_m_max,
        inflation_factor=inflation,
        output_directory=out_dir,
        output_formats=formats,
    )


def make_transforms(cfg: RunConfig, world: World):
    """Materialize transform descriptors against a generated world."""
    total = 0.0
    for name, kind, args, prob in cfg.transform_descriptors:
        total += prob
        if kind in ("flip", "bridge", "sibling"):
            for c in args:
                _check_class(cfg, name, c)
        if kind == "sibling" and cfg.world.per_class < 2:
            raise ConfigError(f"transforms.{name}: sibling needs world.per_class >= 2")
    if abs(total - 1.0) > PROB_TOL:
        raise ConfigError(f"transforms: probabilities sum to {total}, expected 1")
    return [build_transform(world, *d, cfg.rho) for d in cfg.transform_descriptors]


def _check_class(cfg, name, c):
    if not (0 <= c < cfg.world.K):
        raise ConfigError(f"transforms.{name}: class {c} out of range [0, {cfg.world.K - 1}]")
