"""Finite synthetic augmentation worlds with a planted semantic rank.

A world holds a small set of original samples (dense matrices), a uniform
distribution over them, and per-class rank-q* templates.  All payloads are
linear combinations of one shared orthonormal direction frame with disjoint
slots per class, so every quantity below (labels, labeling error, truncation
effects) is exactly computable:

  * slot 0 (when q* >= 2) carries a class-neutral background direction with
    the largest singular value;
  * each class owns q* - 1 distinguishing slots with a descending band of
    singular values;
  * the wrong-class signal of an original is a set of coefficients on
    another class's distinguishing slots, capped strictly below the smallest
    semantic singular value, so keep_top_q at q* removes it exactly when
    noise_scale = 0.

Applying a finite transform set yields an augmented space whose conditional
tables, marginal, and positive-pair joint are exact rational-weight objects
carried in float64.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    as_matrix,
    gaussian_matrix,
    load_matrix_text,
    orthonormalize,
    save_matrix_text,
)
from .svd import TruncationSpec, svd_full, svd_truncate

__all__ = [
    "WorldSpec",
    "World",
    "Transform",
    "AugmentedSpace",
    "LabelingReport",
    "PROB_TOL",
    "VIEW_TOL",
    "generate_world",
    "build_transform",
    "ground_truth_label",
    "apply_transform",
    "build_augmented_space",
    "labeling_error",
    "preprocess_world",
    "inflate",
    "save_world",
    "load_world",
]

PROB_TOL = 1e-12  # how far transform or original probabilities may sum from 1
VIEW_TOL = 1e-6  # distinct views must differ by more than this in some entry

# singular value plan for the planted construction
_BACKGROUND_SIGMA = 8.0
_DIST_SIGMA_MAX = 5.0
_DIST_SIGMA_MIN = 4.0
_NUISANCE_CAP = 0.85  # nuisance coefficients as a fraction of the smallest
                      # semantic singular value


@dataclass(frozen=True)
class WorldSpec:
    K: int
    per_class: int
    m: int
    m_prime: int
    q_star: int
    nuisance_rank: int
    nuisance_confusion: float
    noise_scale: float
    seed: int

    def validate(self) -> None:
        if self.K < 2:
            raise ValueError(f"WorldSpec: K must be >= 2, got {self.K}")
        if self.per_class < 1:
            raise ValueError("WorldSpec: per_class must be >= 1")
        if self.q_star < 1:
            raise ValueError("WorldSpec: q_star must be >= 1")
        if self.nuisance_rank < 0:
            raise ValueError("WorldSpec: nuisance_rank must be >= 0")
        if self.q_star + self.nuisance_rank > min(self.m, self.m_prime):
            raise ValueError(
                "WorldSpec: q_star + nuisance_rank exceeds min(m, m')"
            )
        if not (0.0 <= self.nuisance_confusion <= 1.0):
            raise ValueError("WorldSpec: nuisance_confusion must be in [0, 1]")
        if not (0.0 <= self.noise_scale < np.inf):
            raise ValueError("WorldSpec: noise_scale must be finite and >= 0")


@dataclass(frozen=True)
class World:
    originals: tuple  # tuple of (id: str, payload: np.ndarray, label: int)
    weights: np.ndarray  # positive probabilities, sum to 1
    templates: tuple  # K class template matrices
    spec: WorldSpec

    @property
    def n_originals(self) -> int:
        return len(self.originals)

    def labels(self) -> np.ndarray:
        return np.array([o[2] for o in self.originals], dtype=int)


@dataclass(frozen=True)
class Transform:
    """One member of a finite augmentation family.

    kind "block_mask" zeroes the rectangle rows [r0, r1) x cols [c0, c1);
    kind "additive_pattern" adds a fixed pattern matrix; "identity" is a
    no-op.  probability is the chance of drawing this transform.
    """

    id: str
    kind: str  # "identity" | "block_mask" | "additive_pattern"
    probability: float
    params: tuple = ()
    pattern: np.ndarray | None = None


def apply_transform(t: Transform, X: np.ndarray) -> np.ndarray:
    if t.kind == "identity":
        return X.copy()
    if t.kind == "block_mask":
        r0, r1, c0, c1 = t.params
        out = X.copy()
        out[r0:r1, c0:c1] = 0.0
        return out
    if t.kind == "additive_pattern":
        if t.pattern is None:
            raise ValueError(f"transform {t.id}: additive_pattern without pattern")
        return X + t.pattern
    raise ValueError(f"transform {t.id}: unknown kind {t.kind!r}")


@dataclass(frozen=True)
class AugmentedSpace:
    """Deduplicated augmented samples with exact probability tables."""

    payloads: tuple                # n node payload matrices
    labels: np.ndarray             # (n,) true labels of the nodes
    cond: np.ndarray               # (N_orig, n), rows sum to 1
    marginal: np.ndarray           # (n,), sums to 1
    joint: np.ndarray              # (n, n) positive-pair joint p(x, x+)
    node_ids: tuple                # stable node identifiers
    K: int                         # class count of the world

    @property
    def n(self) -> int:
        return len(self.payloads)

    @cached_property
    def support(self):
        """(xs, ys, w) of the joint's nonzero cells, row-major; cached, so read-only."""
        xs, ys = np.nonzero(self.joint)
        return xs, ys, self.joint[xs, ys]

    def positive_mask(self) -> np.ndarray:
        """Boolean (n, n) mask of label-consistent pairs (the X+ set)."""
        return self.labels[:, None] == self.labels[None, :]


@dataclass(frozen=True)
class LabelingReport:
    alpha: float
    per_class_alpha: np.ndarray  # conditional flip probability per class


# ---------------------------------------------------------------------------
# world generation


def _slot_layout(spec: WorldSpec):
    """Frame slot bookkeeping for the planted construction."""
    n_shared = 1 if spec.q_star >= 2 else 0
    dist = spec.q_star - n_shared
    extra = max(0, spec.nuisance_rank - dist)
    total = n_shared + spec.K * dist + spec.K * extra
    return n_shared, dist, extra, total


def _dist_sigmas(count: int) -> np.ndarray:
    if count == 0:
        return np.zeros(0)
    if count == 1:
        return np.array([_DIST_SIGMA_MAX])
    return np.linspace(_DIST_SIGMA_MAX, _DIST_SIGMA_MIN, count)


def _frames(spec: WorldSpec, total: int):
    U = orthonormalize(gaussian_matrix(spec.m, total, spec.seed * 7919 + 13))
    V = orthonormalize(gaussian_matrix(spec.m_prime, total, spec.seed * 7919 + 101))
    return U, V


def _dist_slots(spec: WorldSpec, c: int):
    n_shared, dist, _extra, _ = _slot_layout(spec)
    start = n_shared + c * dist
    return list(range(start, start + dist))


def _extra_slots(spec: WorldSpec, c: int):
    n_shared, dist, extra, _ = _slot_layout(spec)
    start = n_shared + spec.K * dist + c * extra
    return list(range(start, start + extra))


def _wrong_class(spec: WorldSpec, c: int, variant: int) -> int:
    w = (c + 1 + variant % max(1, spec.K - 1)) % spec.K
    if w == c:
        w = (c + 1) % spec.K
    return w


def generate_world(spec: WorldSpec) -> World:
    """Plant K class templates of rank q* plus per-original wrong-class signal.

    Deterministic for a fixed spec (seed included); the nuisance target
    class cycles with the within-class original index, so inflation can
    reproduce the exact payload distribution.

    The construction needs one frame slot per planted direction; specs whose
    slot budget exceeds min(m, m') are rejected with a diagnostic.
    """
    spec.validate()
    if spec.q_star < 2:
        raise ValueError(
            "WorldSpec: q_star = 1 leaves no class-distinguishing direction "
            "beside the shared background; use q_star >= 2"
        )
    n_shared, dist, extra, total = _slot_layout(spec)
    if total > min(spec.m, spec.m_prime):
        raise ValueError(
            f"WorldSpec: planted construction needs {total} direction slots "
            f"(shared {n_shared} + K*dist {spec.K}*{dist} + K*extra "
            f"{spec.K}*{extra}) but min(m, m') = {min(spec.m, spec.m_prime)}"
        )
    U, V = _frames(spec, total)
    sig_dist = _dist_sigmas(dist)
    templates = []
    for c in range(spec.K):
        T = np.zeros((spec.m, spec.m_prime))
        if n_shared:
            T += _BACKGROUND_SIGMA * np.outer(U[:, 0], V[:, 0])
        for j, s in zip(_dist_slots(spec, c), sig_dist):
            T += s * np.outer(U[:, j], V[:, j])
        templates.append(as_matrix(T))

    originals = []
    idx = 0
    for c in range(spec.K):
        for j in range(spec.per_class):
            payload = _planted_original(spec, U, V, templates, c, j, idx)
            label = ground_truth_label(payload, templates)
            originals.append((f"o{idx:04d}", payload, label))
            idx += 1
    weights = np.full(len(originals), 1.0 / len(originals))
    world = World(
        originals=tuple(originals),
        weights=weights,
        templates=tuple(templates),
        spec=spec,
    )
    _check_self_consistency(world)
    return world


def _planted_original(spec, U, V, templates, c, variant, noise_key) -> np.ndarray:
    payload = templates[c].copy()
    _n_shared, dist, extra, _total = _slot_layout(spec)
    conf = spec.nuisance_confusion
    if conf > 0.0 and spec.nuisance_rank > 0:
        w = _wrong_class(spec, c, variant)
        cap = _NUISANCE_CAP * _DIST_SIGMA_MIN
        # wrong-class signal: coefficients on w's distinguishing slots,
        # strictly descending to keep the singular ordering unambiguous
        n_wrong = min(spec.nuisance_rank, dist)
        for j in range(n_wrong):
            slot = _dist_slots(spec, w)[j]
            coeff = conf * cap * (0.95 ** j)
            payload = payload + coeff * np.outer(U[:, slot], V[:, slot])
        # class-neutral filler for any remaining nuisance rank
        for j in range(spec.nuisance_rank - n_wrong):
            slot = _extra_slots(spec, c)[j]
            coeff = conf * cap * 0.5 * (0.95 ** j)
            payload = payload + coeff * np.outer(U[:, slot], V[:, slot])
    if spec.noise_scale > 0.0:
        noise = gaussian_matrix(
            spec.m, spec.m_prime, spec.seed * 104729 + 7 + noise_key
        )
        payload = payload + spec.noise_scale * noise
    return payload


def class_pattern(world: World, c: int, w: int, scale: float) -> np.ndarray:
    """Additive pattern scale * (template_w - template_c).

    The shared background direction cancels, so the pattern moves content
    from class c's distinguishing directions toward class w's.
    """
    return scale * (world.templates[w] - world.templates[c])


def build_transform(
    world: World, tid: str, kind: str, args: tuple, probability: float, rho: float
) -> Transform:
    """Materialize one transform descriptor against a world.

    kind "identity" takes no args; "flip" (c, w) adds the class pattern
    rho * (T_w - T_c) and "bridge" (c, w) adds (rho - 1) * (T_w - T_c);
    "sibling" (c,) adds the payload difference of class c's first two
    originals; "block_mask" (r0, r1, c0, c1) zeroes that rectangle.
    """
    if kind == "identity":
        return Transform(id=tid, kind="identity", probability=probability)
    if kind == "block_mask":
        return Transform(id=tid, kind="block_mask", probability=probability, params=args)
    if kind == "flip":
        pattern = class_pattern(world, *args, rho)
    elif kind == "bridge":
        pattern = class_pattern(world, *args, rho - 1.0)
    elif kind == "sibling":
        base = args[0] * world.spec.per_class
        pattern = world.originals[base + 1][1] - world.originals[base][1]
    else:
        raise ValueError(f"transform {tid}: unknown kind {kind!r}")
    return Transform(
        id=tid, kind="additive_pattern", probability=probability, pattern=pattern
    )


def ground_truth_label(payload, templates) -> int:
    """Nearest class template under Frobenius distance, ties to smallest index."""
    payload = as_matrix(payload, "ground_truth_label payload")
    if payload.shape != templates[0].shape:
        raise ValueError(
            f"payload shape {payload.shape} does not match templates "
            f"{templates[0].shape}"
        )
    dists = [float(np.linalg.norm(payload - T)) for T in templates]
    return int(np.argmin(dists))  # argmin breaks ties toward the smallest index


def _check_self_consistency(world: World) -> None:
    for oid, payload, label in world.originals:
        got = ground_truth_label(payload, world.templates)
        if got != label:
            raise ValueError(
                f"original {oid}: latent label {label} != ground truth {got}"
            )


# ---------------------------------------------------------------------------
# augmented space


def _node_key(payload: np.ndarray) -> bytes:
    # payload-identical nodes merged; quantize to absorb float noise well below
    # any genuine payload difference (O(1e-2)); + 0.0 folds -0.0 into 0.0
    return (np.round(payload, 9) + 0.0).tobytes()


def _check_distinct_views(payloads, node_ids) -> None:
    """Raise if two distinct nodes lie within VIEW_TOL of each other in max-abs.

    Rounded keys can split one view across a rounding boundary; this makes
    that split loud.  Candidates are the node pairs whose payload sums are
    close, since |sum(a) - sum(b)| <= size * max|a - b|, and each candidate
    is then confirmed on its entries.  With the nodes sorted by sum, the
    pairs `offset` positions apart are scanned for offset = 1, 2, ... until
    no pair that far apart has close sums.
    """
    P = np.stack(payloads).reshape(len(payloads), -1)
    size = P.shape[1]
    sums = P.sum(axis=1)
    # the window also covers the rounding error of both float sums
    window = size * (VIEW_TOL + 2 * size * np.finfo(float).eps * max(P.max(), -P.min()))
    # Python's sort: numpy's sort kernels, used nowhere else in a run, would
    # add about 128 KB of resident pages to every run's peak
    keys = sums.tolist()
    order = np.array(sorted(range(len(keys)), key=keys.__getitem__))
    sums = sums[order]
    for offset in range(1, len(sums)):
        a = np.flatnonzero(sums[offset:] - sums[:-offset] <= window)
        if not a.size:
            break
        i, j = order[a], order[a + offset]
        dist = np.abs(P[i] - P[j]).max(axis=1)
        close = np.flatnonzero(dist <= VIEW_TOL)
        if close.size:
            c = close[0]
            lo, hi = sorted((int(i[c]), int(j[c])))
            raise ValueError(
                f"build_augmented_space: nodes {node_ids[lo]} and {node_ids[hi]} are "
                f"distinct views {float(dist[c])!r} apart in max-abs, within "
                f"VIEW_TOL = {VIEW_TOL}: rounded keys may have split one view"
            )


def build_augmented_space(world: World, transforms) -> AugmentedSpace:
    """Enumerate all (original, transform) outcomes into a deduplicated space.

    Views are merged on their payloads rounded to 9 decimals; two distinct
    nodes within VIEW_TOL of each other raise ValueError.
    """
    transforms = list(transforms)
    if not transforms:
        raise ValueError("build_augmented_space: empty transform list")
    total_p = sum(t.probability for t in transforms)
    if abs(total_p - 1.0) > PROB_TOL:
        raise ValueError(
            f"transform probabilities sum to {total_p}, expected 1 within {PROB_TOL}"
        )
    for t in transforms:
        if not (0.0 < t.probability <= 1.0):
            raise ValueError(f"transform {t.id}: probability out of (0, 1]")

    key_to_index: dict[bytes, int] = {}
    payloads: list[np.ndarray] = []
    entries = []  # (orig_index, node_index, prob)
    for oi, (_oid, payload, _label) in enumerate(world.originals):
        for t in transforms:
            out = apply_transform(t, payload)
            key = _node_key(out)
            ni = key_to_index.get(key)
            if ni is None:
                ni = len(payloads)
                key_to_index[key] = ni
                payloads.append(out)
            entries.append((oi, ni, t.probability))

    n = len(payloads)
    node_ids = tuple(f"n{i:04d}" for i in range(n))
    _check_distinct_views(payloads, node_ids)
    cond = np.zeros((world.n_originals, n))
    for oi, ni, p in entries:
        cond[oi, ni] += p
    marginal = world.weights @ cond
    joint = cond.T @ (cond * world.weights[:, None])
    labels = np.array(
        [ground_truth_label(p, world.templates) for p in payloads], dtype=int
    )
    space = AugmentedSpace(
        payloads=tuple(payloads),
        labels=labels,
        cond=cond,
        marginal=marginal,
        joint=joint,
        node_ids=node_ids,
        K=world.spec.K,
    )
    _check_space(space)
    return space


def _check_space(space: AugmentedSpace) -> None:
    row_sums = space.cond.sum(axis=1)
    if np.max(np.abs(row_sums - 1.0)) > 1e-9:
        raise ValueError("augmented space: conditional rows do not sum to 1")
    if abs(float(space.marginal.sum()) - 1.0) > 1e-9:
        raise ValueError("augmented space: marginal does not sum to 1")
    if abs(float(space.joint.sum()) - 1.0) > 1e-9:
        raise ValueError("augmented space: positive-pair joint does not sum to 1")


def labeling_error(space: AugmentedSpace, world: World) -> LabelingReport:
    """Exact labeling error by enumeration over (original, node) pairs."""
    orig_labels = world.labels()
    mismatch = (space.labels[None, :] != orig_labels[:, None]).astype(float)
    per_orig = np.sum(space.cond * mismatch, axis=1)
    alpha = float(world.weights @ per_orig)
    per_class = np.zeros(world.spec.K)
    for c in range(world.spec.K):
        mask = orig_labels == c
        mass = float(world.weights[mask].sum())
        if mass > 0:
            per_class[c] = float(world.weights[mask] @ per_orig[mask]) / mass
    return LabelingReport(alpha=alpha, per_class_alpha=per_class)


# ---------------------------------------------------------------------------
# preprocessing and inflation


def preprocess_world(world: World, spec: TruncationSpec) -> World:
    """Replace every original payload by its truncated-SVD image.

    Latent labels are recomputed from the new payloads; weights are kept.
    """
    new_originals = []
    for oid, payload, _label in world.originals:
        F = svd_full(payload)
        spec.validate(F.rank_bound)
        reduced = svd_truncate(F, spec)
        label = ground_truth_label(reduced, world.templates)
        new_originals.append((oid, reduced, label))
    return World(
        originals=tuple(new_originals),
        weights=world.weights.copy(),
        templates=world.templates,
        spec=world.spec,
    )


def inflate(world: World, factor: int, seed: int = 0) -> World:
    """Synthetic data inflation: draw (factor - 1) |D| extra originals.

    The extra samples come from the same planted generator, continuing the
    per-class variant cycle; with noise_scale > 0 each new sample gets a
    fresh noise draw.  Weights are re-uniformized.  This is a stand-in for
    learned generative inflation and is flagged as synthetic in reports.
    """
    if factor < 1:
        raise ValueError("inflate: factor must be >= 1")
    if factor == 1:
        return world
    spec = world.spec
    _n_shared, _dist, _extra, total = _slot_layout(spec)
    U, V = _frames(spec, total)
    templates = list(world.templates)
    new_originals = list(world.originals)
    idx = world.n_originals
    for round_ in range(1, factor):
        for c in range(spec.K):
            for j in range(spec.per_class):
                noise_key = 1_000_000 * (seed + 1) + idx
                payload = _planted_original(
                    spec, U, V, templates, c, j, noise_key
                )
                label = ground_truth_label(payload, templates)
                new_originals.append((f"o{idx:04d}", payload, label))
                idx += 1
    weights = np.full(len(new_originals), 1.0 / len(new_originals))
    return World(
        originals=tuple(new_originals),
        weights=weights,
        templates=world.templates,
        spec=spec,
    )


# ---------------------------------------------------------------------------
# serialization: directory of CTLAB-MAT payloads + a key-value manifest


def save_world(world: World, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    lines = []
    s = world.spec
    lines.append(
        "spec = "
        f"{s.K} {s.per_class} {s.m} {s.m_prime} {s.q_star} {s.nuisance_rank} "
        f"{repr(s.nuisance_confusion)} {repr(s.noise_scale)} {s.seed}"
    )
    for c, T in enumerate(world.templates):
        fname = f"template_{c:02d}.mat"
        save_matrix_text(os.path.join(directory, fname), T)
        lines.append(f"template {c} = {fname}")
    for i, (oid, payload, label) in enumerate(world.originals):
        fname = f"{oid}.mat"
        save_matrix_text(os.path.join(directory, fname), payload)
        lines.append(
            f"original {oid} = {fname} {label} {repr(float(world.weights[i]))}"
        )
    with open(os.path.join(directory, "manifest.txt"), "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_world(directory) -> World:
    manifest = os.path.join(directory, "manifest.txt")
    spec = None
    templates = {}
    originals = []
    weights = []
    with open(manifest) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition(" = ")
            try:
                if key == "spec":
                    parts = value.split()
                    if len(parts) != 9:
                        raise ValueError(f"spec needs 9 fields, got {len(parts)}")
                    spec = WorldSpec(
                        K=int(parts[0]),
                        per_class=int(parts[1]),
                        m=int(parts[2]),
                        m_prime=int(parts[3]),
                        q_star=int(parts[4]),
                        nuisance_rank=int(parts[5]),
                        nuisance_confusion=float(parts[6]),
                        noise_scale=float(parts[7]),
                        seed=int(parts[8]),
                    )
                    spec.validate()
                elif key.startswith("template "):
                    c = int(key.split()[1])
                    templates[c] = load_matrix_text(os.path.join(directory, value))
                elif key.startswith("original "):
                    parts = value.split()
                    if len(parts) != 3:
                        raise ValueError(f"expected 'file label weight', got {value!r}")
                    fname, label, weight = parts
                    weight = float(weight)
                    if not 0.0 < weight < np.inf:
                        raise ValueError(f"weight {weight!r} is not finite and positive")
                    payload = load_matrix_text(os.path.join(directory, fname))
                    originals.append((key.split()[1], payload, int(label)))
                    weights.append(weight)
                else:
                    raise ValueError(f"unknown key {key!r}")
            except ValueError as err:
                raise ValueError(f"{manifest}: line {lineno}: {err}") from None
    if spec is None:
        raise ValueError(f"{manifest}: missing spec line")
    weights = np.array(weights)
    if abs(float(weights.sum()) - 1.0) > PROB_TOL:
        raise ValueError(f"{manifest}: weights sum to {weights.sum()!r}, not 1")
    if sorted(templates) != list(range(spec.K)):
        raise ValueError(f"{manifest}: template indices are not 0..{spec.K - 1}")
    shape = (spec.m, spec.m_prime)
    named = [(f"template {c}", T) for c, T in templates.items()]
    for name, P in named + [(oid, P) for oid, P, _label in originals]:
        if P.shape != shape:
            raise ValueError(f"{manifest}: {name} has shape {P.shape}, not {shape}")
    world = World(
        originals=tuple(originals),
        weights=weights,
        templates=tuple(templates[c] for c in range(spec.K)),
        spec=spec,
    )
    try:
        _check_self_consistency(world)
    except ValueError as err:
        raise ValueError(f"{manifest}: {err}") from None
    return world
