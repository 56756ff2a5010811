"""Finite synthetic augmentation worlds with a planted semantic rank.

A world holds a small set of original samples (dense matrices), a uniform
distribution over them, and per-class rank-q* templates.  All payloads are
linear combinations of one shared orthonormal direction frame with disjoint
slots per class, so every quantity below (labels, labeling error, truncation
effects) is exactly computable:

  * slot 0 carries a class-neutral background direction with
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

from .linalg import gaussian_matrix, load_matrix_text, orthonormalize, save_matrix_text
from .svd import TruncationSpec, svd_full, svd_truncate

__all__ = [
    "WorldSpec",
    "World",
    "Transform",
    "AugmentedSpace",
    "InverseCdf",
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
        """Raise ValueError at the first range broken; its `fields` names the fields read.

        The planted construction needs one frame slot per planted direction.
        """
        dist, extra, slots = _slot_layout(self)
        mm = min(self.m, self.m_prime)
        for ok, what, *fields in (
            (self.K >= 2, f"K must be >= 2, got {self.K}", "K"),
            (self.per_class >= 1, "per_class must be >= 1", "per_class"),
            (self.q_star >= 2, "q_star must be >= 2: q_star = 1 leaves no class-distinguishing "
             "direction beside the shared background", "q_star"),
            (self.nuisance_rank >= 0, "nuisance_rank must be >= 0", "nuisance_rank"),
            (slots <= mm, f"planted construction needs {slots} direction slots (shared 1 + "
             f"K*dist {self.K}*{dist} + K*extra {self.K}*{extra}) but min(m, m') = {mm}",
             "K", "m", "m_prime", "q_star", "nuisance_rank"),
            (0.0 <= self.nuisance_confusion <= 1.0, "nuisance_confusion must be in [0, 1]",
             "nuisance_confusion"),
            (0.0 <= self.noise_scale < np.inf, "noise_scale must be finite and >= 0",
             "noise_scale"),
        ):
            if not ok:
                err = ValueError(f"WorldSpec: {what}")
                err.fields = fields
                raise err


@dataclass(frozen=True)
class World:
    """Original i is named o{i:04d} by its position in the stack."""

    payloads: np.ndarray  # (N, m, m') original payloads
    labels: np.ndarray  # (N,) their ground-truth labels
    weights: np.ndarray  # (N,) positive probabilities, sum to 1
    templates: np.ndarray  # (K, m, m') class templates
    spec: WorldSpec


@dataclass(frozen=True)
class Transform:
    """One member of a finite augmentation family: it maps a payload X to X * keep + shift.

    keep is 1.0 or an (m, m') 0/1 mask, shift 0.0 or an (m, m') pattern.
    probability, the chance of drawing this transform, must be in (0, 1], or
    construction raises a ValueError led by the id.
    """

    id: str
    probability: float
    keep: np.ndarray | float = 1.0
    shift: np.ndarray | float = 0.0

    def __post_init__(self):
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(f"{self.id}: probability {self.probability!r} out of (0, 1]")


def apply_transform(t: Transform, X: np.ndarray) -> np.ndarray:
    """t applied to a payload (m, m') or to each payload of a stack (N, m, m')."""
    return X * t.keep + t.shift


class InverseCdf:
    """Exact inverse-CDF draws: draw(u) is np.searchsorted(cdf, u, side="right").

    cdf is the given cumulative sum over its last entry, u in [0, 1).  A guide
    table holds that count at each edge b / G of G = 2^j >= len(cdf) buckets;
    bucket b = floor(u G) is exact, and a walk from its edge finishes the count.
    """

    def __init__(self, cumsum: np.ndarray):
        cdf = cumsum / cumsum[-1]
        self.G = 1 << (len(cdf) - 1).bit_length()
        self.guide = np.searchsorted(cdf, np.arange(self.G) / self.G, side="right")
        self.cdf = np.append(cdf, np.inf)  # the sentinel ends every walk

    def draw(self, u: np.ndarray) -> np.ndarray:
        flat = np.ravel(u)
        idx = self.guide[(flat * self.G).astype(np.intp)]
        walk = np.flatnonzero(self.cdf[idx] <= flat)
        while walk.size:
            idx[walk] += 1
            walk = walk[self.cdf[idx[walk]] <= flat[walk]]
        return idx.reshape(np.shape(u))


@dataclass(frozen=True)
class AugmentedSpace:
    """Deduplicated augmented samples with exact probability tables; node i is n{i:04d}."""

    payloads: np.ndarray           # (n, m, m') node payloads
    labels: np.ndarray             # (n,) true labels of the nodes
    cond: np.ndarray               # (N_orig, n), rows sum to 1
    marginal: np.ndarray           # (n,), sums to 1
    joint: np.ndarray              # (n, n) positive-pair joint p(x, x+)
    K: int                         # class count of the world

    @property
    def n(self) -> int:
        return len(self.payloads)

    @cached_property
    def support(self):
        """(xs, ys, w) of the joint's nonzero cells, row-major; cached, so read-only."""
        xs, ys = np.nonzero(self.joint)
        return xs, ys, self.joint[xs, ys]

    @cached_property
    def pair_cdf(self) -> InverseCdf:
        """Draws of an index into `support` with probability w / sum(joint); cached."""
        return InverseCdf(np.cumsum(self.support[2] / self.joint.sum()))

    @cached_property
    def marginal_cdf(self) -> InverseCdf:
        """Node draws with the bits of Generator.choice(n, p=marginal); cached."""
        return InverseCdf(self.marginal.cumsum())

    def positive_mask(self) -> np.ndarray:
        """Boolean (n, n) mask of label-consistent pairs (the X+ set)."""
        return self.labels[:, None] == self.labels[None, :]


# ---------------------------------------------------------------------------
# world generation


def _slot_layout(spec: WorldSpec):
    """(distinguishing, extra) frame slots per class and the total, slot 0 the background's."""
    dist = spec.q_star - 1
    extra = max(0, spec.nuisance_rank - dist)
    return dist, extra, 1 + spec.K * dist + spec.K * extra


def _frames(spec: WorldSpec, total: int):
    U = orthonormalize(gaussian_matrix(spec.m, total, spec.seed * 7919 + 13))
    V = orthonormalize(gaussian_matrix(spec.m_prime, total, spec.seed * 7919 + 101))
    return U, V


def _dist_slots(spec: WorldSpec, c: int):
    dist, _extra, _total = _slot_layout(spec)
    start = 1 + c * dist
    return list(range(start, start + dist))


def _extra_slots(spec: WorldSpec, c: int):
    dist, extra, _total = _slot_layout(spec)
    start = 1 + spec.K * dist + c * extra
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
    reproduce the exact payload distribution.  The spec must pass
    WorldSpec.validate.
    """
    spec.validate()
    dist, _extra, total = _slot_layout(spec)
    U, V = _frames(spec, total)
    sig_dist = np.linspace(_DIST_SIGMA_MAX, _DIST_SIGMA_MIN, dist)
    templates = np.zeros((spec.K, spec.m, spec.m_prime))
    for c, T in enumerate(templates):
        T += _BACKGROUND_SIGMA * np.outer(U[:, 0], V[:, 0])
        for j, s in zip(_dist_slots(spec, c), sig_dist):
            T += s * np.outer(U[:, j], V[:, j])
    payloads = np.stack([_planted_original(spec, U, V, templates, c, j, c * spec.per_class + j)
                         for c in range(spec.K) for j in range(spec.per_class)])
    weights = np.full(len(payloads), 1.0 / len(payloads))
    return World(payloads, ground_truth_label(payloads, templates), weights, templates, spec)


def _planted_original(spec, U, V, templates, c, variant, noise_key) -> np.ndarray:
    payload = templates[c].copy()
    dist, _extra, _total = _slot_layout(spec)
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
    """Materialize one transform descriptor against a world, or raise a ValueError led by tid.

    kind "identity" takes no args; "flip" (c, w) adds the class pattern
    rho * (T_w - T_c) and "bridge" (c, w) adds (rho - 1) * (T_w - T_c);
    "sibling" (c,) adds the payload difference of class c's first two
    originals, so it needs per_class >= 2; "block_mask" (r0, r1, c0, c1)
    zeroes rows [r0, r1) x cols [c0, c1), which needs 0 <= r0 < r1 <= m and
    0 <= c0 < c1 <= m'.  Class indices are in [0, K), probability in (0, 1].
    """
    spec = world.spec
    if kind == "block_mask":
        r0, r1, c0, c1 = args
        if not (0 <= r0 < r1 <= spec.m and 0 <= c0 < c1 <= spec.m_prime):
            raise ValueError(f"{tid}: block_mask {r0} {r1} {c0} {c1} needs "
                             f"0 <= r0 < r1 <= {spec.m} and 0 <= c0 < c1 <= {spec.m_prime}")
        keep = np.ones((spec.m, spec.m_prime))
        keep[r0:r1, c0:c1] = 0.0
        return Transform(tid, probability, keep=keep)
    for c in args:
        if not 0 <= c < spec.K:
            raise ValueError(f"{tid}: class {c} out of range [0, {spec.K - 1}]")
    if kind == "identity":
        return Transform(tid, probability)
    if kind == "flip":
        shift = class_pattern(world, *args, rho)
    elif kind == "bridge":
        shift = class_pattern(world, *args, rho - 1.0)
    elif kind == "sibling":
        if spec.per_class < 2:
            raise ValueError(f"{tid}: sibling needs world.per_class >= 2")
        base = args[0] * spec.per_class
        shift = world.payloads[base + 1] - world.payloads[base]
    else:
        raise ValueError(f"{tid}: unknown kind {kind!r}")
    return Transform(tid, probability, shift=shift)


def ground_truth_label(payloads, templates) -> np.ndarray:
    """Labels of a payload stack (N, m, m'): the nearest template, ties to the smallest index.

    Each Frobenius distance has the bits of float(np.linalg.norm(payload - T)).
    """
    P = np.asarray(payloads, dtype=np.float64)
    if P.ndim != 3 or P.shape[1:] != templates[0].shape:
        raise ValueError(f"payload stack {P.shape} does not fit templates {templates[0].shape}")
    if not np.all(np.isfinite(P)):
        raise ValueError("ground_truth_label: non-finite payload entries")
    return np.argmin(_template_distances(P, templates), axis=1)


def _template_distances(P: np.ndarray, templates) -> np.ndarray:
    """(N, K) Frobenius distances of the stack P to the templates, one template at a time.

    A stacked 1 x L by L x 1 matmul runs the BLAS dot of np.linalg.norm on each
    raveled row.  An overflow is retaken by norm, to raise or warn as always.
    """
    dists = np.empty((len(P), len(templates)))
    for c, T in enumerate(templates):
        D = (P - T).reshape(len(P), 1, -1)
        with np.errstate(over="ignore"):
            sq = np.matmul(D, D.transpose(0, 2, 1)).ravel()
        if np.isinf(sq).any():
            return np.array([[np.linalg.norm(X - T) for T in templates] for X in P])
        dists[:, c] = np.sqrt(sq)
    return dists


# ---------------------------------------------------------------------------
# augmented space


def _node_keys(payloads) -> list:
    """Merge key of each payload of a stack: its bytes rounded to 9 decimals, -0.0 as 0.0.

    The rounding absorbs float noise well below any genuine payload difference (O(1e-2)).
    """
    R = np.round(np.reshape(payloads, (len(payloads), -1)), 9)
    R += 0.0
    return R.view(f"V{R.shape[1] * R.itemsize}").ravel().tolist()


def _check_distinct_views(payloads) -> None:
    """Raise if two distinct nodes lie within VIEW_TOL of each other in max-abs.

    Rounded keys can split one view across a rounding boundary; this makes
    that split loud.  Candidates are the node pairs whose payload sums are
    close, since |sum(a) - sum(b)| <= size * max|a - b|, and each candidate
    is then confirmed on its entries.  With the nodes sorted by sum, the
    pairs `offset` positions apart are scanned for offset = 1, 2, ... until
    no pair that far apart has close sums.
    """
    P = np.reshape(payloads, (len(payloads), -1))
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
                f"build_augmented_space: nodes n{lo:04d} and n{hi:04d} are "
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
        raise ValueError(f"transform probabilities sum to {total_p}, expected 1 within {PROB_TOL}")

    # every (original, transform) outcome, original-major, in one stack
    N, shape = len(world.payloads), world.payloads.shape[1:]
    outcomes = np.empty((N, len(transforms)) + shape)
    for j, t in enumerate(transforms):
        outcomes[:, j] = apply_transform(t, world.payloads)
    # nodes are numbered by first outcome, keyed per original: no rounded copy of all
    index, first, node_of = {}, [], []
    for block in outcomes:
        for key in _node_keys(block):
            node_of.append(index.setdefault(key, len(first)))
            if node_of[-1] == len(first):
                first.append(len(node_of) - 1)
    payloads = outcomes.reshape(-1, *shape)[first]
    del index, outcomes

    n = len(payloads)
    _check_distinct_views(payloads)
    cond = np.zeros((N, n))
    probs = np.array([t.probability for t in transforms])
    np.add.at(cond, (np.repeat(np.arange(N), len(transforms)), node_of), np.tile(probs, N))
    marginal = world.weights @ cond
    joint = cond.T @ (cond * world.weights[:, None])
    labels = ground_truth_label(payloads, world.templates)
    space = AugmentedSpace(
        payloads=payloads,
        labels=labels,
        cond=cond,
        marginal=marginal,
        joint=joint,
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


def labeling_error(space: AugmentedSpace, world: World) -> float:
    """Exact labeling error alpha by enumeration over (original, node) pairs."""
    mismatch = (space.labels[None, :] != world.labels[:, None]).astype(float)
    per_orig = np.sum(space.cond * mismatch, axis=1)
    return float(world.weights @ per_orig)


# ---------------------------------------------------------------------------
# preprocessing and inflation


def preprocess_world(world: World, spec: TruncationSpec, count: int | None = None) -> World:
    """Replace the first `count` original payloads (default: all) by their truncated-SVD image.

    Their latent labels are recomputed from the new payloads; weights are kept.
    """
    reduced = np.stack([svd_truncate(svd_full(P), spec) for P in world.payloads[:count]])
    return World(
        payloads=np.concatenate([reduced, world.payloads[len(reduced):]]),
        labels=np.concatenate([ground_truth_label(reduced, world.templates),
                               world.labels[len(reduced):]]),
        weights=world.weights.copy(),
        templates=world.templates,
        spec=world.spec,
    )


def inflate(world: World, factor: int, seed: int = 0) -> World:
    """Synthetic data inflation: draw (factor - 1) |D| extra originals.

    The extra samples come from the same planted generator, continuing the
    per-class variant cycle; with noise_scale > 0 each new sample gets a
    fresh noise draw.  They depend only on the spec, the templates, the
    original count and the seed, not on the originals' payloads.  Weights are
    re-uniformized.  This is a stand-in for learned generative inflation and
    is flagged as synthetic in reports.
    """
    if factor < 1:
        raise ValueError("inflate: factor must be >= 1")
    if factor == 1:
        return world
    spec = world.spec
    _dist, _extra, total = _slot_layout(spec)
    U, V = _frames(spec, total)
    templates = world.templates
    n0, per_round = len(world.payloads), spec.K * spec.per_class
    extra = np.stack([  # round by round, class by class, variant by variant
        _planted_original(spec, U, V, templates, *divmod(i % per_round, spec.per_class),
                          1_000_000 * (seed + 1) + n0 + i)
        for i in range((factor - 1) * per_round)
    ])
    payloads = np.concatenate([world.payloads, extra])
    return World(
        payloads=payloads,
        labels=np.concatenate([world.labels, ground_truth_label(extra, templates)]),
        weights=np.full(len(payloads), 1.0 / len(payloads)),
        templates=templates,
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
    for i, payload in enumerate(world.payloads):
        fname = f"o{i:04d}.mat"
        save_matrix_text(os.path.join(directory, fname), payload)
        lines.append(f"original o{i:04d} = {fname} {world.labels[i]} {float(world.weights[i])!r}")
    with open(os.path.join(directory, "manifest.txt"), "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_world(directory) -> World:
    """The world save_world wrote; its originals must be named o0000, o0001, ... in order.

    A manifest that gives the spec, or one template, on two lines is rejected.
    """
    manifest = os.path.join(directory, "manifest.txt")
    spec = None
    templates = {}
    payloads, labels, weights = [], [], []
    with open(manifest) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition(" = ")
            try:
                if key == "spec":
                    if spec is not None:
                        raise ValueError("repeated key 'spec'")
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
                    if c in templates:
                        raise ValueError(f"repeated key 'template {c}'")
                    templates[c] = load_matrix_text(os.path.join(directory, value))
                elif key.startswith("original "):
                    if key != f"original o{len(payloads):04d}":
                        raise ValueError(f"expected original o{len(payloads):04d}, got {key!r}: "
                                         "originals are named by position")
                    parts = value.split()
                    if len(parts) != 3:
                        raise ValueError(f"expected 'file label weight', got {value!r}")
                    fname, label, weight = parts
                    weight = float(weight)
                    if not 0.0 < weight < np.inf:
                        raise ValueError(f"weight {weight!r} is not finite and positive")
                    payload = load_matrix_text(os.path.join(directory, fname))
                    payloads.append(payload)
                    labels.append(int(label))
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
    for name, P in named + [(f"o{i:04d}", P) for i, P in enumerate(payloads)]:
        if P.shape != shape:
            raise ValueError(f"{manifest}: {name} has shape {P.shape}, not {shape}")
    world = World(
        payloads=np.stack(payloads),
        labels=np.array(labels),
        weights=weights,
        templates=np.stack([templates[c] for c in range(spec.K)]),
        spec=spec,
    )
    # payloads are finite (load_matrix_text) and of the templates' shape
    got = ground_truth_label(world.payloads, world.templates)
    for i, (label, g) in enumerate(zip(labels, got)):
        if g != label:
            raise ValueError(f"{manifest}: original o{i:04d}: latent label {label} "
                             f"!= ground truth {g}")
    return world
