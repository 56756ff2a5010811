"""Measured terms and machine-checked verdicts for the generalization bounds.

The constituent quantities are measured once, exactly where the finite
space allows it (measure_sandwich for an embedding, graph.stage_graph for a
world), with the unspecified O(M^-1/2) constant replaced by a measured
log-sum-exp approximation envelope.  Every check is then a pure function of
those terms and renders a self-auditing report whose verdict is
recomputable from the stored terms alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .graph import StagedGraph
from .objectives import (
    McConfig,
    _block_rows,
    _similarity_blocks,
    ce_risk,
    classification_error,
    infonce_population,
    mean_head,
)
from .world import AugmentedSpace

__all__ = [
    "BoundReport",
    "SandwichTerms",
    "variance_terms",
    "lse_approx_error",
    "measure_sandwich",
    "theorem1_check",
    "alignment_eps",
    "theorem3_check",
    "theorem4_check",
    "corollary_reports",
    "report_to_text",
]


@dataclass(frozen=True)
class BoundReport:
    """Self-auditing record of one inequality check.

    verdict is one of holds, holds_vacuously, violated_within_mc_error,
    violated.  slack is the margin of the tightest side (negative when
    violated).  note carries degenerate-case diagnostics.
    """

    theorem: str
    verdict: str
    slack: float
    terms: dict = field(default_factory=dict)
    note: str = ""


# ---------------------------------------------------------------------------
# measured terms


def variance_terms(F: np.ndarray, space: AugmentedSpace, mu: np.ndarray):
    """Intra-class variance terms (V, V_minus, V_neg) by exact enumeration over the pair joint.

    F is the (n, k) table of an embedding f, and mu its mean head,
    mean_head(F, space): column c is the class mean mu_c.
    V averages ||f(x) - mu_{y_x}||^2 over label-consistent pairs, V_minus
    averages ||f(x+) - mu_{y_x}||^2 over label-violating pairs.  V_neg is an
    equal-weight mixture of the same-class positive branch and the marginal
    negative branch, each deviation taken from the class mean of the point
    itself.  V_minus is None when the false-positive set has zero mass.
    Every sum runs over the joint's support, in its row-major order.
    """
    labels = space.labels
    xs, ys, w = space.support
    dev = np.sum((F - mu.T[labels]) ** 2, axis=1)  # ||f(x) - mu_{y_x}||^2 per node
    same = labels[xs] == labels[ys]
    w_plus = w * same  # the label-consistent part of the joint
    mass_plus = float(w_plus.sum())
    if mass_plus <= 0.0:
        raise ValueError("variance_terms: empty label-consistent pair support")
    V = float(w_plus @ dev[xs]) / mass_plus
    # same-class positive branch of the mixture
    branch_pos = float(w_plus @ dev[ys]) / mass_plus
    minus = ~same
    w_minus = w[minus]
    mass_minus = float(w_minus.sum())
    if mass_minus > 0.0:
        # deviation of the positive view from the anchor's class mean
        x_mu = mu.T[labels[xs[minus]]]
        V_minus = float(w_minus @ np.sum((F[ys[minus]] - x_mu) ** 2, axis=1)) / mass_minus
    else:
        V_minus = None
    # marginal negative branch
    branch_neg = float(space.marginal @ dev)
    V_neg = 0.5 * branch_pos + 0.5 * branch_neg
    return V, V_minus, V_neg


def lse_approx_error(
    F: np.ndarray, space: AugmentedSpace, M: int, replicates: int, seed: int
):
    """Measured log-sum-exp approximation error of M-sample negative batches.

    F is the (n, k) table of an embedding f; it is read and left as it is.
    Exact value: E_x[log E_z[exp(f(x) . f(z))]] under the marginal.  Each
    replicate redraws M negatives per anchor from the space's cached
    marginal inverse-CDF table and evaluates the plug-in log-mean-exp;
    returns (mean absolute error, std over replicates).  F F^T is read one
    row block at a time: one gather takes every replicate's negatives of the
    block's rows, then the block takes the exact log-sum-exp of its rows in
    place.
    """
    if replicates < 2:
        raise ValueError("lse_approx_error: replicates must be >= 2")
    if M < 1:
        raise ValueError("lse_approx_error: M must be >= 1")
    p, n = space.marginal, space.n
    negs = np.empty((replicates, n, M), dtype=np.intp)  # each replicate's M negatives per anchor
    for r, neg in enumerate(negs):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed & (2**64 - 1), r], dtype=np.uint64))
        )
        neg[:] = space.marginal_cdf.draw(rng.random((n, M)))  # rng.choice(n, p=p)
    plug_in = np.empty((replicates, n))  # each replicate's log-mean-exp per anchor
    lse = np.empty(n)
    for r0, S in _similarity_blocks(F, _block_rows(n)):
        rows = slice(r0, r0 + len(S))
        # every replicate's (rows, M) negatives, read at their cells of the block
        s = S.take(negs[:, rows] + np.arange(0, S.size, n)[:, None])
        smx = s.max(axis=2)
        plug_in[:, rows] = smx + np.log(np.mean(np.exp(s - smx[..., None]), axis=2))
        mx = S.max(axis=1)
        np.exp(np.subtract(S, mx[:, None], out=S), out=S)
        lse[rows] = mx + np.log(S @ p)
    exact = float(p @ lse)
    estimates = np.array([p @ est for est in plug_in])  # one dot per replicate
    errors = np.abs(estimates - exact)
    return float(np.mean(errors)), float(np.std(errors, ddof=1))


def alignment_eps(F: np.ndarray, space: AugmentedSpace):
    """(eps_min, eps_max): min/max distance of the (n, k) table's rows over the false positives.

    Distances are taken on the joint support only; (None, None) when it has
    no false positives.
    """
    xs, ys, _w = space.support
    minus = space.labels[xs] != space.labels[ys]
    if not np.any(minus):
        return None, None
    dist = np.sqrt(np.sum((F[xs[minus]] - F[ys[minus]]) ** 2, axis=1))
    return float(dist.min()), float(dist.max())


# ---------------------------------------------------------------------------
# sandwich checks (mean-head CE vs InfoNCE)


@dataclass(frozen=True)
class SandwichTerms:
    """Every term the sandwich checks read, measured once for one embedding.

    normalized is True when every row of the embedding's table has unit norm
    within 1e-10, which puts it on the unit sphere the sandwich theorems
    quantify over.  envelope is the measured LSE error (mean + 3 std) plus
    three InfoNCE standard errors; it stands in for the unspecified
    O(M^-1/2) constant.
    """

    M: int
    K: int
    normalized: bool
    ce_mean: float  # CE risk of the mean head
    infonce: float
    infonce_std_error: float
    infonce_exact: bool
    eps_min: float | None  # None, like eps_max, when there are no false positives
    eps_max: float | None
    V: float | None  # None, like V_neg and envelope, when not normalized
    V_minus: float | None  # None also when the false positives have zero mass
    V_neg: float | None
    envelope: float | None

    @property
    def gap(self) -> float:
        return self.ce_mean - self.infonce


def measure_sandwich(
    F: np.ndarray, space: AugmentedSpace, M: int, cfg: McConfig = McConfig()
) -> SandwichTerms:
    """Measure the sandwich terms of the (n, k) table F on space with M negatives, once.

    Works for any table.  The sandwich checks refuse terms of a table whose
    rows are not unit within 1e-10 (`normalized` False), so V, V_minus,
    V_neg and envelope stay None for it.  Both measures read F, so no n x n
    similarity table is formed.
    """
    normalized = bool(np.max(np.abs(np.linalg.norm(F, axis=1) - 1.0)) <= 1e-10)
    nce, nce_se, exact = infonce_population(F, space, M, cfg)
    mu = mean_head(F, space)
    V = V_minus = V_neg = envelope = None
    if normalized:
        lse_mean, lse_std = lse_approx_error(F, space, M, cfg.replicates, cfg.seed)
        envelope = lse_mean + 3.0 * lse_std + 3.0 * nce_se
        V, V_minus, V_neg = variance_terms(F, space, mu)
    eps_min, eps_max = alignment_eps(F, space)
    return SandwichTerms(
        M=M,
        K=space.K,
        normalized=normalized,
        ce_mean=ce_risk(F, mu, space),
        infonce=nce,
        infonce_std_error=nce_se,
        infonce_exact=exact,
        eps_min=eps_min,
        eps_max=eps_max,
        V=V,
        V_minus=V_minus,
        V_neg=V_neg,
        envelope=envelope,
    )


def _verdict(slack, envelope) -> str:
    """Verdict of a slack with the statistical-envelope escape hatch.

    A side that fails by no more than the envelope itself is attributed to
    Monte Carlo error rather than counted as a hard violation.
    """
    if slack >= 0.0:
        return "holds"
    if slack >= -envelope - 1e-12:
        return "violated_within_mc_error"
    return "violated"


def _sandwich_report(theorem, t: SandwichTerms, radius, extra, note):
    """gap in [-radius - V_neg/2 - envelope - log((M+1)/K), radius + envelope - log(M/K)]."""
    upper = radius + t.envelope - np.log(t.M / t.K)
    lower = -radius - 0.5 * t.V_neg - t.envelope - np.log((t.M + 1) / t.K)
    slack = float(min(upper - t.gap, t.gap - lower))
    return BoundReport(
        theorem=theorem,
        verdict=_verdict(slack, t.envelope),
        slack=slack,
        terms={
            "gap": t.gap,
            "ce_mean": t.ce_mean,
            "infonce": t.infonce,
            "infonce_std_error": t.infonce_std_error,
            "infonce_exact": t.infonce_exact,
            "envelope": t.envelope,
            "upper": float(upper),
            "lower": float(lower),
            "M": t.M,
            "K": t.K,
            "V": t.V,
            "V_neg": t.V_neg,
            **extra,
        },
        note=note,
    )


def theorem1_check(t: SandwichTerms) -> BoundReport:
    """Two-sided variance sandwich between mean-head CE risk and InfoNCE.

    gap = ce(mean head) - InfoNCE(M) must lie in
    [-sqrt(V) - sqrt(V-) - V_neg/2 - envelope - log((M+1)/K),
      sqrt(V) + sqrt(V-) + envelope - log(M/K)].
    """
    if not t.normalized:
        raise ValueError("theorem1_check: embedding must be normalized")
    v_minus = 0.0 if t.V_minus is None else t.V_minus
    return _sandwich_report(
        "theorem1",
        t,
        np.sqrt(t.V) + np.sqrt(v_minus),
        {"V_minus": t.V_minus, "v_neg_measure": "equal-weight two-branch mixture"},
        "label-consistent case: V_minus absent" if t.V_minus is None else "",
    )


def theorem3_check(t: SandwichTerms) -> BoundReport:
    """Alignment variant of the sandwich: eps terms replace the variance roots.

    eps_min and eps_max over the false-positive support stand in for the
    alignment radii of the preprocessed and raw spaces.  With no false
    positives both terms drop and the check reduces to the consistent case.
    """
    if not t.normalized:
        raise ValueError("theorem3_check: embedding must be normalized")
    empty = t.eps_min is None
    eps_min, eps_max = (0.0, 0.0) if empty else (t.eps_min, t.eps_max)
    # sqrt(V) survives: alignment only replaces the false-positive root
    return _sandwich_report(
        "theorem3",
        t,
        np.sqrt(t.V) + (eps_min + eps_max),
        {"eps_min": eps_min, "eps_max": eps_max, "no_false_positives": empty},
        "no false positives: reduced to the consistent form" if empty else "",
    )


# ---------------------------------------------------------------------------
# downstream error bound

# an all-zero head signals an inadequate probe: t4 and the corollaries withhold
# their verdicts
_ZERO_HEAD = "optimization-inadequate: zero head, verdict withheld"


def theorem4_check(staged: StagedGraph, spectral: np.ndarray, head: np.ndarray) -> BoundReport:
    """Downstream error of the spectral embedding against 4a/l_{k+1} + 8a.

    spectral is the closed-form (n, k) table spectral_embedding(staged, k),
    k its width, and head the (k, K) linear head fitted on it.  Reads the exact
    labeling error alpha and the Laplacian eigenvalues at levels k and k+1
    off the staged graph, scores spectral with head, and checks the achieved
    error against the bound.  Bounds >= 1
    are vacuous; a zero lambda_{k+1} leaves the bound undefined; an all-zero
    head withholds the verdict, as in corollary_reports, and keeps the terms.
    """
    space, alpha, k = staged.space, staged.alpha, spectral.shape[1]
    if not (1 <= k <= space.n):
        raise ValueError(f"theorem4_check: k={k} out of range [1, {space.n}]")
    if head.shape != (k, space.K):
        raise ValueError(
            f"theorem4_check: head shape {head.shape} is not (k, K) = ({k}, {space.K})"
        )
    lam_k, lam_k1 = staged.levels(k)
    err = classification_error(spectral, head, space)
    frob_norm = float(np.linalg.norm(head))
    norm_budget = 1.0 / (1.0 - lam_k) if lam_k < 1.0 else None
    if lam_k1 is None or lam_k1 <= 1e-12:
        bound, slack, note = None, 0.0, "lambda_{k+1} undefined or zero: bound undefined"
    else:
        bound = 4.0 * alpha / lam_k1 + 8.0 * alpha
        slack, note = float(bound - err), "bound >= 1" if bound >= 1.0 else ""
    if not np.any(head):
        note = _ZERO_HEAD
    return BoundReport(
        theorem="theorem4",
        # every degenerate case carries a note and holds vacuously
        verdict="holds_vacuously" if note else "holds" if slack >= 0.0 else "violated",
        slack=slack,
        terms={
            "alpha_q": alpha,
            "lambda_k_q": lam_k,
            "lambda_k1_q": lam_k1,
            "k": k,
            "probe_error": err,
            "head_frob_norm": frob_norm,
            "norm_budget": norm_budget,
            "norm_within_budget": (
                None if norm_budget is None else bool(frob_norm <= norm_budget + 1e-9)
            ),
            "bound": bound,
        },
        note=note,
    )


# ---------------------------------------------------------------------------
# corollaries (linear head replaces the mean head on the upper side)


def corollary_reports(t: SandwichTerms, head: np.ndarray, ce_linear: float, sandwich) -> list:
    """Upper sides of the sandwiches with the fitted linear head's CE risk.

    ce_linear is the CE risk of the (k, K) head on the space t was measured
    on, and sandwich the pair (theorem1_check(t), theorem3_check(t)).  Valid
    because the fitted head cannot do worse than the mean head by more than
    the optimization tolerance; that inequality is checked too.  An
    all-zero head signals an inadequate probe and the verdict is withheld
    (reported vacuous with a diagnostic note).
    """
    if not t.normalized:
        raise ValueError("corollary_reports: embedding must be normalized")
    zero_head = not np.any(head)
    head_ok = ce_linear <= t.ce_mean + 1e-3
    gap_linear = ce_linear - t.infonce
    reports = []
    for base in sandwich:
        up_margin = base.terms["upper"] - gap_linear
        terms = {**base.terms, "ce_linear": ce_linear, "gap_linear": gap_linear,
                 "head_vs_mean_ok": head_ok}
        note = ""
        if zero_head:
            verdict, slack = "holds_vacuously", 0.0
            terms = {"ce_mean": t.ce_mean, "ce_linear": ce_linear}
            note = _ZERO_HEAD
        elif head_ok:
            slack = float(up_margin)
            verdict = _verdict(slack, t.envelope)
        else:
            slack = float(min(up_margin, t.ce_mean + 1e-3 - ce_linear))
            verdict = "violated"
        reports.append(BoundReport(f"corollary_{base.theorem}", verdict, slack, terms, note))
    return reports


# ---------------------------------------------------------------------------
# serialization


def _fmt(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def report_to_text(report: BoundReport) -> str:
    """Structured text with stable key order (dataclass order, sorted terms)."""
    lines = []
    for fld in fields(report):
        value = getattr(report, fld.name)
        if fld.name == "terms":
            for key in sorted(value):
                lines.append(f"terms.{key} = {_fmt(value[key])}")
        else:
            lines.append(f"{fld.name} = {_fmt(value)}")
    return "\n".join(lines) + "\n"
