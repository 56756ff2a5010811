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
    Embedding,
    LinearHead,
    McConfig,
    ce_risk,
    classification_error,
    infonce_population,
    mean_head,
)
from .world import AugmentedSpace

__all__ = [
    "VarianceTerms",
    "EpsAlignment",
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
class VarianceTerms:
    V: float
    V_minus: float | None  # None when the false-positive set has zero mass
    V_neg: float
    x_plus_mass: float
    x_minus_mass: float


@dataclass(frozen=True)
class EpsAlignment:
    eps_min: float
    eps_max: float
    argmin_pair: tuple
    argmax_pair: tuple
    max_plus: float  # max over label-consistent pairs of ||f(x) - f(x+)||
    empty: bool = False


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


def variance_terms(f: Embedding, space: AugmentedSpace) -> VarianceTerms:
    """Intra-class variance terms by exact enumeration over the pair joint.

    V averages ||f(x) - mu_{y_x}||^2 over label-consistent pairs, V_minus
    averages ||f(x+) - mu_{y_x}||^2 over label-violating pairs.  V_neg is an
    equal-weight mixture of the same-class positive branch and the marginal
    negative branch, each deviation taken from the class mean of the point
    itself.
    """
    head = mean_head(f, space)
    F = f.table
    mu_of = head.W.T[space.labels]  # (n, k) class mean per node
    dev = np.sum((F - mu_of) ** 2, axis=1)  # ||f(x) - mu_{y_x}||^2 per node
    mask_plus = space.positive_mask()
    w_plus = np.where(mask_plus, space.joint, 0.0)
    w_minus = np.where(~mask_plus, space.joint, 0.0)
    mass_plus = float(w_plus.sum())
    mass_minus = float(w_minus.sum())
    if mass_plus <= 0.0:
        raise ValueError("variance_terms: empty label-consistent pair support")
    V = float(w_plus.sum(axis=1) @ dev) / mass_plus
    if mass_minus > 0.0:
        # deviation of the positive view from the anchor's class mean:
        # dev_class[c, j] = ||f(j) - mu_c||^2, row picked by the anchor label
        dev_class = np.stack([np.sum((F - mu) ** 2, axis=1) for mu in head.W.T])
        V_minus = float(np.sum(w_minus * dev_class[space.labels])) / mass_minus
    else:
        V_minus = None
    # same-class positive branch of the mixture
    branch_pos = float(np.sum(w_plus * dev[None, :])) / mass_plus
    # marginal negative branch
    branch_neg = float(space.marginal @ dev)
    V_neg = 0.5 * branch_pos + 0.5 * branch_neg
    return VarianceTerms(
        V=V,
        V_minus=V_minus,
        V_neg=V_neg,
        x_plus_mass=mass_plus,
        x_minus_mass=mass_minus,
    )


def lse_approx_error(
    f: Embedding, space: AugmentedSpace, M: int, replicates: int, seed: int
):
    """Measured log-sum-exp approximation error of M-sample negative batches.

    Exact value: E_x[log E_z[exp(f(x) . f(z))]] under the marginal.  Each
    replicate redraws M negatives per anchor and evaluates the plug-in
    log-mean-exp; returns (mean absolute error, std over replicates).
    """
    if replicates < 2:
        raise ValueError("lse_approx_error: replicates must be >= 2")
    if M < 1:
        raise ValueError("lse_approx_error: M must be >= 1")
    F = f.table
    sims = F @ F.T
    p = space.marginal
    mx = sims.max(axis=1)
    exact_per = mx + np.log((np.exp(sims - mx[:, None]) @ p))
    exact = float(p @ exact_per)
    errors = np.empty(replicates)
    for r in range(replicates):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed & (2**64 - 1), r], dtype=np.uint64))
        )
        negs = rng.choice(space.n, size=(space.n, M), p=p)
        s = sims[np.arange(space.n)[:, None], negs]  # (n, M)
        smx = s.max(axis=1)
        est_per = smx + np.log(np.mean(np.exp(s - smx[:, None]), axis=1))
        errors[r] = abs(float(p @ est_per) - exact)
    return float(np.mean(errors)), float(np.std(errors, ddof=1))


def alignment_eps(f: Embedding, space: AugmentedSpace) -> EpsAlignment:
    """Min/max embedding distance over the false-positive pair support.

    Distances are taken on the joint support only, in row-major pair order,
    so ties go to the first pair in that order.
    """
    F = f.table
    xs, ys, _w = space.support
    dist = np.sqrt(np.sum((F[xs] - F[ys]) ** 2, axis=1))
    plus = space.labels[xs] == space.labels[ys]
    max_plus = float(dist[plus].max()) if np.any(plus) else 0.0
    minus = np.flatnonzero(~plus)
    if len(minus) == 0:
        return EpsAlignment(
            eps_min=0.0,
            eps_max=0.0,
            argmin_pair=(),
            argmax_pair=(),
            max_plus=max_plus,
            empty=True,
        )
    imin = minus[np.argmin(dist[minus])]
    imax = minus[np.argmax(dist[minus])]
    return EpsAlignment(
        eps_min=float(dist[imin]),
        eps_max=float(dist[imax]),
        argmin_pair=(space.node_ids[xs[imin]], space.node_ids[ys[imin]]),
        argmax_pair=(space.node_ids[xs[imax]], space.node_ids[ys[imax]]),
        max_plus=max_plus,
    )


# ---------------------------------------------------------------------------
# sandwich checks (mean-head CE vs InfoNCE)


@dataclass(frozen=True)
class SandwichTerms:
    """Every term the sandwich checks read, measured once for one embedding.

    envelope is the measured LSE error (mean + 3 std) plus three InfoNCE
    standard errors; it stands in for the unspecified O(M^-1/2) constant.
    """

    M: int
    K: int
    normalized: bool
    ce_mean: float  # CE risk of the mean head
    infonce: float
    infonce_std_error: float
    infonce_exact: bool
    variance: VarianceTerms | None  # None, like envelope, when not normalized
    eps: EpsAlignment
    envelope: float | None

    @property
    def gap(self) -> float:
        return self.ce_mean - self.infonce


def measure_sandwich(
    f: Embedding, space: AugmentedSpace, M: int, cfg: McConfig = McConfig()
) -> SandwichTerms:
    """Measure the sandwich terms of f on space with M negatives, once.

    Works for any embedding; the sandwich checks refuse terms of an
    embedding that is not normalized, so V and the envelope go unmeasured.
    """
    f.check()
    nce, nce_se, exact = infonce_population(f, space, M, cfg)
    if f.normalized:
        lse_mean, lse_std = lse_approx_error(f, space, M, cfg.replicates, cfg.seed)
    return SandwichTerms(
        M=M,
        K=space.K,
        normalized=f.normalized,
        ce_mean=ce_risk(f, mean_head(f, space), space),
        infonce=nce,
        infonce_std_error=nce_se,
        infonce_exact=exact,
        variance=variance_terms(f, space) if f.normalized else None,
        eps=alignment_eps(f, space),
        envelope=lse_mean + 3.0 * lse_std + 3.0 * nce_se if f.normalized else None,
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


def _sandwich_report(theorem, t: SandwichTerms, upper, lower, extra, note):
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
    vt = t.variance
    v_minus = 0.0 if vt.V_minus is None else vt.V_minus
    root_terms = np.sqrt(vt.V) + np.sqrt(v_minus)
    upper = root_terms + t.envelope - np.log(t.M / t.K)
    lower = -root_terms - 0.5 * vt.V_neg - t.envelope - np.log((t.M + 1) / t.K)
    return _sandwich_report(
        "theorem1",
        t,
        upper,
        lower,
        {
            "V": vt.V,
            "V_minus": vt.V_minus,
            "V_neg": vt.V_neg,
            "v_neg_measure": "equal-weight two-branch mixture",
        },
        "label-consistent case: V_minus absent" if vt.V_minus is None else "",
    )


def theorem3_check(t: SandwichTerms) -> BoundReport:
    """Alignment variant of the sandwich: eps terms replace the variance roots.

    eps_min and eps_max over the false-positive support stand in for the
    alignment radii of the preprocessed and raw spaces.  With no false
    positives both terms drop and the check reduces to the consistent case.
    """
    if not t.normalized:
        raise ValueError("theorem3_check: embedding must be normalized")
    vt, eps = t.variance, t.eps
    eps_term = 0.0 if eps.empty else eps.eps_min + eps.eps_max
    # sqrt(V) survives: alignment only replaces the false-positive root
    base = np.sqrt(vt.V) + eps_term
    upper = base + t.envelope - np.log(t.M / t.K)
    lower = -base - 0.5 * vt.V_neg - t.envelope - np.log((t.M + 1) / t.K)
    return _sandwich_report(
        "theorem3",
        t,
        upper,
        lower,
        {
            "V": vt.V,
            "V_neg": vt.V_neg,
            "eps_min": eps.eps_min,
            "eps_max": eps.eps_max,
            "no_false_positives": eps.empty,
        },
        "no false positives: reduced to the consistent form" if eps.empty else "",
    )


# ---------------------------------------------------------------------------
# downstream error bound


def theorem4_check(staged: StagedGraph, spectral: Embedding, head: LinearHead) -> BoundReport:
    """Downstream error of the spectral embedding against 4a/l_{k+1} + 8a.

    spectral is the closed-form table spectral_embedding(staged.graph,
    staged.spectrum, k) with k = spectral.k, and head the linear head fitted
    on it.  Reads the exact labeling error alpha and the Laplacian
    eigenvalues at levels k and k+1 off the staged graph, scores spectral
    with head, and checks the achieved error against the bound.  Bounds >= 1
    are vacuous; a zero lambda_{k+1} leaves the bound undefined.
    """
    G, space, alpha, k = staged.graph, staged.space, staged.alpha, spectral.k
    if not (1 <= k <= G.n):
        raise ValueError(f"theorem4_check: k={k} out of range [1, {G.n}]")
    if head.W.shape != (k, space.K):
        raise ValueError(
            f"theorem4_check: head shape {head.W.shape} is not (k, K) = ({k}, {space.K})"
        )
    lam_k, lam_k1 = staged.levels(k)
    err = classification_error(spectral, head, space)
    norm_budget = 1.0 / (1.0 - lam_k) if lam_k < 1.0 else None
    terms = {
        "alpha_q": alpha,
        "lambda_k_q": lam_k,
        "lambda_k1_q": lam_k1,
        "k": k,
        "probe_error": err,
        "head_frob_norm": head.frob_norm,
        "norm_budget": norm_budget,
        "norm_within_budget": (
            None if norm_budget is None else bool(head.frob_norm <= norm_budget + 1e-9)
        ),
    }
    if lam_k1 is None or lam_k1 <= 1e-12:
        return BoundReport(
            theorem="theorem4",
            verdict="holds_vacuously",
            slack=0.0,
            terms={**terms, "bound": None},
            note="lambda_{k+1} undefined or zero: bound undefined",
        )
    bound = 4.0 * alpha / lam_k1 + 8.0 * alpha
    terms["bound"] = bound
    if bound >= 1.0:
        return BoundReport(
            theorem="theorem4",
            verdict="holds_vacuously",
            slack=float(bound - err),
            terms=terms,
            note="bound >= 1",
        )
    slack = float(bound - err)
    verdict = "holds" if slack >= 0.0 else "violated"
    return BoundReport(theorem="theorem4", verdict=verdict, slack=slack, terms=terms)


# ---------------------------------------------------------------------------
# corollaries (linear head replaces the mean head on the upper side)


def corollary_reports(t: SandwichTerms, head: LinearHead, ce_linear: float) -> list:
    """Upper sides of the sandwiches with the fitted linear head's CE risk.

    ce_linear is the CE risk of head on the space t was measured on.  Valid
    because the fitted head cannot do worse than the mean head by more than
    the optimization tolerance; that inequality is checked too.  An
    all-zero head signals an inadequate probe and the verdict is withheld
    (reported vacuous with a diagnostic note).
    """
    if not t.normalized:
        raise ValueError("corollary_reports: embedding must be normalized")
    if not np.any(head.W):
        return [
            BoundReport(
                theorem=f"corollary_{base}",
                verdict="holds_vacuously",
                slack=0.0,
                terms={"ce_mean": t.ce_mean, "ce_linear": ce_linear},
                note="optimization-inadequate: zero head, verdict withheld",
            )
            for base in ("theorem1", "theorem3")
        ]
    head_ok = ce_linear <= t.ce_mean + 1e-3
    gap_linear = ce_linear - t.infonce
    reports = []
    for base in (theorem1_check(t), theorem3_check(t)):
        up_margin = base.terms["upper"] - gap_linear
        if head_ok:
            slack = float(up_margin)
            verdict = _verdict(slack, t.envelope)
        else:
            slack = float(min(up_margin, t.ce_mean + 1e-3 - ce_linear))
            verdict = "violated"
        reports.append(
            BoundReport(
                theorem=f"corollary_{base.theorem}",
                verdict=verdict,
                slack=slack,
                terms={
                    **base.terms,
                    "ce_linear": ce_linear,
                    "gap_linear": gap_linear,
                    "head_vs_mean_ok": head_ok,
                },
            )
        )
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
