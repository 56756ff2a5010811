"""Shared fixture worlds: a 3-node hand-checkable world and a planted
reference world with a tuned transform family.

The toy world has two 1x2 originals and a masking transform whose shared
blank view carries the wrong label; every probability in its augmented
space is a small dyadic rational, so adjacency, spectrum, labeling error,
and bound values are all checkable by hand.

The reference world is a 3-class planted world (semantic rank 3, one
wrong-class nuisance direction per original) with four groups of
transforms:

  * identity;
  * flip patterns rho*(T_w - T_c): harmless on clean payloads (rho < 1/2)
    but, combined with the planted nuisance, they push variant-0 originals
    across the class boundary;
  * bridge patterns (rho - 1)*(T_w - T_c): on a clean class-w original they
    reproduce the flip view of class c exactly, creating an inter-class
    shared view (and a small controlled labeling error) once truncation
    removes the nuisance;
  * sibling patterns (payload difference of the two same-class originals):
    they make the two originals of a class share a view, connecting each
    class's subgraph in the raw space.
"""

from __future__ import annotations

import numpy as np

from .world import Transform, World, WorldSpec, build_transform, generate_world

__all__ = [
    "toy_world",
    "toy_transforms",
    "reference_spec",
    "reference_world",
    "reference_transforms",
    "RHO",
]

RHO = 0.35  # flip-pattern strength; < 1/2 so clean payloads never flip


def toy_world() -> World:
    """Two originals [[4,0]] and [[0,2]], uniform weights.

    The all-zero matrix is closer to the second template, so the blank
    view produced by full masking carries label 1.
    """
    T0 = np.array([[4.0, 0.0]])
    T1 = np.array([[0.0, 2.0]])
    spec = WorldSpec(
        K=2,
        per_class=1,
        m=1,
        m_prime=2,
        q_star=1,
        nuisance_rank=0,
        nuisance_confusion=0.0,
        noise_scale=0.0,
        seed=0,
    )
    originals = (("o0000", T0, 0), ("o0001", T1, 1))
    return World(
        originals=originals,
        weights=np.array([0.5, 0.5]),
        templates=(T0, T1),
        spec=spec,
    )


def toy_transforms():
    """Identity and a full mask, each with probability 1/2."""
    return [
        Transform(id="identity", kind="identity", probability=0.5),
        Transform(id="mask_all", kind="block_mask", probability=0.5, params=(0, 1, 0, 2)),
    ]


def reference_spec(seed: int = 11) -> WorldSpec:
    return WorldSpec(
        K=3,
        per_class=2,
        m=12,
        m_prime=12,
        q_star=3,
        nuisance_rank=1,
        nuisance_confusion=0.9,
        noise_scale=0.0,
        seed=seed,
    )


def reference_world(seed: int = 11) -> World:
    return generate_world(reference_spec(seed))


def reference_transforms(
    world: World,
    rho: float = RHO,
    p_flip: float = 0.12,
    p_bridge: float = 0.04,
    p_sibling: float = 0.06,
):
    """Transform family for the reference world; probabilities must leave
    room for the identity, which absorbs the remainder."""
    K = world.spec.K
    total = K * (p_flip + p_bridge + p_sibling)
    p_id = 1.0 - total
    if p_id <= 0.0:
        raise ValueError("reference_transforms: probabilities exceed 1")
    descriptors = [("identity", "identity", (), p_id)]
    for c in range(K):
        w = (c + 1) % K
        descriptors.append((f"flip_{c}{w}", "flip", (c, w), p_flip))
        descriptors.append((f"bridge_{c}{w}", "bridge", (c, w), p_bridge))
    descriptors += [(f"sibling_{c}", "sibling", (c,), p_sibling) for c in range(K)]
    return [build_transform(world, *d, rho) for d in descriptors]
