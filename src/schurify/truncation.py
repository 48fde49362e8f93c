"""Idempotent truncation of the base algebra: eAe for e a sum of distinct
initial idempotents, with the heredity data that survives it, and the
zigzag-bar truncation of the extended zigzag algebra built this way.

Nothing in the package calls these: the CLI's zigzag-bar:L is built from
zigzag:L and truncated at the Schur level (`SchurAlgebra.truncate`).  The
tests check the base-level truncation against it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .base_algebra import (
    SIDES,
    AntiInvolution,
    BasedSuperalgebra,
    HeredityData,
    Side,
    absorbing_colors,
    make_extended_zigzag,
)


@dataclass
class Truncation:
    algebra: BasedSuperalgebra
    data: HeredityData


def truncate_base(alg: BasedSuperalgebra, data: HeredityData, colors: Sequence[int]) -> Truncation:
    """Truncate by e = sum of the distinct initial idempotents e_i, i in colors."""
    colors = frozenset(colors)
    if not colors <= set(data.labels):
        raise ValueError("unknown colors in truncating idempotent")
    es = [data.e[i] for i in sorted(colors)]
    absorbers = {side: absorbing_colors(alg, data, side) for side in SIDES}

    def absorbed(b: str, side: Side) -> bool:
        return absorbers[side].get(b) in colors

    sub_basis = [b for b in alg.basis if all(absorbed(b, side) for side in SIDES)]
    keep = set(sub_basis)
    kappa = {
        (a, c): out
        for (a, c), out in alg.kappa.items()
        if a in keep and c in keep and all(b in keep for b in out)
    }
    # products of kept elements stay in the truncation automatically
    for a in sub_basis:
        for c in sub_basis:
            out = alg.mul_basis(a, c)
            if out and any(b not in keep for b in out):
                raise AssertionError("truncation not closed; adapted assumption broken")
    unit = {e: 1 for e in es}
    sub = BasedSuperalgebra(
        sub_basis, kappa,
        degree={b: alg.degree[b] for b in sub_basis},
        parity={b: alg.parity[b] for b in sub_basis},
        unit=unit,
    )
    Xb, Yb = (
        {i: tuple(z for z in side.pick(data.X, data.Y)[i] if absorbed(z, side))
         for i in data.labels}
        for side in SIDES
    )
    I_bar = tuple(i for i in data.labels if Xb[i] and Yb[i])
    sub_data = HeredityData(
        labels=I_bar,
        strictly_less=frozenset(p for p in data.strictly_less if p[0] in I_bar and p[1] in I_bar),
        X={i: Xb[i] for i in I_bar},
        Y={i: Yb[i] for i in I_bar},
        e={i: data.e[i] for i in I_bar if i in colors},
    )
    return Truncation(sub, sub_data)


def make_zigzag_bar(ell: int) -> tuple[Truncation, AntiInvolution]:
    alg, data, tau = make_extended_zigzag(ell)
    trunc = truncate_base(alg, data, range(ell))
    sub_tau = AntiInvolution(image={b: tau.image[b] for b in trunc.algebra.basis})
    return trunc, sub_tau
