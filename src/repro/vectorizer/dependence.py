"""Dependence tests between loop-body memory accesses.

Classical subscript-wise tests on affine accesses, used to decide whether
a dependence is carried by the loop being vectorized:

- **ZIV-style disjointness**: a dimension where both subscripts are
  invariant with respect to the loop index and differ by a nonzero
  constant proves independence (the accesses touch disjoint slices).
- **Strong SIV**: equal loop-index coefficients per dimension; the
  dependence distance is the constant difference divided by the
  coefficient.  Non-integer distance proves independence; a consistent
  nonzero distance across dimensions is a loop-carried dependence;
  all-zero distance is a loop-independent dependence (harmless for
  vectorization of that loop).
- **Field GCD test**: struct-field offsets that differ by a value not
  divisible by the gcd of the dimension steps can never collide
  (``C[i].x`` vs ``C[i].y``).

Everything else is conservatively dependent — the conservatism the paper
attributes to production compilers (§1: "conservative dependence
analysis").
"""

from __future__ import annotations

from typing import Optional

from repro.vectorizer.subscripts import Access, gcd_of


def carried_dependence(a: Access, b: Access, ivar: str) -> Optional[str]:
    """Is there a possible dependence between ``a`` and ``b`` carried by
    the loop with index ``ivar``?

    Returns None for proven independence (or a purely loop-independent
    dependence), else a short human-readable reason.
    """
    if a.base != b.base:
        if a.kind == "pointer" or b.kind == "pointer":
            return "possible pointer aliasing"
        return None  # distinct declared arrays never alias
    if a.kind == "pointer" and b.kind == "pointer" and a.base != b.base:
        return "possible pointer aliasing"

    if not a.is_affine or not b.is_affine:
        return "irregular (non-affine) subscript"

    if len(a.subs) != len(b.subs) or a.steps != b.steps:
        return "incomparable access shapes"

    field_delta = a.field_const - b.field_const
    if field_delta != 0:
        g = gcd_of(a.steps) if a.steps else 0
        if g == 0 or field_delta % g != 0:
            return None  # distinct fields can never collide
        return "overlapping field offsets"

    # Per-dimension analysis.
    distance: Optional[int] = None
    for fa, fb in zip(a.subs, b.subs):
        ca, cb = fa.coeff(ivar), fb.coeff(ivar)
        delta = (fa - fb).drop(ivar)
        if not delta.is_const:
            return "symbolic subscript difference"
        d = delta.const
        if ca != cb:
            return "loop-index coefficients differ (weak SIV)"
        if ca == 0:
            if d != 0:
                return None  # disjoint invariant slices
            continue  # identical invariant subscript: no constraint
        if d % ca != 0:
            return None  # fractional distance: never equal
        dim_dist = -d // ca  # iterations b must advance to collide with a
        if distance is None:
            distance = dim_dist
        elif distance != dim_dist:
            return None  # inconsistent distances: no common solution
    if distance is None:
        # Every dimension invariant and identical: the same location is
        # touched in every iteration.
        return "same location every iteration"
    if distance == 0:
        return None  # loop-independent dependence only
    return f"loop-carried dependence (distance {distance})"
