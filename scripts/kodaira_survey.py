#!/usr/bin/env python3
"""Print the invariant table of every shipped fixture and cross-check the
elliptic conductor column against the discriminant formula."""

import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from neroncalc.conductors import (
    STANDARD_VDELTA,
    EllipticData,
    KodairaType,
    c_elliptic,
    ctame_elliptic,
)
from neroncalc.errors import PreconditionError
from neroncalc.invariants import invariant_report
from neroncalc.kodaira import ALL_FIXTURES, fixture_curve


def elliptic_check(name: str) -> str:
    try:
        kt = KodairaType.parse(name)
    except PreconditionError:
        return "-"
    v_delta = STANDARD_VDELTA[kt.kind](kt.n)
    potential = "multiplicative" if kt.kind in ("I", "I*") and (kt.n or 0) > 0 else "good"
    if kt.kind == "I" and kt.n == 0:
        potential = "good"
    v_j = -kt.n if potential == "multiplicative" else None
    c = c_elliptic(EllipticData(kt, v_delta, potential, v_j=v_j))
    ct = ctame_elliptic(kt)
    return "c=%s%s" % (c, "" if c == ct else " (!= c_tame %s)" % ct)


def main() -> int:
    header = ("name", "g", "t", "a", "u", "|Phi|", "Phi", "e", "P", "conductor")
    rows = [header]
    for name in ALL_FIXTURES:
        curve = fixture_curve(name)
        rep = invariant_report(curve)
        rows.append(
            (
                name,
                str(rep.genus),
                str(rep.toric_rank),
                str(rep.abelian_rank),
                str(rep.unipotent_rank),
                str(rep.phi.order),
                str(rep.phi),
                str(rep.e_model),
                rep.char_poly.poly_str(),
                elliptic_check(name),
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    # tame conductor denominators must match the stabilization indices
    bad = []
    for name in ALL_FIXTURES:
        try:
            kt = KodairaType.parse(name)
        except PreconditionError:
            continue
        e = invariant_report(fixture_curve(name)).e_model
        if Fraction(ctame_elliptic(kt)).denominator != e:
            bad.append(name)
    print()
    print("denominator/e mismatches:", bad or "none")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
