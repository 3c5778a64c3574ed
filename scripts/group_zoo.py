#!/usr/bin/env python3
"""Counting polynomials, functional equations and zetas for the group catalog:
every fixed name, and every family at ranks 1..3."""

from f1zeta.groups import (
    _CATALOG,
    group_counting,
    group_from_name,
    group_functional_equation,
    verify_family_identities,
)
from f1zeta.zetas import pretty_zeta, zeta_of


def main() -> None:
    for key, entry in _CATALOG.items():
        for name in [f"{key}:{n}" for n in (1, 2, 3)] if callable(entry) else [key]:
            g = group_from_name(name)
            n = group_counting(g)
            fe = group_functional_equation(g)
            print(f"\n{g.name}  (r={g.rank}, d={g.dimension}, p={g.positive_roots})")
            print(f"  N(q)   = {n}")
            print(f"  zeta   = {pretty_zeta(zeta_of(n))}")
            print(f"  FE     = zeta({fe.center}-s) = zeta(s)^({fe.sign})"
                  f"  [{'ok' if fe.holds else 'FAILS'}]")
    for family in ("gm_power", "gl"):
        for r in (1, 2, 3, 4):
            rep = verify_family_identities(r, family)
            flag = "ok" if rep.holds else f"FAILS at {rep.first_failure}"
            print(f"identities {family} r={r}: {flag}")


if __name__ == "__main__":
    main()
