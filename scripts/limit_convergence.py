#!/usr/bin/env python3
"""Watch (p-1)^N Z~(p, p^-s) converge to the scheme zeta as p -> 1."""

from f1zeta.scheme_zeta import zeta_of_scheme
from f1zeta.schemes import projective_space_model, torsion_point_model, torus_model
from f1zeta.weil import default_base_sequence, limit_toward_one
from f1zeta.zetas import evaluate_zeta, pretty_zeta


def main() -> None:
    cases = [
        (torsion_point_model([2]), 2 + 0j),
        (torus_model(), 3 + 0j),
        (projective_space_model(1), 2.5 + 0j),
        (torus_model(2), 4 + 1j),
    ]
    seq = default_base_sequence(7)
    for scheme, s in cases:
        z = zeta_of_scheme(scheme)
        target = evaluate_zeta(z, s)
        print(f"\n{scheme.name}: zeta = {pretty_zeta(z)}, N = {scheme.counting.value_at_one()}, s = {s}")
        print(f"  target {target:.12g}")
        for p, v in zip(seq, limit_toward_one(scheme, s, seq)):
            print(f"  p = {p:<10.7f} value = {v:.12g}   |gap| = {abs(v - target):.3e}")


if __name__ == "__main__":
    main()
