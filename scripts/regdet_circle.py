#!/usr/bin/env python3
"""Regularized determinants det'(Delta + s) on the circle against the
closed form 4 sinh^2(pi sqrt(s)) / s, with the achieved bound on each
log det next to the gap."""

import math

from f1zeta.regularize import circle_spectrum, log_regularized_det, spectral_zeta


def main() -> None:
    circ = circle_spectrum()
    print(f"{'s':>10} {'det(computed)':>20} {'det(closed form)':>20} {'rel gap':>12} {'log bound':>12}")
    for s in (0.01, 0.0625, 0.25, 0.5, 1.0, 2.0, 4.0, 9.0):
        log_det = log_regularized_det(circ, s)
        got = math.exp(log_det.value)
        want = 4 * math.sinh(math.pi * math.sqrt(s)) ** 2 / s
        gap = abs(got - want) / want
        print(f"{s:>10.4f} {got:>20.10f} {want:>20.10f} {gap:>12.3e} {log_det.error_bound:>12.3e}")
    print(f"\n4 pi^2 = {4 * math.pi ** 2:.10f} (the s -> 0 limit)")
    zv = spectral_zeta(circ, 2, 1)
    print(f"operator zeta at w = 2, s = 1: {zv.value.real:.15f} (bound {zv.error_bound:.2e})")


if __name__ == "__main__":
    main()
