#!/usr/bin/env python3
"""Walk the limit curve tau0(s) and the coupling thresholds s*(lam).

tau0(s) is the largest root of the quartic
    x^4 - (2s^2+4)x^3 + (2s^2+6)x^2 - (2s^4-2s^2+4)x + (s^2-1)^2
and s*(lam) is the coupling where that curve passes through lam, i.e.
the threshold below which lam can be approached from caterpillar
spectra. Everything prints from one precision context.
"""

import argparse

from deflap import PrecisionContext, convergence_margin, laplacian_closed_form, s_star, tau0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--digits", type=int, default=50)
    args = ap.parse_args()
    ctx = PrecisionContext(args.digits)

    print("tau0 along the coupling axis")
    print("%8s  %s" % ("s", "tau0(s)"))
    for s_text in ("0.001", "0.1", "0.5", "1.0", "2", "5", "10"):
        value = tau0(ctx.scalar(s_text))
        print("%8s  %s" % (s_text, value.to_decimal_string(15)))
    print()

    closed = laplacian_closed_form(ctx)
    print("s = 1 in closed form (largest root of x^3 - 6x^2 + 8x - 4):")
    print("  %s" % closed.to_decimal_string(30))
    print("  quartic route agrees to %s" % abs(closed - tau0(ctx.scalar(1))).to_decimal_string(3))
    print()

    print("coupling thresholds s*(lam), with the quartic residual at the root")
    for lam_text in ("1.5", "5.4", "2025"):
        lam = ctx.scalar(lam_text)
        s = s_star(lam)
        residual = convergence_margin(s, lam)
        print("  lam = %-6s  s* = %s   |F| = %s" % (
            lam_text, s.to_decimal_string(20), abs(residual).to_decimal_string(2)))
    print()
    print("s*(lam) -> 1 as lam grows: deformations barely below the")
    print("adjacency limit are what reach large spectral radii.")


if __name__ == "__main__":
    main()
