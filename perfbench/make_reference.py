"""Regenerate measure_reference.json: moments of the Curie-Weiss mixing
measure on the `measure` workload's grid, from mpmath quadrature.

The measure is e^{-S F_beta(t)/2} / (1 - t^2) on (-1, 1) with
F_beta(t) = artanh(t)^2 / beta + ln(1 - t^2).  In y = artanh t the Jacobian
cancels the 1/(1 - t^2) factor and F_beta(tanh y) = y^2 / beta - 2 ln cosh y,
so the K-th moment is

    M_K = int tanh(y)^K w(y) dy / int w(y) dy,
    w(y) = exp(-S/2 (g(y) - g(y*))),   g(y) = y^2 / beta - 2 ln cosh y,

with y* the minimiser of g on [0, inf) (0 for beta <= 1, else the positive
root of y / beta = tanh y).  Both integrands are even, so the integrals run
over [0, inf), split where the exponent has dropped by 1/8, 1/2, 2, ... 512
on each side of y* and cut where it has dropped by 700 (e^-700 ~ 1e-304).
The table is computed at two working precisions and written only when they
agree to well beyond the 30 digits kept.

Run from the repository root: python3 perfbench/make_reference.py
"""

import json
from pathlib import Path

import mpmath as mp

BETAS = ["0.3", "0.99", "1", "1.01", "2", "5", "8", "15"]
SCALES = ["1", "1e3", "1e6", "1.7e7", "1e10"]
KS = [2, 4, 6, 8]
DIGITS = 30
DROPS = [0.125, 0.5, 2, 8, 32, 128, 512]
CUT = 700
OUT = Path(__file__).with_name("measure_reference.json")


def _bisect(f, lo, hi, iters):
    """Root of an increasing f on [lo, hi] with f(lo) < 0 < f(hi)."""
    for _ in range(iters):
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def cell_moments(beta, S, dps):
    with mp.workdps(dps):
        beta, S = mp.mpf(beta), mp.mpf(S)
        iters = int(dps * 3.6) + 20
        g = lambda y: y * y / beta - 2 * mp.log(mp.cosh(y))
        if beta <= 1:
            ystar = mp.mpf(0)
        else:
            ystar = _bisect(lambda y: y / beta - mp.tanh(y),
                            mp.mpf(10) ** (-dps // 2), beta, iters)
        gstar = g(ystar)
        drop = lambda y: S / 2 * (g(y) - gstar)

        def reach(d, direction):
            # point beyond y* (direction +1) or before it (-1) where drop = d
            if direction < 0 and drop(mp.mpf(0)) <= d:
                return None
            step = mp.mpf(1)
            while True:
                far = ystar + direction * step
                if direction < 0 and far <= 0:
                    far = mp.mpf(0)
                if drop(far) >= d:
                    break
                step *= 2
            lo, hi = (ystar, far) if direction > 0 else (far, ystar)
            f = (lambda y: drop(y) - d) if direction > 0 else \
                (lambda y: d - drop(y))
            return _bisect(f, lo, hi, iters)

        right = [reach(d, +1) for d in DROPS + [CUT]]
        left = [p for p in (reach(d, -1) for d in DROPS + [CUT])
                if p is not None]
        start = left[-1] if len(left) == len(DROPS) + 1 else mp.mpf(0)
        pts = sorted({start, ystar, *left, *right})
        pts = [p for p in pts if p >= start]
        w = lambda y: mp.exp(-drop(y))
        # mp.quad's tolerance is absolute: divide tanh(y) by its value T at
        # the drop-2 point so that tiny moments keep their relative accuracy
        T = mp.tanh(max(right[DROPS.index(2)], abs(ystar)))
        Z = mp.quad(w, pts)
        return [T ** K * mp.quad(lambda y: (mp.tanh(y) / T) ** K * w(y), pts)
                / Z for K in KS]


def main():
    cells = []
    for beta in BETAS:
        for S in SCALES:
            lo = cell_moments(beta, S, 50)
            hi = cell_moments(beta, S, 70)
            for a, b in zip(lo, hi):
                if abs(a - b) > mp.mpf(10) ** (-DIGITS - 5) * abs(b):
                    raise SystemExit(
                        f"beta={beta} S={S}: precisions disagree ({a} vs {b})")
            cells.append({"beta": float(beta), "scale": float(S),
                          "moments": {str(K): mp.nstr(v, DIGITS)
                                      for K, v in zip(KS, hi)}})
            print(f"beta={beta} S={S} m2={mp.nstr(hi[0], 12)}", flush=True)
    OUT.write_text(json.dumps({
        "source": "perfbench/make_reference.py (mpmath quadrature, "
                  f"checked at 50 and 70 digits, {DIGITS} kept)",
        "measure": "e^{-S F_beta(t)/2} / (1 - t^2) on (-1, 1)",
        "cells": cells}, indent=1) + "\n")


if __name__ == "__main__":
    main()
