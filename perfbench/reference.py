"""Independent reference for the model QFI, F_Q(T), computed with mpmath.

The closed form is evaluated without chainqfi:

    chi''(w) = A/(pi T) 2^(2d - 3/2) sin(2 pi d) sqrt(L) Gamma(1 - 2d)^2
               Im[ Gamma(d - ix)^2 / Gamma(1 - d - ix)^2 ],
    F_Q(T)   = (4/pi) Integral_0^wmax tanh(w / 2 k_B T) chi''(w) dw,

with L = |ln(T0/T)| (absolute-value policy; the same as strict below T0),
d = (1 - 1/(2L))/4, x = w / (4 pi k_B T) and wmax = pi J k_B, using
``mpmath.loggamma`` and ``mpmath.quad`` at 25 significant digits.

The values take about 0.2 s per temperature, so they are cached in
``reference_fq.json`` next to this file. Regenerate the cache with

    python3 perfbench/reference.py
"""
from __future__ import annotations

import json
from pathlib import Path

import workloads

CACHE = Path(__file__).with_name("reference_fq.json")
DIGITS = 25


def temperatures() -> list[str]:
    """Every temperature string a workload checks against the reference."""
    temps = (workloads.README_MODEL_TEMPS + workloads.REDUCE_TEMPS
             + workloads.GENERATE_MODEL_TEMPS)
    return sorted(set(temps), key=float)


def fq_mpmath(t: str):
    import mpmath

    mp = mpmath.mp
    mp.dps = DIGITS
    temp = mpmath.mpf(t)
    kb = mpmath.mpf(str(workloads.BOLTZMANN_MEV_PER_K))
    j = mpmath.mpf(str(workloads.J_KELVIN))
    a = mpmath.mpf(str(workloads.A_STARYKH))
    t0 = mpmath.pi * j / 8
    big_l = abs(mpmath.log(t0 / temp))
    d = (1 - 1 / (2 * big_l)) / 4
    pref = (a / (mpmath.pi * temp) * mpmath.power(2, 2 * d - mpmath.mpf(3) / 2)
            * mpmath.sin(2 * mpmath.pi * d) * mpmath.sqrt(big_l) * mpmath.gamma(1 - 2 * d) ** 2)
    kt = kb * temp

    def integrand(w):
        x = w / (4 * mpmath.pi * kt)
        ratio = mpmath.exp(2 * (mpmath.loggamma(d - 1j * x) - mpmath.loggamma(1 - d - 1j * x)))
        return mpmath.tanh(w / (2 * kt)) * pref * ratio.imag

    w_max = mpmath.pi * j * kb
    # split where tanh saturates so the quadrature resolves the low-T knee
    knots = [mpmath.mpf(0)] + [kt * 4**k for k in range(12) if kt * 4**k < w_max] + [w_max]
    return 4 / mpmath.pi * mpmath.quad(integrand, knots)


def load() -> dict[str, float]:
    with open(CACHE, encoding="utf-8") as fh:
        return json.load(fh)["f_q"]


def main() -> None:
    values = {t: float(fq_mpmath(t)) for t in temperatures()}
    payload = {
        "what": "F_Q(T) of the Starykh model, absolute-value policy, mpmath reference",
        "digits": DIGITS,
        "params": {"j_kelvin": workloads.J_KELVIN, "a_starykh": workloads.A_STARYKH,
                   "t0_kelvin": workloads.T0_KELVIN,
                   "k_b_meV_per_K": workloads.BOLTZMANN_MEV_PER_K},
        "f_q": values,
    }
    with open(CACHE, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(values)} reference values to {CACHE}")


if __name__ == "__main__":
    main()
