"""Tour of the parallel-plate temperature functions g and h.

g enters the free energy per unit area of two conducting planes,
F = -pi^2/(720 d^3) (1 + g(2dT)), and h governs the sphere at small
separation.  Both obey exact inversion symmetries linking the low- and
high-temperature regimes.
"""

import numpy as np
from scipy.integrate import quad

from casphere import g_function, h_function
from casphere.pfa import PI3, ZETA3, g_asymptotic


def g_third_moment(cut=40.0):
    """int_0^inf dt g(t)/t^3: quad up to ``cut``, beyond it the linear
    regime g(t) = 45 zeta(3) t/pi^3 - 1 integrated in closed form."""
    v, _ = quad(lambda t: g_function(t) / t ** 3 if t > 0 else 45.0 * ZETA3 / PI3,
                0.0, cut, limit=400, epsabs=1e-12, epsrel=1e-12)
    return v + 45.0 * ZETA3 / (PI3 * cut) - 0.5 / cut ** 2


def main():
    print("g(x) and its asymptotics")
    print(f"{'x':>8} {'g(x)':>14} {'asymptotic':>14} {'rel dev':>10}")
    for x in (0.01, 0.1, 0.5, 1.0, 2.0, 10.0):
        g = g_function(x)
        ga = g_asymptotic(x)
        print(f"{x:8.2f} {g:14.8f} {ga:14.8f} {abs(g - ga)/abs(g):10.2e}")
    print("\nthe deviation peaks at the symmetry point x = 1 (about 5%)\n")

    print("inversion symmetries")
    for x in (0.1, 0.5, 2.0, 10.0):
        lhs = g_function(x)
        rhs = x ** 4 * g_function(1.0 / x)
        print(f"  g({x:5.2f}) = {lhs:.12e}   x^4 g(1/x) = {rhs:.12e}")
    for x in (0.3, 1.0, 3.0):
        lhs = h_function(1.0 / x)
        rhs = 5.0 / x ** 2 - h_function(x) / x ** 4
        print(f"  h(1/{x:4.2f}) = {lhs:.12e}   5/x^2 - h(x)/x^4 = {rhs:.12e}")
    print(f"\n  fixed point: h(1) = {h_function(1.0)!r}  (exactly 5/2)")

    print("\nderivative identity d/dx [h/x^2] = -(2/x^3) g(x):")
    for x in (0.3, 1.0, 3.0):
        e = 1e-6 * x
        lhs = (h_function(x + e) / (x + e) ** 2
               - h_function(x - e) / (x - e) ** 2) / (2 * e)
        rhs = -2.0 / x ** 3 * g_function(x)
        print(f"  x={x:4.1f}: finite difference {lhs:+.9f}  closed form {rhs:+.9f}")

    print(f"\nthird moment int_0^inf g(t)/t^3 dt = {g_third_moment():.10f} (5/2)")


if __name__ == "__main__":
    main()
