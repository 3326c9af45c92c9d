"""Proximity force approximation for the sphere from the parallel-plate
free energy, with the closed-form regime expansions alongside the full
profile quadrature.
"""

from casphere import Geometry, PlatePoint, parallel_plates_free_energy
from casphere.pfa import pfa_free_energy, pfa_force, pfa_thermal_force, pfa_regime


def main():
    print("parallel plates, both polarizations (energy per unit area)")
    print(f"{'d':>6} {'T':>6} {'F_par':>15}")
    for d, T in [(1.0, 0.0), (1.0, 0.5), (1.0, 2.0), (0.5, 2.0)]:
        print(f"{d:6.2f} {T:6.2f} {parallel_plates_free_energy(PlatePoint(d, T)):15.8f}")

    geom = Geometry(R=20.0, d=0.2)
    print(f"\nsphere R={geom.R}, d={geom.d} (eps={geom.eps}):")
    for T in (0.0, 1.0, 5.0):
        e = pfa_free_energy(geom, T)
        f = pfa_force(geom, T)
        print(f"  T={T:4.1f}:  F_pfa = {e:12.5f}   f_pfa = {f:12.5f}")

    print("\nregime expansions vs the full quadrature (T = 5, dT = 1):")
    out = pfa_regime(geom, 5.0, "medium_high")
    print(f"  medium/high energy {out['energy']:12.5f}  "
          f"full {pfa_free_energy(geom, 5.0):12.5f}")
    print(f"  medium/high force  {out['force']:12.5f}  "
          f"full {pfa_force(geom, 5.0):12.5f}")
    T = 40.0  # dT = 8: high-temperature laws
    high = pfa_regime(geom, T, "high")
    print(f"  high-T energy law  {high['energy']:12.4f}  "
          f"full {pfa_free_energy(geom, T):12.4f}")
    print(f"  high-T force law   {high['force']:12.4f}  "
          f"full {pfa_force(geom, T):12.4f}")

    print("\ntemperature part of the PFA force (one scalar mode):")
    for R in (0.5, 1.0, 3.0):
        g = Geometry(R, 0.01 * R)
        print(f"  R={R:4.1f}, eps=0.01: f_T = {pfa_thermal_force(g, 1.0, 1):+.5f}")
    print("negative values: thermal fluctuations strengthen the attraction")


if __name__ == "__main__":
    main()
