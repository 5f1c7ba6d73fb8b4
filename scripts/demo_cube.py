#!/usr/bin/env python3
"""Cube-lifting demo.

Interpolates random corner measures over [0,1]^n, lifts the
interpolation to random variables, and tabulates the exact law gap
(always 0) and the rho distance between neighbouring grid points.

    python scripts/demo_cube.py --seed 0 --dim 2 --grid 5
"""

import argparse
import random
from fractions import Fraction
from itertools import product

from pathlift import CubeInterpolation, CubeLift, g_eval, kyfan_rho, law, prokhorov
from pathlift import gen
from pathlift.serialize import frac_str

F = Fraction


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dim", type=int, default=2, choices=(1, 2, 3))
    parser.add_argument("--grid", type=int, default=5)
    parser.add_argument("--points", type=int, default=4, help="space size")
    args = parser.parse_args()
    if args.grid < 2:
        parser.error(f"--grid: at least 2 points per axis are required, got {args.grid}")
    if not 1 <= args.points <= 16:
        parser.error(f"--points: space size must be 1 to 16, got {args.points}")

    rng = random.Random(args.seed)
    space = gen.rand_space(rng, args.points)
    corners = tuple(gen.rand_measure(rng, space) for _ in range(args.dim + 1))
    interp = CubeInterpolation(space, corners)
    lift = CubeLift(interp)

    axis = [F(k, args.grid - 1) for k in range(args.grid)]
    worst_gap = F(0)
    worst_rho = F(0)
    values = {}
    for point in product(axis, repeat=args.dim):
        values[point] = lift.eval(point)
        gap = prokhorov(law(values[point]), g_eval(interp, point))
        worst_gap = max(worst_gap, gap)
    for point in product(axis, repeat=args.dim):
        for a in range(args.dim):
            k = axis.index(point[a])
            if k + 1 < len(axis):
                step = point[:a] + (axis[k + 1],) + point[a + 1 :]
                worst_rho = max(worst_rho, kyfan_rho(values[point], values[step]))

    print(f"space points:       {', '.join(space.points)}")
    print(f"cube dimension:     {args.dim}, grid {args.grid} per axis")
    print(f"max law gap:        {frac_str(worst_gap)} (exact lifting expects 0/1)")
    print(f"max adjacent rho:   {frac_str(worst_rho)}")


if __name__ == "__main__":
    main()
