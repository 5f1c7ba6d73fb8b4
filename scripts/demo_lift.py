#!/usr/bin/env python3
"""End-to-end lifting demo.

Builds a random Lipschitz path of measures on a 3-point space, writes
the CLI input files, runs the iterative lifting pipeline, and prints the
certificate summary.  Everything is exact; rerunning with the same seed
reproduces the files byte for byte.

    python scripts/demo_lift.py --seed 0 --out demo_out
"""

import argparse
import random
from fractions import Fraction
from pathlib import Path

from pathlift import PreconditionError, canonical_rv, law, lift_path, match_to_law
from pathlift import gen
from pathlift.serialize import (
    blocks_to_obj,
    certificate_to_obj,
    dumps,
    frac_str,
    lift_to_obj,
    measure_to_obj,
    parse_frac,
    sampled_to_obj,
    space_to_obj,
)

F = Fraction


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="demo_out")
    parser.add_argument("--tol", default="1/25")
    parser.add_argument("--iters", type=int, default=3)
    args = parser.parse_args()
    try:
        tol = parse_frac(args.tol)
    except PreconditionError as exc:
        parser.error(f"--tol: {exc}")
    if tol <= 0:
        parser.error(f"--tol: tolerance must be positive, got {args.tol!r}")
    if args.iters < 1:
        parser.error("--iters: at least one iteration is required")

    rng = random.Random(args.seed)
    space = gen.rand_space(rng, 3)
    alpha = gen.rand_sampled(rng, space, max_lipschitz=4)
    x_start = canonical_rv(alpha.eval(F(0)))
    x_end = match_to_law(gen.rand_rv(rng, space), alpha.eval(F(1)))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "path.json").write_text(dumps(sampled_to_obj(alpha)))
    (out / "endpoints.json").write_text(
        dumps(
            {
                "space": space_to_obj(space),
                "start": blocks_to_obj(x_start),
                "end": blocks_to_obj(x_end),
            }
        )
    )

    lift, cert = lift_path(alpha, x_start, x_end, tol, args.iters, grid_n=65)
    (out / "lift.json").write_text(
        dumps({"lift": lift_to_obj(lift), "certificate": certificate_to_obj(cert)})
    )
    (out / "lift_only.json").write_text(dumps(lift_to_obj(lift)))
    (out / "mu.json").write_text(dumps(measure_to_obj(law(x_start))))
    (out / "nu.json").write_text(dumps(measure_to_obj(law(x_end))))

    print(f"space points:        {', '.join(space.points)}")
    print(f"declared Lipschitz:  {frac_str(alpha.lipschitz)}")
    print(f"tolerance:           {frac_str(tol)} over {args.iters} iterations")
    print(f"lift pieces:         {len(lift.segments)}")
    print(f"grid size:           {len(cert.grid)}")
    print(f"max law gap:         {frac_str(cert.max_law_gap)}")
    print(f"endpoints exact:     {cert.endpoint_ok}")
    print(f"decay table:         {[frac_str(d) for d in cert.decay_table]}")
    print(f"max continuity step: {frac_str(max(cert.continuity_table))}")
    print(f"files under {out}/: path.json endpoints.json lift.json lift_only.json")
    print(
        f"verify with: pathlift verify {out}/lift_only.json {out}/path.json "
        f"--tol {args.tol} --grid 65"
    )


if __name__ == "__main__":
    main()
