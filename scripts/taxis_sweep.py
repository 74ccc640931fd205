"""Sweep the taxis strength chi and track where capital accumulates.

Usage:
    python scripts/taxis_sweep.py [--chis 0,0.25,0.5,1] [--dt 0.001]

Starts from the growth-1d-chi1 preset (technology growth bump centered at
x=0.1) and varies only chi.  With chi=0 capital grows in place; raising chi
drags the capital peak toward the technology bump and sharpens it.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from meshless_growth import get_preset, run  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--chis", default="0,0.25,0.5,1")
    ap.add_argument("--dt", type=float, default=None)
    args = ap.parse_args(argv)
    chis = [float(c) for c in args.chis.split(",")]

    sc = get_preset("growth-1d-chi1", {"scheme.dt": args.dt})
    cloud = sc.cloud.build()
    table = sc.star.build_table(cloud)
    x = cloud.positions[:, 0]
    init = sc.initial_state(cloud)

    print(f"g bump center x=0.1, t_final={sc.scheme.t_final}, "
          f"dt={sc.scheme.dt}, N={cloud.n_nodes}")
    for chi in chis:
        params = replace(sc.model, chi=chi)
        traj = run(cloud, table, params, init, sc.scheme)
        if traj.diverged is not None:
            print(f"  chi={chi:<6g} DIVERGED at step {traj.diverged.step}")
            continue
        k = traj.final.k
        centroid = float((x * k).sum() / k.sum())
        print(f"  chi={chi:<6g} peak k={k.max():<12.6g} "
              f"argmax x={x[np.argmax(k)]:<8.4g} centroid x={centroid:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
