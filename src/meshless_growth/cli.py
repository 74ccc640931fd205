"""Command line interface.

Subcommands:
  run          execute a scenario or preset and write snapshots + run log
  stability    evaluate the per-star step bound on the initial state
  verify       stencil sanity checks against polynomial and classical oracles
  convergence  manufactured-solution refinement studies

Exit codes: 0 success, 1 configuration or verification failure, 2 divergence.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .cloud import generate_jittered, generate_regular
from .errors import DegenerateStarError, NoAdmissibleTimeStepError
from .harness import (
    convergence_study,
    fd_equivalence,
    polynomial_exactness,
    regular_refinement,
    temporal_convergence_study,
)
from .output import (
    write_csv,
    write_plot_script,
    write_run_log,
    write_snapshots,
    write_stability_report,
    write_stencil_dump,
)
from .scenario import PRESET_NAMES, Scenario, get_preset, parse_scenario
from .scheme import March, run as run_scheme
from .stability import dt_bound
from .stencil import STAR_RULE

# ValueError covers ScenarioError, CloudError and InsufficientNodesError.
CONFIG_ERRORS = (DegenerateStarError, NoAdmissibleTimeStepError, ValueError, OSError)


def _add_scenario_args(p: argparse.ArgumentParser, with_run_flags: bool = True):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", help="path to a scenario file")
    src.add_argument("--preset", choices=PRESET_NAMES, help="built-in scenario")
    p.add_argument("--out", help="output directory (sets output.dir)")
    p.add_argument("--seed", type=int, help="cloud seed (sets cloud.seed)")
    if with_run_flags:
        p.add_argument("--dt-override", type=float, dest="dt_override",
                       help="time step (sets scheme.dt)")


def _load_scenario(args) -> Scenario:
    """The scenario with --seed, --out and --dt-override merged in as its keys."""
    overrides = {"cloud.seed": args.seed, "output.dir": args.out,
                 "scheme.dt": getattr(args, "dt_override", None)}
    if args.scenario:
        return parse_scenario(args.scenario, overrides)
    return get_preset(args.preset, overrides)


def _assemble(scenario: Scenario):
    cloud = scenario.cloud.build()
    table = scenario.star.build_table(cloud)
    initial = scenario.initial_state(cloud)
    return cloud, table, initial


def _cmd_run(args) -> int:
    scenario = _load_scenario(args)
    cloud, table, initial = _assemble(scenario)
    traj = run_scheme(cloud, table, scenario.model, initial, scenario.scheme)
    out = scenario.output_dir
    write_snapshots(traj, out)
    write_run_log(traj, out)
    write_plot_script(traj, out)
    for ev in traj.stability_events:
        print(f"step {ev.step} t={ev.time:.6f}: dt={ev.dt:.3e} exceeds bound "
              f"{ev.global_dt:.3e} ({ev.action})")
    if traj.diverged is not None:
        print(f"error: {traj.diverged}", file=sys.stderr)
        print(f"partial results in {out}", file=sys.stderr)
        return 2
    print(f"{scenario.name}: {traj.log[-1].step} steps to t={traj.final.time:g}, "
          f"max k={traj.log[-1].max_k:.6g}; results in {out}")
    return 0


def _cmd_stability(args) -> int:
    scenario = _load_scenario(args)
    _, table, initial = _assemble(scenario)
    state = March(table, scenario.model).project(initial.k, initial.A, initial.time)
    report = dt_bound(table, state, scenario.model)
    out = scenario.output_dir
    os.makedirs(out, exist_ok=True)
    path = write_stability_report(report, os.path.join(out, "stability.csv"))
    if args.dump_stencils:
        write_stencil_dump(table, os.path.join(out, "stencil_dump.csv"))
    print(f"{scenario.name}: global dt bound {report.global_dt:.6e} over "
          f"{report.nodes.size} interior stars; "
          f"{len(report.violations)} sign-condition failures; report in {path}")
    if scenario.scheme.dt > report.global_dt:
        print(f"warning: scenario dt={scenario.scheme.dt:g} exceeds the bound")
    return 0


def _cmd_verify(args) -> int:
    out = args.out
    checks: list[tuple[str, float, float]] = []

    cloud1 = generate_jittered(100, 1.0, dim=1, jitter=0.3, seed=1)
    checks.append(("polynomial exactness 1D jittered N=100 s=2",
                   polynomial_exactness(cloud1, *STAR_RULE[1]).max_error, 1e-9))
    cloud2 = generate_jittered(20, 1.0, dim=2, jitter=0.25, seed=2)
    checks.append(("polynomial exactness 2D jittered N=400 s=8 quadrant",
                   polynomial_exactness(cloud2, *STAR_RULE[2]).max_error, 1e-9))
    checks.append(("classical difference recovery 1D",
                   fd_equivalence(generate_regular(11, 1.0, dim=1)), 1e-12))
    checks.append(("classical difference recovery 2D",
                   fd_equivalence(generate_regular(11, 1.0, dim=2)), 1e-12))

    ok = True
    lines = []
    for name, value, tol in checks:
        status = "pass" if value <= tol else "FAIL"
        ok = ok and value <= tol
        lines.append((name, value, tol, status))
        print(f"{status}: {name}: {value:.3e} (tolerance {tol:.0e})")
    if out:
        os.makedirs(out, exist_ok=True)
        write_csv(os.path.join(out, "verify_report.csv"),
                  ["check", "value", "tolerance", "status"], lines)
    return 0 if ok else 1


def _print_levels(title: str, result, label: str, fmt: str) -> None:
    """One line per level with its rate against the previous level."""
    print(title)
    prev = None
    for x, err in result.levels:
        rate = "-"
        if prev is not None:
            rate = f"{math.log(prev[1] / err) / math.log(prev[0] / x):.3f}"
        print(f"  {label}={x:{fmt}}  max error={err:.6e}  rate={rate}")
        prev = (x, err)
    print(f"  observed order: {result.observed_order:.3f}")


def _cmd_convergence(args) -> int:
    clouds = regular_refinement(9, 3, dim=args.dim)
    spatial = convergence_study(clouds)
    temporal = temporal_convergence_study(clouds[1])

    _print_levels(f"spatial refinement ({args.dim}D):", spatial, "h", ".5f")
    _print_levels("time refinement:", temporal, "dt", ".2e")

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for fname, result, label in [("convergence_spatial.csv", spatial, "h"),
                                     ("convergence_temporal.csv", temporal, "dt")]:
            # repr writes an unfitted order as None, where csv would leave it empty
            write_csv(os.path.join(args.out, fname), [label, "max_error"],
                      [*result.levels, ("observed_order", repr(result.observed_order))])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshless-growth",
        description="Meshless solver for a capital-technology growth system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a scenario")
    _add_scenario_args(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("stability", help="per-star step bound of the initial state")
    _add_scenario_args(p, with_run_flags=False)
    p.add_argument("--dump-stencils", action="store_true",
                   help="also write every stencil row")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("verify", help="stencil checks against analytic oracles")
    p.add_argument("--out", help="directory for the CSV report")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("convergence", help="manufactured-solution studies")
    p.add_argument("--dim", type=int, choices=(1, 2), default=1)
    p.add_argument("--out", help="directory for the CSV reports")
    p.set_defaults(func=_cmd_convergence)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
