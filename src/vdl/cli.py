"""Command-line front end.

Subcommands::

    vdl kernel-sweep   sweep tau, alpha or kappa and write a CSV curve
    vdl oracle-check   cross-validate the closed form against quadrature
    vdl feasibility    render a feasibility report from a config file
    vdl figure2        emit the kernel-vs-tau curves at kappa = 1e8
    vdl modes-demo     grid-simulator convergence study

Every output file starts with a ``#``-commented manifest block (command,
full parameter echo, constants, version, UTC timestamp) sufficient to
reproduce the numeric payload byte for byte.  Numbers are written with
17 significant digits and a locale-independent decimal point.

Exit codes: 0 success, 2 usage or validation error, 3 numerical
non-convergence, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, cavityfield, feasibility, kernel, modesum
from .constants import C_LIGHT, EPS0, HBAR, dipole_coupling_scale
from .errors import CapabilityError, ConvergenceError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_CONFIG_KEYS = {
    "molecule.polarizability": "C m^2/V",
    "molecule.size": "m",
    "molecule.velocity": "m/s",
    "molecule.mass": "kg",
    "laser.power": "W",
    "laser.sigma_y": "m",
    "laser.sigma_z": "m",
    "laser.period": "m",
    "cavity.L": "m",
    "cavity.k_max": "1/m",
}
_OPTIONAL_KEYS = {"run.transit_convention": "sigma | two_sigma"}


class UsageError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _manifest_lines(command: str, inputs: dict) -> list[str]:
    lines = [
        f"# vdl {__version__} manifest",
        f"# command = {command}",
        f"# timestamp_utc = {datetime.now(timezone.utc).isoformat()}",
    ]
    for key in sorted(inputs):
        lines.append(f"# input {key} = {inputs[key]}")
    lines.append(
        f"# constants c = {_fmt(C_LIGHT)} ; hbar = {_fmt(HBAR)} ; eps0 = {_fmt(EPS0)}"
    )
    return lines


def _write_text(path: Path, lines: list[str]):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def parse_config(path: Path) -> dict[str, str]:
    """Flat ``key = value`` file; '#' starts a comment."""
    values: dict[str, str] = {}
    text = path.read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key] = value
    return values


def _float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"{flag} expects a comma-separated list of numbers")


def _sweep_values(args) -> np.ndarray:
    if args.points < 2:
        raise UsageError("--points must be >= 2")
    if not (args.start < args.stop):
        raise UsageError("--start must be below --stop")
    if args.scale == "log":
        if args.start <= 0:
            raise UsageError("log scale requires --start > 0")
        return np.geomspace(args.start, args.stop, args.points)
    return np.linspace(args.start, args.stop, args.points)


def _curve_lines(points, tail_bound: float) -> list[str]:
    """Header and ``tau,alpha,kappa,gamma,D,status`` rows for (alpha, kappa,
    tau) points; a point whose series does not converge is flagged
    ``no_convergence`` with nan values and the curve continues."""
    policy = kernel.SeriesPolicy(tail_bound=tail_bound)
    lines = ["tau,alpha,kappa,gamma,D,status"]
    for alpha, kappa, tau in points:
        try:
            res = kernel.decoherence_kernel(
                kernel.DimensionlessParams(alpha, kappa, tau), policy)
            gamma, d, status = res.gamma, res.kernel, "ok"
        except ConvergenceError:
            gamma, d, status = float("nan"), float("nan"), "no_convergence"
        lines.append(f"{_fmt(tau)},{_fmt(alpha)},{_fmt(kappa)},"
                     f"{_fmt(gamma)},{_fmt(d)},{status}")
    return lines


# ---------------------------------------------------------------- commands


def cmd_kernel_sweep(args) -> int:
    values = _sweep_values(args)
    fixed = {"alpha": args.alpha, "kappa": args.kappa, "tau": args.tau}
    points = [{**fixed, args.sweep: float(v)} for v in values]
    lines = _manifest_lines(
        "kernel-sweep",
        {
            "sweep": args.sweep,
            "start": _fmt(args.start),
            "stop": _fmt(args.stop),
            "points": args.points,
            "scale": args.scale,
            "alpha": _fmt(args.alpha),
            "kappa": _fmt(args.kappa),
            "tau": _fmt(args.tau),
            "tail_bound": _fmt(args.tail_bound),
        },
    )
    lines += _curve_lines(
        [(p["alpha"], p["kappa"], p["tau"]) for p in points], args.tail_bound)
    _write_text(Path(args.out), lines)
    print(f"wrote {args.out} ({len(points)} rows)")
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    kappas = _float_list(args.kappa_grid, "--kappa-grid")
    taus = _float_list(args.tau_grid, "--tau-grid")
    alpha = args.alpha
    spec = modesum.QuadratureSpec(rel_tol=min(1e-9, args.tolerance / 100.0))
    rows = []
    worst = 0.0
    failed = False
    for kappa in kappas:
        for tau in taus:
            for m in range(1, args.m_max + 1):
                params = kernel.DimensionlessParams(alpha, kappa, tau)
                closed = kernel.kernel_term(m, params)
                try:
                    quad = 2.0 * alpha ** 2 / np.pi * modesum.radial_integral_m(
                        m, kappa, tau, spec)
                except CapabilityError as exc:
                    rows.append((m, kappa, tau, closed, float("nan"),
                                 float("nan"), f"capability: {exc}"))
                    continue
                denom = max(abs(closed), abs(quad), 1e-300)
                rel = abs(closed - quad) / denom
                worst = max(worst, rel)
                status = "ok" if rel <= args.tolerance else "FAIL"
                failed |= status == "FAIL"
                rows.append((m, kappa, tau, closed, quad, rel, status))
    header = f"{'m':>3} {'kappa':>9} {'tau':>6} {'closed':>24} {'quadrature':>24} {'rel_err':>10} status"
    table = [header]
    for m, kappa, tau, closed, quad, rel, status in rows:
        table.append(
            f"{m:>3} {kappa:>9g} {tau:>6g} {_fmt(closed):>24} {_fmt(quad):>24} "
            f"{rel:>10.2e} {status}"
        )
    table.append(f"# worst rel_err = {worst:.3e}")
    print("\n".join(table))
    if args.out:
        manifest = _manifest_lines(
            "oracle-check",
            {
                "m_max": args.m_max,
                "kappa_grid": args.kappa_grid,
                "tau_grid": args.tau_grid,
                "alpha": _fmt(alpha),
                "tolerance": _fmt(args.tolerance),
            },
        )
        _write_text(Path(args.out), manifest + table)
    return EXIT_NUMERICAL if failed else EXIT_OK


def _load_feasibility_inputs(args):
    raw: dict[str, str] = {}
    if args.config:
        raw.update(parse_config(Path(args.config)))
    overrides = {
        "molecule.polarizability": args.polarizability,
        "molecule.size": args.size,
        "molecule.velocity": args.velocity,
        "molecule.mass": args.mass,
        "laser.power": args.power,
        "laser.sigma_y": args.sigma_y,
        "laser.sigma_z": args.sigma_z,
        "laser.period": args.period,
        "cavity.L": args.plate_separation,
        "cavity.k_max": args.k_max,
        "run.transit_convention": args.transit_convention,
    }
    for key, value in overrides.items():
        if value is not None:
            raw[key] = str(value)
    missing = [k for k in _CONFIG_KEYS if k not in raw]
    if missing:
        raise UsageError(
            "missing required configuration keys: " + ", ".join(missing)
            + " (units: " + "; ".join(f"{k} [{u}]" for k, u in _CONFIG_KEYS.items()) + ")"
        )
    def num(key):
        try:
            return float(raw[key])
        except ValueError:
            raise UsageError(f"configuration key {key} is not a number: {raw[key]!r}")
    molecule = feasibility.MoleculeSpec(
        name=raw.get("molecule.name", args.config or "molecule"),
        polarizability=num("molecule.polarizability"),
        size=num("molecule.size"),
        mass=num("molecule.mass"),
        velocity=num("molecule.velocity"),
    )
    laser = feasibility.LaserConfig(
        power=num("laser.power"),
        sigma_y=num("laser.sigma_y"),
        sigma_z=num("laser.sigma_z"),
        grating_period=num("laser.period"),
    )
    cavity = feasibility.CavityConfig(
        plate_separation=num("cavity.L"),
        cutoff_wavenumber=num("cavity.k_max"),
    )
    convention = raw.get("run.transit_convention", "sigma")
    return molecule, laser, cavity, convention, raw


def cmd_feasibility(args) -> int:
    molecule, laser, cavity, convention, raw = _load_feasibility_inputs(args)
    report = feasibility.full_report(molecule, laser, cavity,
                                     transit_convention=convention)
    fields = {
        "efield_V_per_m": report.efield,
        "dipole_C_m": report.dipole,
        "alpha": report.alpha,
        "tau": report.tau,
        "suddenness_ratio": report.suddenness_ratio,
        "phase_amplitude_rad": report.phase_amplitude,
        "threshold_dipole_C_m": report.threshold_dipole,
        "image_charge_C": report.image_charge,
        "image_decoherence_time_s": report.image_decoherence_time,
        "grating_transit_time_s": report.grating_transit_time,
        "gamma": report.kernel_result.gamma,
        "kernel_D": report.kernel_result.kernel,
        "visibility_loss_proxy": report.visibility_loss_proxy,
    }
    human = [f"feasibility report: {report.molecule}"]
    for name, value in fields.items():
        human.append(f"  {name:>26} = {_fmt(value)}")
    human.append("  verdicts:")
    for name, ok in report.verdicts.items():
        human.append(f"  {name:>26} : {'pass' if ok else 'FAIL'}")
    print("\n".join(human))
    if args.out:
        lines = _manifest_lines("feasibility", dict(sorted(raw.items())))
        lines.append("key,value")
        for name, value in fields.items():
            lines.append(f"{name},{_fmt(value)}")
        for name, ok in report.verdicts.items():
            lines.append(f"verdict.{name},{'pass' if ok else 'fail'}")
        _write_text(Path(args.out), lines)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_figure2(args) -> int:
    alphas = _float_list(args.alphas, "--alphas")
    taus = np.linspace(0.0, args.tau_max, args.points)
    out_dir = Path(args.out_dir)
    for alpha in alphas:
        lines = _manifest_lines(
            "figure2",
            {
                "alpha": _fmt(alpha),
                "kappa": _fmt(args.kappa),
                "tau_max": _fmt(args.tau_max),
                "points": args.points,
                "tail_bound": _fmt(args.tail_bound),
            },
        )
        lines += _curve_lines(
            [(alpha, args.kappa, float(tau)) for tau in taus], args.tail_bound)
        path = out_dir / f"figure2_alpha{alpha:g}.csv"
        _write_text(path, lines)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_modes_demo(args) -> int:
    if args.kappa > 100.0:
        raise UsageError("modes-demo is a demonstration tool: kappa must be <= 100")
    grids = [int(g) for g in _float_list(args.grids, "--grids")]
    L = args.plate_separation
    d = args.dipole
    T = args.tau * L / C_LIGHT
    if args.plates:
        prof_a = cavityfield.DipoleProfile("left_plate", -d)
        prof_b = cavityfield.DipoleProfile("right_plate", d)
        reference = kernel.kernel_at_plates(-d, d, L, args.kappa, args.tau).kernel
        label = "kernel_at_plates"
    else:
        prof_a = cavityfield.DipoleProfile("center", 0.0)
        prof_b = cavityfield.DipoleProfile("center", d)
        alpha = abs(d) / dipole_coupling_scale(L)
        gamma = alpha ** 2 / np.pi * sum(
            2.0 * modesum.radial_integral_m(m, args.kappa, args.tau)
            for m in range(1, args.m_max + 1)
        )
        reference = float(np.exp(-gamma))
        label = "modesum"
    n_cavity = int(np.ceil(args.kappa / np.pi))
    rows = []
    for g in grids:
        grid = cavityfield.ModeGrid(
            n_max=max(g, n_cavity), k_par_max=args.kappa / L,
            k_par_points=g, L=L,
        )
        ov = cavityfield.overlap_excluding_free_space(prof_a, prof_b, T, grid)
        rows.append((g, ov, reference, abs(ov - reference) / reference))
    lines = _manifest_lines(
        "modes-demo",
        {
            "kappa": _fmt(args.kappa),
            "tau": _fmt(args.tau),
            "dipole": _fmt(d),
            "plate_separation": _fmt(L),
            "grids": args.grids,
            "plates": args.plates,
            "reference": label,
            "m_max": args.m_max,
        },
    )
    lines.append("grid_size,overlap_grid,overlap_reference,rel_dev")
    for g, ov, ref, dev in rows:
        lines.append(f"{g},{_fmt(ov)},{_fmt(ref)},{_fmt(dev)}")
    _write_text(Path(args.out), lines)
    print("\n".join(lines[-len(rows):]))
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------- parser


def _add_out(sub: argparse.ArgumentParser):
    sub.add_argument("--out", default=None, help="output file path")


def _add_tail_bound(sub: argparse.ArgumentParser):
    sub.add_argument("--tail-bound", type=float, default=1e-12,
                     help="series tail bound for kernel evaluations")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vdl",
        description="decoherence kernel laboratory for a suddenly switched dipole "
                    "between conducting plates",
    )
    parser.add_argument("--version", action="version", version=f"vdl {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sweep = subs.add_parser("kernel-sweep", allow_abbrev=False,
                            help="sweep tau/alpha/kappa, write CSV")
    _add_out(sweep)
    _add_tail_bound(sweep)
    sweep.add_argument("--alpha", type=float, default=0.5)
    sweep.add_argument("--kappa", type=float, default=1e8)
    sweep.add_argument("--tau", type=float, default=0.0)
    sweep.add_argument("--sweep", choices=("tau", "alpha", "kappa"), default="tau")
    sweep.add_argument("--start", type=float, required=True)
    sweep.add_argument("--stop", type=float, required=True)
    sweep.add_argument("--points", type=int, default=1001)
    sweep.add_argument("--scale", choices=("linear", "log"), default="linear")
    sweep.set_defaults(func=cmd_kernel_sweep, needs_out=True)

    oracle = subs.add_parser("oracle-check", allow_abbrev=False,
                             help="closed form vs quadrature identity table")
    _add_out(oracle)
    oracle.add_argument("--m-max", type=int, default=6)
    oracle.add_argument("--kappa-grid", default="50,200,1000")
    oracle.add_argument("--tau-grid", default="0.3,0.9,1.7,2.5")
    oracle.add_argument("--alpha", type=float, default=0.3)
    oracle.add_argument("--tolerance", type=float, default=1e-6)
    oracle.set_defaults(func=cmd_oracle_check, needs_out=False)

    feas = subs.add_parser("feasibility", allow_abbrev=False,
                           help="experimental feasibility report")
    _add_out(feas)
    feas.add_argument("--config", default=None, help="key = value configuration file")
    feas.add_argument("--polarizability", type=float, default=None)
    feas.add_argument("--size", type=float, default=None)
    feas.add_argument("--velocity", type=float, default=None)
    feas.add_argument("--mass", type=float, default=None)
    feas.add_argument("--power", type=float, default=None)
    feas.add_argument("--sigma-y", type=float, default=None)
    feas.add_argument("--sigma-z", type=float, default=None)
    feas.add_argument("--period", type=float, default=None)
    feas.add_argument("--plate-separation", type=float, default=None)
    feas.add_argument("--k-max", type=float, default=None)
    feas.add_argument("--transit-convention", choices=feasibility.TRANSIT_CONVENTIONS,
                      default=None)
    feas.set_defaults(func=cmd_feasibility, needs_out=False)

    fig2 = subs.add_parser("figure2", allow_abbrev=False,
                           help="kernel vs tau curves at kappa = 1e8")
    _add_tail_bound(fig2)
    fig2.add_argument("--out-dir", default="figure2")
    fig2.add_argument("--alphas", default="0.1,0.3,0.5",
                      help="comma list; the published curves show this range")
    fig2.add_argument("--points", type=int, default=1001)
    fig2.add_argument("--kappa", type=float, default=1e8)
    fig2.add_argument("--tau-max", type=float, default=5.0)
    fig2.set_defaults(func=cmd_figure2, needs_out=False)

    demo = subs.add_parser("modes-demo", allow_abbrev=False,
                           help="grid-simulator convergence study")
    _add_out(demo)
    demo.add_argument("--kappa", type=float, default=50.0)
    demo.add_argument("--tau", type=float, default=0.4)
    demo.add_argument("--dipole", type=float, default=1e-22)
    demo.add_argument("--plate-separation", type=float, default=1e-3)
    demo.add_argument("--grids", default="50,100,200,400")
    demo.add_argument("--m-max", type=int, default=120)
    demo.add_argument("--plates", action="store_true",
                      help="antisymmetric plates demo instead of the centered one")
    demo.set_defaults(func=cmd_modes_demo, needs_out=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "needs_out", False) and not args.out:
        print(f"vdl {args.command}: --out is required", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"vdl {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"vdl {args.command}: numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"vdl {args.command}: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
