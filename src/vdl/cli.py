"""Command-line front end.

Subcommands::

    vdl kernel-sweep   sweep tau, alpha or kappa and write a CSV curve
    vdl oracle-check   cross-validate the closed form against quadrature
    vdl feasibility    render a feasibility report from a config file
    vdl figure2        emit the kernel-vs-tau curves at kappa = 1e8
    vdl modes-demo     grid-simulator convergence study

Every output file starts with a ``#``-commented manifest block (command,
every flag that is set, the values derived from them, constants,
version, UTC timestamp, Python/numpy/machine) sufficient to reproduce
the numeric payload byte for byte.  Numbers are written with
17 significant digits and a locale-independent decimal point.

Exit codes: 0 success, 2 usage or validation error, 3 numerical
non-convergence, 4 I/O error.
"""

from __future__ import annotations

import argparse
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, cavityfield, feasibility, kernel, modesum
from .constants import C_LIGHT, EPS0, HBAR, dipole_coupling_scale
from .errors import CapabilityError, ConvergenceError, check_count, check_real

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

# required feasibility configuration key -> (flag that overrides it, unit,
# the name the feasibility dataclasses' input check reports it under)
_CONFIG_KEYS = {
    "molecule.polarizability": ("--polarizability", "C m^2/V", "polarizability"),
    "molecule.size": ("--size", "m", "size"),
    "molecule.velocity": ("--velocity", "m/s", "velocity"),
    "molecule.mass": ("--mass", "kg", "mass"),
    "laser.power": ("--power", "W", "power"),
    "laser.sigma_y": ("--sigma-y", "m", "sigma_y"),
    "laser.sigma_z": ("--sigma-z", "m", "sigma_z"),
    "laser.period": ("--period", "m", "grating_period"),
    "cavity.L": ("--plate-separation", "m", "plate separation L"),
    "cavity.k_max": ("--k-max", "1/m", "cutoff_wavenumber"),
}
# keys a configuration file may set besides the required ones
_OPTIONAL_KEYS = ("molecule.name", "run.transit_convention")
# kernel-sweep: value of each variable that is held fixed and not given
_SWEEP_DEFAULTS = {"alpha": 0.5, "kappa": 1e8, "tau": 0.0}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _manifest_lines(args, **derived) -> list[str]:
    """Manifest block: every flag that is set, then the values the
    command derived from them (``derived`` wins on a shared name)."""
    inputs = {k: v for k, v in vars(args).items()
              if k not in ("command", "func") and v is not None}
    inputs.update(derived)
    lines = [
        f"# vdl {__version__} manifest",
        f"# command = {args.command}",
        f"# timestamp_utc = {datetime.now(timezone.utc).isoformat()}",
    ]
    for key in sorted(inputs):
        value = inputs[key]
        lines.append(f"# input {key} = {_fmt(value) if isinstance(value, float) else value}")
    lines.append(
        f"# constants c = {_fmt(C_LIGHT)} ; hbar = {_fmt(HBAR)} ; eps0 = {_fmt(EPS0)}"
    )
    lines.append(f"# platform python = {platform.python_version()} ; "
                 f"numpy = {np.__version__} ; machine = {platform.machine()}")
    return lines


def _write_text(path: Path, lines: list[str]):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def parse_config(path: Path) -> dict[str, str]:
    """Flat ``key = value`` file of feasibility keys, each set once; '#' starts a comment."""
    values: dict[str, str] = {}
    seen: dict[str, int] = {}
    text = path.read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS and key not in _OPTIONAL_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown configuration key {key!r}")
        if key in seen:
            raise ValueError(f"{path}:{lineno}: {key!r} already set on line {seen[key]}")
        seen[key] = lineno
        values[key] = value
    return values


def _float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values:
        raise ValueError(f"{flag} expects a non-empty comma-separated list of numbers")
    return values


def _sweep_values(args) -> np.ndarray:
    check_count("--points", args.points, minimum=2)
    if not (args.start < args.stop):
        raise ValueError("--start must be below --stop")
    if args.scale == "log":
        check_real("--start", args.start, positive=True)
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
    if getattr(args, args.sweep) is not None:
        raise ValueError(f"--{args.sweep} is the swept variable; "
                         "its values come from --start, --stop and --points")
    values = _sweep_values(args)
    fixed = {k: default if getattr(args, k) is None else getattr(args, k)
             for k, default in _SWEEP_DEFAULTS.items() if k != args.sweep}
    points = [{**fixed, args.sweep: float(v)} for v in values]
    lines = _manifest_lines(args, **fixed) + _curve_lines(
        [(p["alpha"], p["kappa"], p["tau"]) for p in points], args.tail_bound)
    _write_text(Path(args.out), lines)
    print(f"wrote {args.out} ({len(points)} rows)")
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    check_count("--m-max", args.m_max)
    check_real("--tolerance", args.tolerance, positive=True)
    kappas = _float_list(args.kappa_grid, "--kappa-grid")
    taus = _float_list(args.tau_grid, "--tau-grid")
    alpha = args.alpha
    rel_tol = min(1e-9, args.tolerance / 100.0)
    rows = []
    worst = 0.0
    failed = False
    for kappa in kappas:
        for tau in taus:
            for m in range(1, args.m_max + 1):
                params = kernel.DimensionlessParams(alpha, kappa, tau)
                closed = kernel.kernel_term(m, params)
                try:
                    quad = 2.0 * alpha * alpha / np.pi * modesum.radial_integral_m(
                        m, kappa, tau, rel_tol=rel_tol)
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
    if all(status.startswith("capability:") for *_, status in rows):
        raise ValueError(
            "no row was compared: every (m, kappa, tau) exceeds the oscillatory "
            f"quadrature budget kappa*max(m, tau) <= {modesum.OSCILLATION_BUDGET:.0e}")
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
        _write_text(Path(args.out), _manifest_lines(args) + table)
    return EXIT_NUMERICAL if failed else EXIT_OK


def _source(key: str, args) -> str:
    """Where a configuration key's value came from: its flag or the file."""
    flag = _CONFIG_KEYS[key][0]
    if getattr(args, key) is not None:
        return f"{flag} (configuration key {key})"
    return f"{args.config}: configuration key {key} (or {flag})"


def _load_feasibility_inputs(args):
    raw: dict[str, str] = {}
    if args.config:
        raw.update(parse_config(Path(args.config)))
    # the override flags store under their configuration key
    for key in (*_CONFIG_KEYS, "run.transit_convention"):
        if getattr(args, key) is not None:
            raw[key] = str(getattr(args, key))
    missing = [k for k in _CONFIG_KEYS if k not in raw]
    if missing:
        raise ValueError("missing required configuration keys: " + "; ".join(
            f"{k} [{_CONFIG_KEYS[k][1]}] or {_CONFIG_KEYS[k][0]}" for k in missing))
    def num(key):
        try:
            return float(raw[key])
        except ValueError:
            raise ValueError(f"{_source(key, args)} is not a number: {raw[key]!r}")
    values = {key: num(key) for key in _CONFIG_KEYS}
    try:
        molecule = feasibility.MoleculeSpec(
            name=raw.get("molecule.name", args.config or "molecule"),
            polarizability=values["molecule.polarizability"],
            size=values["molecule.size"],
            mass=values["molecule.mass"],
            velocity=values["molecule.velocity"],
        )
        laser = feasibility.LaserConfig(
            power=values["laser.power"],
            sigma_y=values["laser.sigma_y"],
            sigma_z=values["laser.sigma_z"],
            grating_period=values["laser.period"],
        )
        cavity = feasibility.CavityConfig(
            plate_separation=values["cavity.L"],
            cutoff_wavenumber=values["cavity.k_max"],
        )
    except ValueError as exc:
        # the dataclass checks name their field: name the key, flag and file
        key = next((k for k, (_, _, name) in _CONFIG_KEYS.items()
                    if str(exc).startswith(name + " ")), None)
        if key is None:
            raise
        raise ValueError(f"{_source(key, args)}: {exc}") from None
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
        lines = _manifest_lines(args, **raw)
        lines.append("key,value")
        for name, value in fields.items():
            lines.append(f"{name},{_fmt(value)}")
        for name, ok in report.verdicts.items():
            lines.append(f"verdict.{name},{'pass' if ok else 'fail'}")
        _write_text(Path(args.out), lines)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_figure2(args) -> int:
    check_count("--points", args.points, minimum=2)
    alphas = _float_list(args.alphas, "--alphas")
    taus = np.linspace(0.0, args.tau_max, args.points)
    # build every curve first: a bad alpha must leave no file behind
    curves = [(alpha, _manifest_lines(args, alpha=alpha) + _curve_lines(
        [(alpha, args.kappa, float(tau)) for tau in taus], args.tail_bound))
        for alpha in alphas]
    for alpha, lines in curves:
        path = Path(args.out_dir) / f"figure2_alpha{alpha:g}.csv"
        _write_text(path, lines)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_modes_demo(args) -> int:
    if args.kappa > 100.0:
        raise ValueError("modes-demo is a demonstration tool: kappa must be <= 100")
    grids = [check_count("--grids", g, minimum=2) for g in _float_list(args.grids, "--grids")]
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
        reference = float(np.exp(-modesum.exponent_general_n(
            kernel.DimensionlessParams(alpha, args.kappa, args.tau))))
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
    lines = _manifest_lines(args, reference=label)
    lines.append("grid_size,overlap_grid,overlap_reference,rel_dev")
    for g, ov, ref, dev in rows:
        lines.append(f"{g},{_fmt(ov)},{_fmt(ref)},{_fmt(dev)}")
    _write_text(Path(args.out), lines)
    print("\n".join(lines[-len(rows):]))
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------- parser


def _add_out(sub: argparse.ArgumentParser, required: bool = False):
    sub.add_argument("--out", required=required, help="output file path")


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
    _add_out(sweep, required=True)
    _add_tail_bound(sweep)
    for name, default in _SWEEP_DEFAULTS.items():
        sweep.add_argument(f"--{name}", type=float,
                           help=f"fixed value when not swept (default {default:g})")
    sweep.add_argument("--sweep", choices=("tau", "alpha", "kappa"), default="tau")
    sweep.add_argument("--start", type=float, required=True)
    sweep.add_argument("--stop", type=float, required=True)
    sweep.add_argument("--points", type=int, default=1001)
    sweep.add_argument("--scale", choices=("linear", "log"), default="linear")
    sweep.set_defaults(func=cmd_kernel_sweep)

    oracle = subs.add_parser("oracle-check", allow_abbrev=False,
                             help="closed form vs quadrature identity table")
    _add_out(oracle)
    oracle.add_argument("--m-max", type=int, default=6)
    oracle.add_argument("--kappa-grid", default="50,200,1000")
    oracle.add_argument("--tau-grid", default="0.3,0.9,1.7,2.5")
    oracle.add_argument("--alpha", type=float, default=0.3)
    oracle.add_argument("--tolerance", type=float, default=1e-6)
    oracle.set_defaults(func=cmd_oracle_check)

    feas = subs.add_parser("feasibility", allow_abbrev=False,
                           help="experimental feasibility report")
    _add_out(feas)
    feas.add_argument("--config", default=None, help="key = value configuration file")
    for key, (flag, unit, _) in _CONFIG_KEYS.items():
        feas.add_argument(flag, dest=key, type=float, help=f"overrides {key} [{unit}]")
    feas.add_argument("--transit-convention", dest="run.transit_convention",
                      choices=feasibility.TRANSIT_CONVENTIONS)
    feas.set_defaults(func=cmd_feasibility)

    fig2 = subs.add_parser("figure2", allow_abbrev=False,
                           help="kernel vs tau curves at kappa = 1e8")
    _add_tail_bound(fig2)
    fig2.add_argument("--out-dir", default="figure2")
    fig2.add_argument("--alphas", default="0.1,0.3,0.5",
                      help="comma list; the published curves show this range")
    fig2.add_argument("--points", type=int, default=1001)
    fig2.add_argument("--kappa", type=float, default=1e8)
    fig2.add_argument("--tau-max", type=float, default=5.0)
    fig2.set_defaults(func=cmd_figure2)

    demo = subs.add_parser("modes-demo", allow_abbrev=False,
                           help="grid-simulator convergence study")
    _add_out(demo, required=True)
    demo.add_argument("--kappa", type=float, default=50.0)
    demo.add_argument("--tau", type=float, default=0.4)
    demo.add_argument("--dipole", type=float, default=1e-22)
    demo.add_argument("--plate-separation", type=float, default=1e-3)
    demo.add_argument("--grids", default="50,100,200,400")
    demo.add_argument("--plates", action="store_true",
                      help="antisymmetric plates demo instead of the centered one")
    demo.set_defaults(func=cmd_modes_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
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
