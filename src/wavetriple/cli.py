"""Command line front end.

Every subcommand reads a model configuration file, UTF-8 with an optional
byte-order mark, and builds its model through _build, which refuses a
state above the limit of the layer the command runs before the mesh is
validated or sampled: MAX_PENCIL_STATE for validate, simulate and
poincare, spectral.MAX_DENSE_STATE for spectrum and each study size, none
for helmholtz.  Outputs that are tables go to CSV files under the output
directory, scalar results go to stdout.  All file output is
byte-deterministic for a given input and BLAS thread count (the spectrum
of the 1-D string at n = 1024 prints a rounding-level abscissa that
differs between one and two threads).  spectrum prints the certified
worst eigenpair energy-balance ratio that its report carries.  Every
failure, an unusable output path included, ends in error lines, exit 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import config as cfgmod
from . import helmholtz as helmmod
from . import semigroup, spectral
from .assembly import MAX_PENCIL_STATE, assemble_pencil, check_state_size
from .coefficients import validate_model
from .errors import ConfigError, WavetripleError
from .mesh import validate_mesh


def _load(path: str) -> cfgmod.ModelConfig:
    try:
        data = Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ConfigError([f"cannot read config {path!r}: {exc}"]) from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(
            [f"config {path!r} is not UTF-8: {exc.reason} at byte {exc.start}"]
        ) from None
    return cfgmod.parse_config(text.removeprefix("\ufeff"))


def _build(cfg: cfgmod.ModelConfig, limit: int | None = MAX_PENCIL_STATE, label="dense model"):
    """Checked mesh, coefficients and damping flag.

    A state above limit, the cap of the layer the command runs, is refused
    under label before the mesh is validated or sampled; None admits any.
    """
    mesh = cfgmod.build_mesh(cfg)
    if limit is not None:
        check_state_size(mesh, limit, label)
    validate_mesh(mesh)
    coeffs = cfgmod.build_coefficients(cfg, mesh)
    damping = validate_model(mesh, coeffs)
    return mesh, coeffs, damping


def _write(cfg: cfgmod.ModelConfig, args: argparse.Namespace, name: str, text: str) -> None:
    """Write text to name under --out, else under the config's output directory."""
    path = Path(args.out if args.out is not None else cfg.output_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"wrote {path}")


def _cmd_validate(cfg: cfgmod.ModelConfig, args: argparse.Namespace) -> int:
    mesh, coeffs, damping = _build(cfg)
    pencil = assemble_pencil(mesh, coeffs)
    print(
        f"model valid: dim {mesh.dim}, {mesh.num_nodes} nodes, "
        f"{pencil.num_active} active, {pencil.num_trace} trace, "
        f"damping {'present' if damping else 'absent'}"
    )
    return 0


def _cmd_spectrum(cfg: cfgmod.ModelConfig, args: argparse.Namespace) -> int:
    mesh, coeffs, _ = _build(cfg, spectral.MAX_DENSE_STATE, "spectrum")
    report = spectral.compute_spectrum(assemble_pencil(mesh, coeffs))
    _write(cfg, args, "eigenvalues.csv", spectral.eigenvalues_csv(report))
    print(f"eigenvalues {report.values.shape[0]}")
    print(f"abscissa {report.abscissa:.17g}")
    print(f"gap {report.gap:.17g}")
    print(f"near_axis {report.near_axis.size}")
    print(f"balance_worst_ratio {report.balance_worst_ratio:.17g}")
    return 0


def _cmd_simulate(cfg: cfgmod.ModelConfig, args: argparse.Namespace) -> int:
    missing = [
        key
        for key, val in (("t_end", cfg.t_end), ("dt", cfg.dt), ("w0", cfg.w0), ("w1", cfg.w1))
        if val is None
    ]
    if missing:
        raise ConfigError(
            [f"[simulation] is incomplete for 'simulate': missing {', '.join(missing)}"]
        )
    mesh, coeffs, _ = _build(cfg)
    pencil = assemble_pencil(mesh, coeffs)
    x0 = semigroup.initial_state(pencil, cfg.w0, cfg.w1)
    steps = cfg.t_end / cfg.dt  # inf when the quotient overflows
    semigroup.check_run_length(steps)
    nsteps = int(round(steps))
    if abs(nsteps * cfg.dt - cfg.t_end) > 1e-9 * max(cfg.t_end, 1.0):
        raise ConfigError([f"t_end = {cfg.t_end} is not a whole number of dt = {cfg.dt} steps"])
    traj = semigroup.simulate(pencil, x0, cfg.dt, nsteps)
    _write(cfg, args, "energy.csv", semigroup.energy_csv(traj))
    print(f"steps {nsteps}")
    print(f"final_energy {traj.energy[-1]:.17g}")
    print(f"final_xnorm {traj.xnorm[-1]:.17g}")
    print(f"balance_worst_ratio {traj.balance_worst_ratio:.17g}")
    return 0


def _cmd_poincare(cfg: cfgmod.ModelConfig, args: argparse.Namespace) -> int:
    mesh, coeffs, _ = _build(cfg)
    constant = spectral.poincare_constant(mesh, coeffs)
    print(f"poincare_constant {constant:.17g}")
    return 0


def _cmd_helmholtz(cfg: cfgmod.ModelConfig, args: argparse.Namespace) -> int:
    mesh, coeffs, _ = _build(cfg, limit=None)
    field = cfgmod.helmholtz_field(cfg, mesh)
    geometry = helmmod.CellGeometry(mesh, coeffs)
    grad_part, divfree_part = helmmod.decompose(geometry, field)
    total = helmmod.weighted_inner(geometry, field, field)
    grad_sq = helmmod.weighted_inner(geometry, grad_part, grad_part)
    div_sq = helmmod.weighted_inner(geometry, divfree_part, divfree_part)
    cross = helmmod.weighted_inner(geometry, grad_part, divfree_part)
    print(f"field_norm_sq {total:.17g}")
    print(f"gradient_norm_sq {grad_sq:.17g}")
    print(f"divfree_norm_sq {div_sq:.17g}")
    print(f"orthogonality_defect {cross:.17g}")
    print(f"pythagoras_defect {total - grad_sq - div_sq:.17g}")
    return 0


def _cmd_study(cfg: cfgmod.ModelConfig, args: argparse.Namespace) -> int:
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError([f"--sizes must be a comma list of integers, got {args.sizes!r}"])
    if not sizes:
        raise ConfigError(["--sizes is empty"])

    # Every size is built and checked before any assembly or eigensolve starts.
    models = {
        size: _build(cfgmod.resized(cfg, size), spectral.MAX_DENSE_STATE, f"size {size}")[:2]
        for size in sizes
    }
    rows = spectral.refinement_study(lambda size: assemble_pencil(*models[size]), sizes)
    _write(cfg, args, "study.csv", spectral.study_csv(rows))
    for h, n, abscissa, gap in rows:
        print(f"h {h:.17g} N {n} abscissa {abscissa:.17g} gap {gap:.17g}")
    return 0


_COMMANDS = {
    "validate": (_cmd_validate, "check a model configuration end to end"),
    "spectrum": (_cmd_spectrum, "write the closed-loop spectrum to eigenvalues.csv"),
    "simulate": (_cmd_simulate, "run the midpoint scheme and write energy.csv"),
    "poincare": (_cmd_poincare, "print the discrete trace-inequality constant"),
    "helmholtz": (_cmd_helmholtz, "split the configured field and print the norms"),
    "study": (_cmd_study, "tabulate abscissa and gap over mesh sizes into study.csv"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavetriple",
        description="Assemble, evolve and analyze boundary-damped wave models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to a model configuration")
        cmd.add_argument("--out", default=None, help="output directory (default from config)")
        if name == "study":
            cmd.add_argument("--sizes", default="64,128,256", help="comma list of mesh sizes")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](_load(args.config), args)
    except ConfigError as exc:
        for item in exc.diagnostics:
            print(f"error: {item}", file=sys.stderr)
        return 1
    except WavetripleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
