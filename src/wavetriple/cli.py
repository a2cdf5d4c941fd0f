"""Command line front end.

Every subcommand reads a model configuration file; outputs that are
tables go to CSV files under the output directory, scalar results go to
stdout.  All file output is byte-deterministic for a given input and
BLAS thread count (the spectrum of the 1-D string at n = 1024 prints a
rounding-level abscissa that differs between one and two threads).
spectrum prints the certified worst eigenpair energy-balance ratio that
its report carries.  Every failure, an unusable output path included,
ends in error lines, exit 1.
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
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError([f"cannot read config {path!r}: {exc}"]) from exc
    return cfgmod.parse_config(text)


def _build(cfg: cfgmod.ModelConfig, pencil: bool = True):
    """Checked mesh, coefficients and damping flag; with pencil, a model too
    large to assemble is refused before the mesh is validated or sampled."""
    mesh = cfgmod.build_mesh(cfg)
    if pencil:
        check_state_size(mesh, MAX_PENCIL_STATE, "dense model")
    validate_mesh(mesh)
    coeffs = cfgmod.build_coefficients(cfg, mesh)
    damping = validate_model(mesh, coeffs)
    return mesh, coeffs, damping


def _out_dir(cfg: cfgmod.ModelConfig, args: argparse.Namespace) -> Path:
    out = Path(args.out if args.out is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


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
    mesh, coeffs, _ = _build(cfg)
    report = spectral.compute_spectrum(assemble_pencil(mesh, coeffs))
    out = _out_dir(cfg, args)
    path = out / "eigenvalues.csv"
    path.write_text(spectral.eigenvalues_csv(report))
    print(f"wrote {path}")
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
    out = _out_dir(cfg, args)
    path = out / "energy.csv"
    path.write_text(semigroup.energy_csv(traj))
    print(f"wrote {path}")
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
    mesh, coeffs, _ = _build(cfg, pencil=False)
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

    # Every size is checked before any assembly or eigensolve starts.
    meshes = {}
    for size in sizes:
        mesh = cfgmod.build_mesh(cfgmod.resized(cfg, size))
        check_state_size(mesh, spectral.MAX_DENSE_STATE, f"size {size}")
        meshes[size] = mesh

    def build(size: int):
        mesh = meshes[size]
        validate_mesh(mesh)
        coeffs = cfgmod.build_coefficients(cfgmod.resized(cfg, size), mesh)
        validate_model(mesh, coeffs)
        return assemble_pencil(mesh, coeffs)

    rows = spectral.refinement_study(build, sizes)
    out = _out_dir(cfg, args)
    path = out / "study.csv"
    path.write_text(spectral.study_csv(rows))
    print(f"wrote {path}")
    for h, n, abscissa, gap in rows:
        print(f"h {h:.17g} N {n} abscissa {abscissa:.17g} gap {gap:.17g}")
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "spectrum": _cmd_spectrum,
    "simulate": _cmd_simulate,
    "poincare": _cmd_poincare,
    "helmholtz": _cmd_helmholtz,
    "study": _cmd_study,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavetriple",
        description="Assemble, evolve and analyze boundary-damped wave models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("validate", "check a model configuration end to end"),
        ("spectrum", "write the closed-loop spectrum to eigenvalues.csv"),
        ("simulate", "run the midpoint scheme and write energy.csv"),
        ("poincare", "print the discrete trace-inequality constant"),
        ("helmholtz", "split the configured field and print the norms"),
        ("study", "tabulate abscissa and gap over mesh sizes into study.csv"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to a model configuration")
        cmd.add_argument("--out", default=None, help="output directory (default from config)")
        if name == "study":
            cmd.add_argument(
                "--sizes", default="64,128,256", help="comma list of mesh sizes"
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](_load(args.config), args)
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
