"""One benchmark operation, run in a fresh interpreter.

    python3 child.py command OUT.json CLI-ARGS...
    python3 child.py setup   OUT.json CONFIG {0|1}
    python3 child.py trace   OUT.json CLI-ARGS...

``command`` times one untraced ``wavetriple.cli.main`` call, from before
the import to the return, and records the process's CPU time and peak RSS.
``setup`` times the public calls the CLI makes to turn config text into a
model (plus ``assemble_pencil`` when the last argument is 1).  ``trace``
wraps the public functions of every layer at the module attribute where
the caller looks them up, runs the command once, and writes the spans.

Every mode writes one JSON object to OUT.json and exits with the command's
exit code, so the parent can tell a clean run from a failed one.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time


def _process_usage() -> dict:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }


def _environment() -> dict:
    return {
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def run_command(argv: list[str]) -> dict:
    start = time.perf_counter()
    import wavetriple.cli

    code = wavetriple.cli.main(argv)
    wall = time.perf_counter() - start
    return {
        "exit": code,
        "wall_s": wall,
        **_process_usage(),
        "module": wavetriple.cli.__file__,
    }


def run_setup(config_path: str, with_pencil: bool) -> dict:
    import wavetriple.cli  # noqa: F401  loads every module the CLI loads
    from wavetriple import assembly, coefficients, config, mesh

    with open(config_path) as handle:
        text = handle.read()
    start = time.perf_counter()
    cfg = config.parse_config(text)
    model_mesh = config.build_mesh(cfg)
    mesh.validate_mesh(model_mesh)
    coeffs = config.build_coefficients(cfg, model_mesh)
    coefficients.validate_model(model_mesh, coeffs)
    state_dim = None
    if with_pencil:
        state_dim = assembly.assemble_pencil(model_mesh, coeffs).state_dim
    setup = time.perf_counter() - start
    return {"exit": 0, "setup_s": setup, "state_dim": state_dim}


class SpanRecorder:
    """In-memory spans [name, start, end, parent index] plus derived facts."""

    def __init__(self):
        self.spans: list[list] = []
        self.facts: dict[str, int] = {}
        self._open: list[int] = []

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace owner.attr by a wrapper that records one span per call.

        ``after(facts, result)`` runs once the span has closed, so what it
        computes is not charged to the wrapped function.
        """
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = inner(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if after is not None:
                after(self.facts, result)
            return result

        setattr(owner, attr, wrapper)


def _pencil_facts(facts: dict, pencil) -> None:
    import numpy as np

    matrices = (
        pencil.mass,
        pencil.stiffness,
        pencil.boundary_spring,
        pencil.boundary_damper,
        pencil.displacement_gram,
        pencil.gram,
        pencil.dynamics,
    )
    facts["pencil_bytes"] = sum(int(mat.nbytes) for mat in matrices)
    facts["gram_nnz"] = int(np.count_nonzero(pencil.gram))


def _trajectory_facts(facts: dict, traj) -> None:
    facts["trajectory_bytes"] = int(traj.states.nbytes)


def install_spans(recorder: SpanRecorder) -> None:
    """Wrap each layer's public calls where their callers look them up."""
    from wavetriple import cli, config, helmholtz, linalg, semigroup, spectral

    wrap = recorder.wrap
    wrap(config, "parse_config", "config.parse")
    wrap(config, "build_mesh", "mesh.build")
    wrap(cli, "validate_mesh", "mesh.validate")
    wrap(config, "build_coefficients", "coefficients.sample")
    wrap(cli, "validate_model", "coefficients.validate")
    wrap(cli, "assemble_pencil", "assembly.pencil", after=_pencil_facts)
    # assembly and generalized_to_standard both call linalg.cholesky through
    # the linalg module, so one wrapper sees every call.
    wrap(linalg, "cholesky", "linalg.cholesky")
    wrap(linalg.LuFactorization, "__init__", "linalg.lu_factor")
    wrap(linalg, "generalized_to_standard", "linalg.reduce")
    wrap(linalg, "eig_nonsymmetric", "linalg.eig")
    wrap(spectral, "compute_spectrum", "spectral.spectrum")
    wrap(spectral, "eigenvalues_csv", "cli.csv")
    wrap(semigroup, "simulate", "semigroup.simulate", after=_trajectory_facts)
    wrap(semigroup.CayleyStepper, "__init__", "semigroup.stepper_setup")
    wrap(semigroup.CayleyStepper, "step", "semigroup.step")
    wrap(semigroup, "physical_energy", "semigroup.energy")
    wrap(semigroup, "state_norm", "semigroup.norm")
    wrap(semigroup, "energy_csv", "cli.csv")
    wrap(helmholtz, "decompose", "helmholtz.decompose")
    wrap(helmholtz, "weighted_inner", "helmholtz.norms")


def run_trace(argv: list[str]) -> dict:
    start = time.perf_counter()
    import wavetriple.cli

    import_s = time.perf_counter() - start
    recorder = SpanRecorder()
    install_spans(recorder)
    main_start = time.perf_counter()
    code = wavetriple.cli.main(argv)
    end = time.perf_counter()
    return {
        "exit": code,
        "wall_s": end - start,
        "import_s": import_s,
        "main_start": main_start,
        "main_end": end,
        "spans": recorder.spans,
        "facts": recorder.facts,
        "module": wavetriple.cli.__file__,
    }


def main(argv: list[str]) -> int:
    mode, out_path, rest = argv[0], argv[1], argv[2:]
    if mode == "command":
        record = run_command(rest)
    elif mode == "setup":
        record = run_setup(rest[0], rest[1] == "1")
    elif mode == "trace":
        record = run_trace(rest)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    record["env"] = _environment()
    with open(out_path, "w") as handle:
        json.dump(record, handle)
    return int(record["exit"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
