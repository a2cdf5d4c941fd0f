"""Benchmark of the wavetriple command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one real CLI command run in a fresh child interpreter,
one at a time (a closed loop with one client), with the BLAS pinned to one
thread.  ``--seed`` picks the model's coefficient constants; the program
sees only the generated config file.  Every operation is checked from its
output files and stdout, independently of the program's own reports.

With ``--trace 0`` a run alternates a set-up child and a command child
until ``--seconds`` are used, and reports the end-to-end metrics as medians.
With ``--trace 1`` it alternates an untraced and a traced command child and
reports per-layer metrics from the traced one.  The last stdout line is the
result object; the line before it is the full record (config text,
environment, samples with quartiles, certified numbers, failures).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
WORK = BENCH / ".work"

BLAS_THREADS = "1"
# A run, with every child it starts, must finish well inside 180 s.
HARD_LIMIT_S = 170.0
# Top-level spans must cover the traced main() but for this share or, at
# tiny sizes where argument parsing and file writes dominate, this time.
MAX_UNCOVERED = 0.05
MAX_UNCOVERED_S = 0.05
RESIDUAL_TOL = 1e-8
DT = 0.01
DEFECT_RTOL = 1e-10

COMMANDS = {"transient-2d": "simulate", "spectrum-1d": "spectrum", "fields-2d": "helmholtz"}

SIZES = {
    "transient-2d": {"nx": 24, "t_end": 6},
    "spectrum-1d": {"n": 384},
    "fields-2d": {"nx": 64},
}
TINY_SIZES = {
    "transient-2d": {"nx": 4, "t_end": 0.1},
    "spectrum-1d": {"n": 16},
    "fields-2d": {"nx": 6},
}

# Seed 0 gives these constants; other seeds draw each from its range.  All
# ranges keep modulus, density and boundary coefficients positive, and no
# workload has reaction or interior damping, so every model is anchored by
# its fixed side and provably dissipative.  The 1-D damper stays well above
# the matched impedance sqrt(modulus * density) <= 1.6 at the damped end.
DEFAULTS_2D = {"mod_a": 1.0, "mod_b": 0.5, "den_c": 0.25, "k1_d": 1.0, "k2_e": 1.0}
RANGES_2D = {
    "mod_a": (0.8, 1.2),
    "mod_b": (0.25, 0.75),
    "den_c": (0.1, 0.4),
    "k1_d": (0.5, 1.5),
    "k2_e": (0.8, 1.5),
}
DEFAULTS_1D = {"mod_a": 1.0, "mod_b": 0.5, "den_c": 0.25, "k2": 3.0}
RANGES_1D = {"mod_a": (0.8, 1.2), "mod_b": (0.25, 0.75), "den_c": (0.1, 0.4), "k2": (2.5, 4.0)}

# Certified numbers of seed 0 at the sizes above, recorded from the program
# as [value, absolute tolerance].  Counts must match exactly; gap and
# abscissa get the eigensolver's residual bound, the worst residual 1e-9,
# and energies and norms a relative 1e-6.
REFERENCES = {
    "transient-2d": {
        "steps": [600, 0],
        "final_energy": [1.891523842643559e-05, 1.9e-11],
        "final_xnorm": [0.004378373742449342, 4.4e-09],
    },
    "spectrum-1d": {
        "state_dim": [768, 0],
        "abscissa": [-0.000331478498932114, 1e-08],
        "gap": [0.000331478498932114, 1e-08],
        "max_residual": [1.5265413631258662e-11, 1e-09],
    },
    "fields-2d": {
        "field_norm_sq": [0.7367684919704601, 7.4e-07],
        "gradient_norm_sq": [0.06458929320211805, 6.5e-08],
        "divfree_norm_sq": [0.6721791987683423, 6.7e-07],
    },
}

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]
PER_LAYER = [
    ("config.parse_s", "s"),
    ("mesh.build_s", "s"),
    ("coefficients.sample_s", "s"),
    ("coefficients.validate_s", "s"),
    ("assembly.pencil_s", "s"),
    ("assembly.pencil_bytes", "bytes"),
    ("assembly.gram_nnz", "count"),
    ("linalg.cholesky_calls", "count"),
    ("linalg.cholesky_s", "s"),
    ("linalg.lu_calls", "count"),
    ("linalg.lu_factor_s", "s"),
    ("linalg.reduce_s", "s"),
    ("linalg.eig_s", "s"),
    ("semigroup.stepper_setup_s", "s"),
    ("semigroup.steps", "count"),
    ("semigroup.step_ms", "ms"),
    ("semigroup.record_ms", "ms"),
    ("semigroup.trajectory_bytes", "bytes"),
    ("spectral.spectrum_s", "s"),
    ("helmholtz.decompose_s", "s"),
    ("helmholtz.norms_s", "s"),
    ("cli.import_s", "s"),
    ("cli.csv_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
]


# ---------------------------------------------------------------- inputs


def constants(seed: int, defaults: dict, ranges: dict) -> dict:
    if seed == 0:
        return dict(defaults)
    rng = random.Random(seed)
    return {key: round(rng.uniform(lo, hi), 3) for key, (lo, hi) in ranges.items()}


def make_config(workload: str, seed: int, sizes: dict) -> str:
    """Config text of one workload; the same seed gives the same text."""
    if workload == "spectrum-1d":
        c = constants(seed, DEFAULTS_1D, RANGES_1D)
        return (
            f"[domain]\ndim = 1\nn = {sizes['n']}\nleft = fixed\nright = damped\n\n"
            f"[coefficients]\nmodulus = {c['mod_a']:g} + {c['mod_b']:g}*x\n"
            f"density = 1 + {c['den_c']:g}*x*x\n\n"
            f"[boundary]\nk2 = {c['k2']:g}\n"
        )
    c = constants(seed, DEFAULTS_2D, RANGES_2D)
    text = (
        f"[domain]\ndim = 2\nnx = {sizes['nx']}\nny = {sizes['nx']}\n"
        "left = fixed\nright = elastic_damped\nbottom = elastic\ntop = damped\n\n"
        f"[coefficients]\nmodulus = {c['mod_a']:g} + {c['mod_b']:g}*x\n"
        f"density = 1 + {c['den_c']:g}*y\n\n"
        f"[boundary]\nk1 = 1 + {c['k1_d']:g}*x*y\nk2 = {c['k2_e']:g} + x\n"
    )
    if workload == "transient-2d":
        text += f"\n[simulation]\nt_end = {sizes['t_end']:g}\ndt = {DT:g}\nw0 = x*y*(1 - y)\nw1 = 0\n"
    else:
        # Nonzero divergence, so the gradient part is not trivially zero.
        text += "\n[helmholtz]\nfx = x*y\nfy = x*x + y\n"
    return text


def expected_state_dim(workload: str, sizes: dict) -> int | None:
    """Twice the active nodes (every node off the fixed side); None when
    the command assembles no pencil."""
    if workload == "spectrum-1d":
        return 2 * sizes["n"]
    if workload == "transient-2d":
        return 2 * sizes["nx"] * (sizes["nx"] + 1)
    return None


# ---------------------------------------------------------------- checks


def stdout_values(text: str) -> dict[str, str]:
    values = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2:
            values[parts[0]] = parts[1]
    return values


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def check_spectrum(out: Path, printed: dict, sizes: dict) -> tuple[dict, list[str]]:
    rows = read_csv(out / "eigenvalues.csv")
    re = [float(r["re"]) for r in rows]
    certified = {
        "state_dim": len(rows),
        "abscissa": max(re),
        "gap": min(abs(v) for v in re),
        "max_residual": max(float(r["residual"]) for r in rows),
    }
    problems = []
    want = expected_state_dim("spectrum-1d", sizes)
    if len(rows) != want:
        problems.append(f"eigenvalues.csv has {len(rows)} rows, expected {want}")
    if not certified["max_residual"] <= RESIDUAL_TOL:
        problems.append(f"residual {certified['max_residual']:.3e} exceeds {RESIDUAL_TOL:.0e}")
    if not certified["abscissa"] <= RESIDUAL_TOL:
        problems.append(f"abscissa {certified['abscissa']:.3e} > 0 for a dissipative model")
    if int(printed.get("eigenvalues", -1)) != len(rows):
        problems.append("printed eigenvalue count differs from eigenvalues.csv")
    if float(printed.get("abscissa", "nan")) != certified["abscissa"]:
        problems.append("printed abscissa differs from eigenvalues.csv")
    return certified, problems


def check_simulate(out: Path, printed: dict, sizes: dict) -> tuple[dict, list[str]]:
    rows = read_csv(out / "energy.csv")
    xnorm = [float(r["xnorm"]) for r in rows]
    steps = int(round(sizes["t_end"] / DT))
    certified = {
        "steps": len(rows) - 1,
        "final_energy": float(rows[-1]["energy"]),
        "final_xnorm": xnorm[-1],
    }
    problems = []
    if len(rows) != steps + 1:
        problems.append(f"energy.csv has {len(rows)} rows, expected {steps + 1}")
    grew = [k for k in range(1, len(xnorm)) if xnorm[k] > xnorm[k - 1]]
    if grew:
        problems.append(f"xnorm increased at step {grew[0]}")
    if not xnorm[0] > 0:
        problems.append("initial state has zero norm")
    if float(printed.get("final_energy", "nan")) != certified["final_energy"]:
        problems.append("printed final_energy differs from energy.csv")
    return certified, problems


def check_helmholtz(out: Path, printed: dict, sizes: dict) -> tuple[dict, list[str]]:
    keys = (
        "field_norm_sq",
        "gradient_norm_sq",
        "divfree_norm_sq",
        "orthogonality_defect",
        "pythagoras_defect",
    )
    missing = [k for k in keys if k not in printed]
    if missing:
        return {}, [f"helmholtz printed no {', '.join(missing)}"]
    certified = {k: float(printed[k]) for k in keys}
    total = certified["field_norm_sq"]
    problems = []
    if not (total > 0 and certified["gradient_norm_sq"] > 0 and certified["divfree_norm_sq"] > 0):
        problems.append("a Helmholtz norm is not positive")
    for key in ("orthogonality_defect", "pythagoras_defect"):
        if not abs(certified[key]) <= DEFECT_RTOL * total:
            problems.append(f"{key} {certified[key]:.3e} exceeds {DEFECT_RTOL:.0e} * field_norm_sq")
    return certified, problems


CHECKS = {"transient-2d": check_simulate, "spectrum-1d": check_spectrum, "fields-2d": check_helmholtz}


def reference_problems(certified: dict, references: dict) -> list[str]:
    problems = []
    for key, (value, tol) in references.items():
        got = certified.get(key)
        if got is None or not abs(got - value) <= tol:
            problems.append(f"{key} {got!r} is not within {tol:g} of the reference {value!r}")
    return problems


# ---------------------------------------------------------------- children


def child_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    env["OMP_NUM_THREADS"] = BLAS_THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(mode: str, args: list[str], deadline: float) -> tuple[dict | None, str, list[str]]:
    """Run one child; returns (its record, its stdout, problems)."""
    out_json = WORK / f"{mode}.json"
    out_json.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), mode, str(out_json), *args],
            env=child_env(),
            cwd=WORK,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return None, "", [f"{mode} child did not finish in time"]
    problems = []
    if proc.returncode != 0:
        problems.append(f"{mode} child exited with {proc.returncode}: {proc.stderr.strip()[-300:]}")
    if "Traceback" in proc.stderr:
        problems.append(f"{mode} child printed a traceback")
    if not out_json.is_file():
        return None, proc.stdout, problems or [f"{mode} child wrote no record"]
    record = json.loads(out_json.read_text())
    if record["env"]["OPENBLAS_NUM_THREADS"] != BLAS_THREADS:
        problems.append(f"{mode} child did not see the pinned BLAS thread count")
    return record, proc.stdout, problems


def run_command(workload, sizes, references, mode, deadline) -> dict:
    """One CLI operation, untraced ('command') or traced ('trace')."""
    out = WORK / "out"
    shutil.rmtree(out, ignore_errors=True)
    argv = [COMMANDS[workload], "--config", str(WORK / "model.cfg"), "--out", str(out)]
    record, stdout, problems = run_child(mode, argv, deadline)
    op = {"kind": mode, "record": record, "problems": problems, "certified": {}}
    if record is None or problems:
        return op
    if not Path(record["module"]).is_relative_to(ROOT / "src"):
        problems.append(f"imported wavetriple from {record['module']}, not from this checkout")
    try:
        certified, found = CHECKS[workload](out, stdout_values(stdout), sizes)
    except (OSError, KeyError, ValueError) as exc:
        certified, found = {}, [f"unreadable output: {exc!r}"]
    op["certified"] = certified
    problems += found + reference_problems(certified, references)
    if mode == "trace":
        op["layers"] = layer_metrics(record)
        main_s = record["main_end"] - record["main_start"]
        uncovered = 1.0 - op["layers"]["trace.coverage"]
        if not (uncovered <= MAX_UNCOVERED or uncovered * main_s <= MAX_UNCOVERED_S):
            problems.append(f"top-level spans leave {uncovered:.1%} of main() uncovered")
    return op


def run_setup(workload, sizes, deadline) -> dict:
    want = expected_state_dim(workload, sizes)
    pencil = want is not None
    record, _, problems = run_child("setup", [str(WORK / "model.cfg"), str(int(pencil))], deadline)
    if pencil and record is not None and record["state_dim"] != want:
        problems.append(f"set-up built state dimension {record['state_dim']}, expected {want}")
    return {"kind": "setup", "record": record, "problems": problems}


# ---------------------------------------------------------------- spans


def layer_metrics(record: dict) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    A span is [name, start, end, parent index]; self time is its duration
    minus the durations of its direct children.
    """
    spans = record["spans"]
    dur = [end - start for _, start, end, _ in spans]
    child_time = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            child_time[parent] += dur[i]

    def total(*names):
        return sum(d for (n, *_), d in zip(spans, dur) if n in names)

    def self_time(name):
        return sum(d - c for (n, *_), d, c in zip(spans, dur, child_time) if n == name)

    def calls(name):
        return sum(1 for n, *_ in spans if n == name)

    def durations(name):
        return [d for (n, *_), d in zip(spans, dur) if n == name]

    steps = durations("semigroup.step")
    records = [e + n for e, n in zip(durations("semigroup.energy"), durations("semigroup.norm"))]
    main_s = record["main_end"] - record["main_start"]
    top = sum(d for (_, _, _, parent), d in zip(spans, dur) if parent is None)
    facts = record["facts"]
    return {
        "config.parse_s": total("config.parse"),
        "mesh.build_s": total("mesh.build", "mesh.validate"),
        "coefficients.sample_s": total("coefficients.sample"),
        "coefficients.validate_s": total("coefficients.validate"),
        "assembly.pencil_s": self_time("assembly.pencil"),
        "assembly.pencil_bytes": facts.get("pencil_bytes", 0),
        "assembly.gram_nnz": facts.get("gram_nnz", 0),
        "linalg.cholesky_calls": calls("linalg.cholesky"),
        "linalg.cholesky_s": total("linalg.cholesky"),
        "linalg.lu_calls": calls("linalg.lu_factor"),
        "linalg.lu_factor_s": total("linalg.lu_factor"),
        "linalg.reduce_s": self_time("linalg.reduce"),
        "linalg.eig_s": total("linalg.eig"),
        "semigroup.stepper_setup_s": self_time("semigroup.stepper_setup"),
        "semigroup.steps": len(steps),
        "semigroup.step_ms": 1e3 * statistics.median(steps) if steps else 0.0,
        "semigroup.record_ms": 1e3 * statistics.median(records) if records else 0.0,
        "semigroup.trajectory_bytes": facts.get("trajectory_bytes", 0),
        "spectral.spectrum_s": self_time("spectral.spectrum"),
        "helmholtz.decompose_s": self_time("helmholtz.decompose"),
        "helmholtz.norms_s": total("helmholtz.norms"),
        "cli.import_s": record["import_s"],
        "cli.csv_s": total("cli.csv"),
        "trace.coverage": top / main_s,
    }


# ---------------------------------------------------------------- record


def summary(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(
        len(path.read_text().splitlines()) for path in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
        "commit": git_commit(),
        "src_lines": src_lines,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes=None, references=None):
    """Run one benchmark run; returns (full record, result object)."""
    sizes = SIZES[workload] if sizes is None else sizes
    if references is None:
        references = REFERENCES[workload] if seed == 0 and sizes == SIZES[workload] else {}
    start = time.monotonic()
    hard_deadline = start + HARD_LIMIT_S
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        config_text = make_config(workload, seed, sizes)
        (WORK / "model.cfg").write_text(config_text)
        ops = []
        while True:
            round_start = time.monotonic()
            if trace:
                ops.append(run_command(workload, sizes, references, "command", hard_deadline))
                ops.append(run_command(workload, sizes, references, "trace", hard_deadline))
            else:
                ops.append(run_setup(workload, sizes, hard_deadline))
                ops.append(run_command(workload, sizes, references, "command", hard_deadline))
            now = time.monotonic()
            # Start another round only if one more fits in the measured time.
            if now + (now - round_start) > start + seconds or now > hard_deadline:
                break
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    failures = [p for op in ops for p in op["problems"]]
    failed = sum(1 for op in ops if op["problems"])
    records = {
        kind: [op["record"] for op in ops if op["kind"] == kind and op["record"]]
        for kind in ("setup", "command", "trace")
    }
    samples = {
        "wall_s": [r["wall_s"] for r in records["command"]],
        "cpu_s": [r["cpu_s"] for r in records["command"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in records["command"]],
    }
    if trace:
        samples["traced_wall_s"] = [r["wall_s"] for r in records["trace"]]
    else:
        samples["setup_s"] = [r["setup_s"] for r in records["setup"]]
    samples = {k: v for k, v in samples.items() if v}
    summaries = {k: summary(v) for k, v in samples.items()}

    metrics = {}
    if trace:
        traced = [op["layers"] for op in ops if "layers" in op]
        if traced and "wall_s" in summaries:
            layers = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
            layers["trace.overhead_s"] = (
                summaries["traced_wall_s"]["median"] - summaries["wall_s"]["median"]
            )
            metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    elif all(name in summaries for name, _ in END_TO_END):
        metrics = {
            name: {"value": summaries[name]["median"], "unit": unit} for name, unit in END_TO_END
        }

    certified = next((op["certified"] for op in reversed(ops) if op.get("certified")), {})
    full = {
        "workload": workload,
        "command": COMMANDS[workload],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "load": "closed loop, one client, one child process at a time",
        "config": config_text,
        "environment": environment(),
        "attempted": len(ops),
        "failed": failed,
        "error_rate": failed / len(ops),
        "failures": failures,
        "certified": certified,
        "references": references,
        "samples": samples,
        "summary": summaries,
    }
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    return full, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(COMMANDS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wavetriple" / "cli.py").is_file():
        print(f"error: no wavetriple sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    full, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(full))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
