"""Model configuration: text format, expression grammar, model building.

The format is sectioned key = value text.  Values that describe fields are
arithmetic expressions in the coordinates (x, and y on 2-D domains) with
decimal numbers, + - * /, parentheses and unary plus and minus.  Python's
ast parser reads an expression, one pass over the tree admits only that
grammar, and a loop evaluates it in float64 without eval.  Parsing
collects every problem with its line number before raising, so a bad file
reports all of its defects at once.
"""

from __future__ import annotations

import ast
import operator
import re
import string
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import CoefficientSet, sample_coefficients
from .errors import ConfigError
from .mesh import (
    SIDES,
    BoundaryLabel,
    Mesh,
    PartitionSpec,
    Segment,
    interval_mesh,
    rectangle_mesh,
)

_LABEL_NAMES = {lab.value for lab in BoundaryLabel}


# ---------------------------------------------------------------------------
# Coordinate expressions

# A number is digits with an optional point and exponent.  Python's other
# literals (0x1, 1_0, 1j, True) fail this pattern, and Python's parser
# refuses integers with leading zeros (01).
_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_ALPHABET = frozenset(string.ascii_letters + string.digits + "_.+-*/() ")
_BINARY = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
}


def _emit(node: ast.expr, text: str, names: tuple[str, ...], program: list) -> None:
    """Append node to program in postfix order; ValueError outside the grammar."""
    segment = text[node.col_offset : node.end_col_offset]
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        _emit(node.left, text, names, program)
        _emit(node.right, text, names, program)
        program.append(_BINARY[type(node.op)])
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        _emit(node.operand, text, names, program)
        if isinstance(node.op, ast.USub):
            program.append(operator.neg)
    elif isinstance(node, ast.Name):
        if node.id not in names:
            raise ValueError(f"unknown name {node.id!r}; allowed: {', '.join(names)}")
        program.append(node.id)
    elif isinstance(node, ast.Constant) and _NUMBER_RE.fullmatch(segment):
        program.append(np.float64(segment))
    else:
        raise ValueError(f"unsupported syntax {segment!r}")


def _compile(source: str, names: tuple[str, ...]) -> list:
    """Postfix program of names, float64 literals and operators; ValueError if malformed.

    It is run by a loop, not by recursion, so a source that compiles evaluates.
    """
    # Any whitespace separates tokens and any decimal digit counts, as
    # float() reads numbers; Python's parser takes only ASCII for both.
    text = " ".join(source.split())
    text = "".join(str(int(c)) if c.isdecimal() else c for c in text)
    bad = next((c for c in text if c not in _ALPHABET), None)
    if bad is not None:
        raise ValueError(f"unexpected character {bad!r}")
    program: list = []
    try:
        with warnings.catch_warnings():
            # The parser only warns about some malformed input, such as 1if.
            warnings.simplefilter("error")
            _emit(ast.parse(text, mode="eval").body, text, names, program)
    except SyntaxError as exc:
        raise ValueError(exc.msg) from None
    except (RecursionError, MemoryError):
        # Python's parser reports a nesting too deep for its stack as either.
        raise ValueError("expression is nested too deeply") from None
    return program


@dataclass(frozen=True)
class Expression:
    """Compiled coordinate expression; equality is by source text."""

    source: str
    dim: int

    def __post_init__(self):
        names = ("x",) if self.dim == 1 else ("x", "y")
        object.__setattr__(self, "_program", _compile(self.source, names))

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        env = {"x": pts[..., 0]}
        if self.dim == 2:
            env["y"] = pts[..., 1]
        # Division by zero and the like are expected here: they give
        # non-finite samples, which the consumers reject with a diagnostic.
        stack: list = []
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for item in self._program:
                if isinstance(item, str):
                    item = env[item]
                elif item is operator.neg:
                    item = -stack.pop()
                elif callable(item):
                    right = stack.pop()
                    item = item(stack.pop(), right)
                stack.append(item)
        return np.broadcast_to(np.asarray(stack.pop(), dtype=float), pts.shape[:-1]).copy()


def compile_expression(source: str, dim: int) -> Expression:
    """Parse an expression; raises ValueError on a malformed source."""
    return Expression(source.strip(), dim)


# ---------------------------------------------------------------------------
# Configuration data

_SECTION_KEYS = {
    "domain": {"dim", "n", "nx", "ny", "left", "right", "bottom", "top"},
    "coefficients": {"modulus", "density", "reaction", "damping"},
    "boundary": None,  # k1, k2, and per-label variants; checked separately
    "simulation": {"t_end", "dt", "w0", "w1"},
    "spectral": {"axis_tol", "want_vectors"},
    "helmholtz": {"f", "fx", "fy"},
    "output": {"dir"},
}

_SPRING_LABELS = tuple(lab.value for lab in BoundaryLabel if lab.has_spring)
_DAMPER_LABELS = tuple(lab.value for lab in BoundaryLabel if lab.has_damper)


@dataclass(frozen=True)
class ModelConfig:
    """Parsed model description; expression values stay as source text."""

    dim: int = 1
    n: int = 16
    nx: int = 0
    ny: int = 0
    left: str = "fixed"
    right: str = "fixed"
    bottom: str = ""
    top: str = ""
    modulus: str = "1"
    density: str = "1"
    reaction: str = "0"
    damping: str = "0"
    spring_default: str = "0"
    damper_default: str = "0"
    spring_by_label: tuple[tuple[str, str], ...] = ()
    damper_by_label: tuple[tuple[str, str], ...] = ()
    t_end: float | None = None
    dt: float | None = None
    w0: str | None = None
    w1: str | None = None
    axis_tol: float = 1e-6
    want_vectors: bool = False
    helmholtz_field: tuple[str, ...] = ()
    output_dir: str = "out"


def _parse_partition_value(text: str) -> tuple[Segment, ...]:
    """Parse 'label [t0 t1], ...' into segments; raises ValueError."""
    segments = []
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty boundary assignment")
    for part in parts:
        tokens = part.split()
        if tokens[0] not in _LABEL_NAMES:
            raise ValueError(f"unknown boundary label {tokens[0]!r}")
        label = BoundaryLabel(tokens[0])
        if len(tokens) == 1:
            segments.append(Segment(label))
        elif len(tokens) == 3:
            segments.append(Segment(label, float(tokens[1]), float(tokens[2])))
        else:
            raise ValueError(f"expected 'label' or 'label t0 t1', got {part!r}")
    return tuple(segments)


def _format_partition(segments: tuple[Segment, ...]) -> str:
    if len(segments) == 1 and segments[0].start == 0.0 and segments[0].stop == 1.0:
        return segments[0].label.value
    return ", ".join(f"{s.label.value} {s.start:.17g} {s.stop:.17g}" for s in segments)


class _Diagnostics:
    def __init__(self):
        self.items: list[str] = []

    def add(self, line: int, message: str) -> None:
        self.items.append(f"line {line}: {message}")

    def raise_if_any(self) -> None:
        if self.items:
            raise ConfigError(self.items)


def parse_config(text: str) -> ModelConfig:
    """Parse configuration text, collecting all diagnostics before raising."""
    diags = _Diagnostics()
    section = None
    seen: dict[tuple[str, str], tuple[int, str]] = {}
    section_lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                diags.add(lineno, f"malformed section header {raw.strip()!r}")
                continue
            name = line[1:-1].strip()
            if name not in _SECTION_KEYS:
                diags.add(lineno, f"unknown section [{name}]")
                section = None
                continue
            if name in section_lines:
                diags.add(lineno, f"duplicate section [{name}]")
            section_lines[name] = lineno
            section = name
            continue
        if "=" not in line:
            diags.add(lineno, f"expected 'key = value', got {raw.strip()!r}")
            continue
        if section is None:
            diags.add(lineno, "key outside any known section")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        allowed = _SECTION_KEYS[section]
        if section == "boundary":
            base = key.split("_", 1)[0]
            suffix = key.split("_", 1)[1] if "_" in key else ""
            if base not in ("k1", "k2") or (suffix and suffix not in _LABEL_NAMES):
                diags.add(lineno, f"unknown boundary key {key!r}")
                continue
            if suffix:
                uses = _SPRING_LABELS if base == "k1" else _DAMPER_LABELS
                if suffix not in uses:
                    diags.add(
                        lineno,
                        f"{key!r}: label {suffix!r} does not take a "
                        + ("spring" if base == "k1" else "damper"),
                    )
                    continue
        elif allowed is not None and key not in allowed:
            diags.add(lineno, f"unknown key {key!r} in section [{section}]")
            continue
        if (section, key) in seen:
            diags.add(lineno, f"duplicate key {key!r} in section [{section}]")
            continue
        seen[(section, key)] = (lineno, value)

    def get(section: str, key: str, default: str | None = None) -> tuple[int, str] | None:
        entry = seen.get((section, key))
        if entry is None and default is not None:
            return (section_lines.get(section, 0), default)
        return entry

    def need_int(section: str, key: str, minimum: int) -> int | None:
        entry = seen.get((section, key))
        if entry is None:
            diags.add(section_lines.get(section, 0), f"missing key {key!r} in [{section}]")
            return None
        lineno, value = entry
        try:
            out = int(value)
        except ValueError:
            diags.add(lineno, f"{key!r} must be an integer, got {value!r}")
            return None
        if out < minimum:
            diags.add(lineno, f"{key!r} must be at least {minimum}, got {out}")
            return None
        return out

    def need_float(section: str, key: str, valid=None, rule: str = "") -> float | None:
        entry = seen.get((section, key))
        if entry is None:
            return None
        lineno, value = entry
        try:
            out = float(value)
        except ValueError:
            diags.add(lineno, f"{key!r} must be a number, got {value!r}")
            return None
        if valid is not None and not (np.isfinite(out) and valid(out)):
            diags.add(lineno, f"{key!r} must be {rule}, got {value!r}")
            return None
        return out

    def check_expr(section: str, key: str, default: str | None, dim: int) -> str | None:
        entry = get(section, key, default)
        if entry is None:
            return None
        lineno, value = entry
        try:
            compile_expression(value, dim)
        except ValueError as exc:
            diags.add(lineno, f"{key!r}: {exc}")
            return None
        return value.strip()

    if "domain" not in section_lines:
        diags.add(0, "missing [domain] section")
        diags.raise_if_any()
    dim_entry = get("domain", "dim")
    dim = 0
    if dim_entry is None:
        diags.add(section_lines["domain"], "missing key 'dim' in [domain]")
    else:
        try:
            dim = int(dim_entry[1])
        except ValueError:
            dim = 0
        if dim not in (1, 2):
            diags.add(dim_entry[0], f"'dim' must be 1 or 2, got {dim_entry[1]!r}")
    diags.raise_if_any()

    cfg = ModelConfig(dim=dim)
    labels_present: list[str] = []
    if dim == 1:
        n = need_int("domain", "n", 1)
        ends = {}
        for key in ("left", "right"):
            entry = seen.get(("domain", key))
            if entry is None:
                diags.add(section_lines["domain"], f"missing key {key!r} in [domain]")
                continue
            lineno, value = entry
            if value not in _LABEL_NAMES:
                diags.add(lineno, f"{key!r} must be a boundary label, got {value!r}")
                continue
            ends[key] = value
            labels_present.append(value)
        for key in ("nx", "ny", "bottom", "top"):
            if ("domain", key) in seen:
                diags.add(seen[("domain", key)][0], f"{key!r} is only valid when dim = 2")
        if n is not None and len(ends) == 2:
            cfg = replace(cfg, n=n, left=ends["left"], right=ends["right"])
    else:
        nx = need_int("domain", "nx", 1)
        ny = need_int("domain", "ny", 1)
        if ("domain", "n") in seen:
            diags.add(seen[("domain", "n")][0], "'n' is only valid when dim = 1")
        sides = {}
        for side in SIDES:
            entry = seen.get(("domain", side))
            if entry is None:
                diags.add(section_lines["domain"], f"missing side {side!r} in [domain]")
                continue
            lineno, value = entry
            try:
                segs = _parse_partition_value(value)
            except ValueError as exc:
                diags.add(lineno, f"{side!r}: {exc}")
                continue
            sides[side] = _format_partition(segs)
            labels_present += [s.label.value for s in segs]
        if nx is not None and ny is not None and len(sides) == 4:
            cfg = replace(
                cfg,
                n=0,
                nx=nx,
                ny=ny,
                left=sides["left"],
                right=sides["right"],
                bottom=sides["bottom"],
                top=sides["top"],
            )

    updates: dict[str, object] = {}
    for key, default in (
        ("modulus", "1"),
        ("density", "1"),
        ("reaction", "0"),
        ("damping", "0"),
    ):
        value = check_expr("coefficients", key, default, dim)
        if value is not None:
            updates[key] = value

    spring_overrides = []
    damper_overrides = []
    spring_default = check_expr("boundary", "k1", "0", dim) or "0"
    damper_default = check_expr("boundary", "k2", "0", dim) or "0"
    for sec, key in sorted(seen):
        if sec != "boundary" or "_" not in key:
            continue
        base, label = key.split("_", 1)
        checked = check_expr("boundary", key, None, dim)
        if checked is None:
            continue
        if base == "k1":
            spring_overrides.append((label, checked))
        else:
            damper_overrides.append((label, checked))

    t_end = need_float("simulation", "t_end", lambda v: v >= 0, "a finite number >= 0")
    dt = need_float("simulation", "dt", lambda v: v > 0, "a finite number > 0")
    w0 = check_expr("simulation", "w0", None, dim)
    w1 = check_expr("simulation", "w1", None, dim)
    axis_tol = need_float("spectral", "axis_tol")
    want_vectors = False
    if ("spectral", "want_vectors") in seen:
        lineno, value = seen[("spectral", "want_vectors")]
        if value.lower() in ("true", "yes", "1"):
            want_vectors = True
        elif value.lower() in ("false", "no", "0"):
            want_vectors = False
        else:
            diags.add(lineno, f"'want_vectors' must be boolean, got {value!r}")

    helmholtz_field: tuple[str, ...] = ()
    if dim == 1:
        f = check_expr("helmholtz", "f", None, dim)
        for key in ("fx", "fy"):
            if ("helmholtz", key) in seen:
                diags.add(seen[("helmholtz", key)][0], f"{key!r} is only valid when dim = 2")
        if f is not None:
            helmholtz_field = (f,)
    else:
        fx = check_expr("helmholtz", "fx", None, dim)
        fy = check_expr("helmholtz", "fy", None, dim)
        if ("helmholtz", "f") in seen:
            diags.add(seen[("helmholtz", "f")][0], "'f' is only valid when dim = 1")
        if (fx is None) != (fy is None):
            diags.add(section_lines.get("helmholtz", 0), "need both 'fx' and 'fy'")
        elif fx is not None and fy is not None:
            helmholtz_field = (fx, fy)

    out_entry = get("output", "dir")
    output_dir = out_entry[1] if out_entry else "out"

    # A model with no fixed boundary and the spring left at literal zero
    # has a degenerate energy norm; catch the obvious case while parsing.
    if labels_present and "fixed" not in labels_present:
        spring_exprs = [spring_default] + [v for _, v in spring_overrides]
        if all(src.strip() == "0" for src in spring_exprs):
            diags.add(
                section_lines.get("boundary", section_lines["domain"]),
                "degenerate energy norm: no fixed boundary and boundary spring is zero",
            )

    diags.raise_if_any()
    return replace(
        cfg,
        **updates,
        spring_default=spring_default,
        damper_default=damper_default,
        spring_by_label=tuple(sorted(spring_overrides)),
        damper_by_label=tuple(sorted(damper_overrides)),
        t_end=t_end,
        dt=dt,
        w0=w0,
        w1=w1,
        axis_tol=axis_tol if axis_tol is not None else 1e-6,
        want_vectors=want_vectors,
        helmholtz_field=helmholtz_field,
        output_dir=output_dir,
    )


def build_mesh(cfg: ModelConfig) -> Mesh:
    """Mesh described by the domain section."""
    if cfg.dim == 1:
        return interval_mesh(cfg.n, BoundaryLabel(cfg.left), BoundaryLabel(cfg.right))
    sides = {
        side: _parse_partition_value(getattr(cfg, side)) for side in SIDES
    }
    return rectangle_mesh(cfg.nx, cfg.ny, PartitionSpec(sides))


def build_coefficients(cfg: ModelConfig, mesh: Mesh) -> CoefficientSet:
    """Sample the configured coefficient expressions onto a mesh."""
    dim = cfg.dim
    spring = {lab: compile_expression(src, dim) for lab, src in cfg.spring_by_label}
    damper = {lab: compile_expression(src, dim) for lab, src in cfg.damper_by_label}
    spring_map = {}
    for lab in _SPRING_LABELS:
        spring_map[lab] = spring.get(lab, compile_expression(cfg.spring_default, dim))
    damper_map = {}
    for lab in _DAMPER_LABELS:
        damper_map[lab] = damper.get(lab, compile_expression(cfg.damper_default, dim))
    return sample_coefficients(
        mesh,
        modulus=compile_expression(cfg.modulus, dim),
        density=compile_expression(cfg.density, dim),
        reaction=compile_expression(cfg.reaction, dim),
        damping=compile_expression(cfg.damping, dim),
        boundary_stiffness=spring_map,
        boundary_damping=damper_map,
    )


def resized(cfg: ModelConfig, size: int) -> ModelConfig:
    """Same model family on a finer or coarser mesh."""
    if cfg.dim == 1:
        return replace(cfg, n=int(size))
    return replace(cfg, nx=int(size), ny=int(size))


def helmholtz_field(cfg: ModelConfig, mesh: Mesh) -> np.ndarray:
    """Cellwise field from the helmholtz section; coordinates by default."""
    from .mesh import cell_midpoints

    mids = cell_midpoints(mesh)
    if cfg.helmholtz_field:
        comps = [compile_expression(src, cfg.dim)(mids) for src in cfg.helmholtz_field]
    else:
        comps = [mids[:, d] for d in range(cfg.dim)]
    return np.stack(comps, axis=1)
