"""Model configuration: text format, expression grammar, model building.

The format is sectioned key = value text.  Values that describe fields are
arithmetic expressions in the coordinates (x, and y on 2-D domains) with
decimal numbers, + - * /, parentheses and unary plus and minus.  Python's
ast parser reads an expression, one pass over the tree admits only that
grammar, and a loop evaluates it in float64 without eval.  Parsing
collects every problem with its line number before raising, so a bad file
reports all of its defects at once.  One key table says which keys each
section takes and in which dimension.  Whether the model's energy norm is
degenerate is decided by model validation, not here.
"""

from __future__ import annotations

import ast
import operator
import re
import string
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .coefficients import CoefficientSet, sample_coefficients
from .errors import ConfigError
from .mesh import (
    SIDES,
    BoundaryLabel,
    Mesh,
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
    """Compiled coordinate expression; equality is by source text, not dimension."""

    source: str
    dim: int = field(compare=False)

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

# Each key of each section with the dimension it is valid in; 0 means both.
# [boundary] keys are k1 and k2 with an optional label: _key_problem.
_SECTION_KEYS = {
    "domain": {"dim": 0, "n": 1, "nx": 2, "ny": 2, "left": 0, "right": 0, "bottom": 2, "top": 2},
    "coefficients": {"modulus": 0, "density": 0, "reaction": 0, "damping": 0},
    "boundary": None,
    "simulation": {"t_end": 0, "dt": 0, "w0": 0, "w1": 0},
    "helmholtz": {"f": 1, "fx": 2, "fy": 2},
    "output": {"dir": 0},
}
# Keys that take a number, with the rule the number must meet.
_NUMBER_RULES = {
    "t_end": ("a finite number >= 0", lambda v: v >= 0),
    "dt": ("a finite number > 0", lambda v: v > 0),
}
# Keys stored under another ModelConfig field name.
_FIELD_NAMES = {"k1": "spring_default", "k2": "damper_default", "dir": "output_dir"}

_SPRING_LABELS = tuple(lab.value for lab in BoundaryLabel if lab.has_spring)
_DAMPER_LABELS = tuple(lab.value for lab in BoundaryLabel if lab.has_damper)


@dataclass(frozen=True)
class ModelConfig:
    """Parsed model description; the other dimension's [domain] keys keep their empty defaults."""

    dim: int = 1
    n: int = 0
    nx: int = 0
    ny: int = 0
    left: tuple[Segment, ...] = ()
    right: tuple[Segment, ...] = ()
    bottom: tuple[Segment, ...] = ()
    top: tuple[Segment, ...] = ()
    modulus: Expression = Expression("1", 1)
    density: Expression = Expression("1", 1)
    reaction: Expression = Expression("0", 1)
    damping: Expression = Expression("0", 1)
    spring_default: Expression = Expression("0", 1)
    damper_default: Expression = Expression("0", 1)
    spring_by_label: tuple[tuple[str, Expression], ...] = ()
    damper_by_label: tuple[tuple[str, Expression], ...] = ()
    t_end: float | None = None
    dt: float | None = None
    w0: Expression | None = None
    w1: Expression | None = None
    helmholtz_field: tuple[Expression, ...] = ()
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


def _integer(text: str) -> int | None:
    try:
        return int(text)
    except ValueError:
        return None


def _key_problem(section: str, key: str) -> str | None:
    """Why key does not belong in section, or None if it does.

    [boundary] takes k1 (spring) and k2 (damper), each optionally suffixed
    with _label for a label that carries a spring or a damper respectively.
    """
    keys = _SECTION_KEYS[section]
    if keys is not None:
        return None if key in keys else f"unknown key {key!r} in section [{section}]"
    base, suffixed, label = key.partition("_")
    if base not in ("k1", "k2") or (suffixed and label not in _LABEL_NAMES):
        return f"unknown boundary key {key!r}"
    kind, takes = ("spring", _SPRING_LABELS) if base == "k1" else ("damper", _DAMPER_LABELS)
    if label and label not in takes:
        return f"{key!r}: label {label!r} does not take a {kind}"
    return None


def _typed_value(section: str, key: str, text: str, dim: int):
    """Value of one key as ModelConfig stores it; ValueError carries the diagnostic.

    [domain] keys other than the sides are mesh cell counts.
    """
    if section == "domain" and key not in SIDES:
        count = _integer(text)
        if count is None:
            raise ValueError(f"{key!r} must be an integer, got {text!r}")
        if count < 1:
            raise ValueError(f"{key!r} must be at least 1, got {count}")
        return count
    if key in _NUMBER_RULES:
        rule, valid = _NUMBER_RULES[key]
        try:
            number = float(text)
        except ValueError:
            raise ValueError(f"{key!r} must be a number, got {text!r}") from None
        if not (np.isfinite(number) and valid(number)):
            raise ValueError(f"{key!r} must be {rule}, got {text!r}")
        return number
    if key == "dir":
        if "\0" in text:
            raise ValueError("'dir' must not contain a NUL character")
        return text
    # A 1-D end takes one label; a 2-D side takes a label partition.
    if key in SIDES and dim == 1 and text not in _LABEL_NAMES:
        raise ValueError(f"{key!r} must be a boundary label, got {text!r}")
    try:
        if key in SIDES:
            return _parse_partition_value(text)
        return compile_expression(text, dim)
    except ValueError as exc:
        raise ValueError(f"{key!r}: {exc}") from None


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
            name = line[1:-1].strip() if line.endswith("]") else None
            section = name if name in _SECTION_KEYS else None
            if name is None:
                diags.add(lineno, f"malformed section header {raw.strip()!r}")
                continue
            if section is None:
                diags.add(lineno, f"unknown section [{name}]")
                continue
            if name in section_lines:
                diags.add(lineno, f"duplicate section [{name}]")
            section_lines[name] = lineno
            continue
        if "=" not in line:
            diags.add(lineno, f"expected 'key = value', got {raw.strip()!r}")
            continue
        if section is None:
            diags.add(lineno, "key outside any known section")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        problem = _key_problem(section, key)
        if problem is None and (section, key) in seen:
            problem = f"duplicate key {key!r} in section [{section}]"
        if problem is None:
            seen[(section, key)] = (lineno, value)
        else:
            diags.add(lineno, problem)

    if "domain" not in section_lines:
        diags.add(0, "missing [domain] section")
        diags.raise_if_any()
    domain_line = section_lines["domain"]
    dim_entry = seen.pop(("domain", "dim"), None)
    dim = _integer(dim_entry[1]) if dim_entry else None
    if dim_entry is None:
        diags.add(domain_line, "missing key 'dim' in [domain]")
    elif dim not in (1, 2):
        diags.add(dim_entry[0], f"'dim' must be 1 or 2, got {dim_entry[1]!r}")
    diags.raise_if_any()

    for (sec, key), (lineno, _) in list(seen.items()):
        valid_in = (_SECTION_KEYS[sec] or {}).get(key, 0)
        if valid_in not in (0, dim):
            diags.add(lineno, f"{key!r} is only valid when dim = {valid_in}")
            del seen[(sec, key)]
    for key, valid_in in _SECTION_KEYS["domain"].items():
        if key != "dim" and valid_in in (0, dim) and ("domain", key) not in seen:
            noun = "side" if dim == 2 and key in SIDES else "key"
            diags.add(domain_line, f"missing {noun} {key!r} in [domain]")
    values = {}
    for (sec, key), (lineno, value) in seen.items():
        try:
            values[key] = _typed_value(sec, key, value, dim)
        except ValueError as exc:
            diags.add(lineno, str(exc))
    components = [key for key, dims in _SECTION_KEYS["helmholtz"].items() if dims in (0, dim)]
    vector = tuple(values.pop(key) for key in components if key in values)
    if 0 < len(vector) < len(components):
        need = " and ".join(repr(key) for key in components)
        diags.add(section_lines.get("helmholtz", 0), f"need both {need}")
    diags.raise_if_any()

    by_label: dict[str, list] = {"k1": [], "k2": []}
    for key in [key for key in values if key.startswith(("k1_", "k2_"))]:
        by_label[key[:2]].append((key[3:], values.pop(key)))
    return ModelConfig(
        dim=dim,
        spring_by_label=tuple(sorted(by_label["k1"])),
        damper_by_label=tuple(sorted(by_label["k2"])),
        helmholtz_field=vector,
        **{_FIELD_NAMES.get(key, key): value for key, value in values.items()},
    )


def build_mesh(cfg: ModelConfig) -> Mesh:
    """Mesh described by the domain section."""
    if cfg.dim == 1:
        return interval_mesh(cfg.n, cfg.left[0].label, cfg.right[0].label)
    return rectangle_mesh(cfg.nx, cfg.ny, {side: getattr(cfg, side) for side in SIDES})


def build_coefficients(cfg: ModelConfig, mesh: Mesh) -> CoefficientSet:
    """Sample the configured coefficient expressions onto a mesh."""
    spring = dict(cfg.spring_by_label)
    damper = dict(cfg.damper_by_label)
    return sample_coefficients(
        mesh,
        modulus=cfg.modulus,
        density=cfg.density,
        reaction=cfg.reaction,
        damping=cfg.damping,
        boundary_stiffness={lab: spring.get(lab, cfg.spring_default) for lab in _SPRING_LABELS},
        boundary_damping={lab: damper.get(lab, cfg.damper_default) for lab in _DAMPER_LABELS},
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
        comps = [expr(mids) for expr in cfg.helmholtz_field]
    else:
        comps = [mids[:, d] for d in range(cfg.dim)]
    return np.stack(comps, axis=1)
