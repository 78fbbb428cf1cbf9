"""Plain-text input formats: graphs, interactions, and run configurations.

Graph files:
    dim 2
    c_gamma 1.5          # optional, default 1
    vertex 3 0.0 1.0
    edge 3 4

Interaction files:
    d 2
    range 1.0
    model heisenberg_fm  # or explicit terms:
    term 0 1
    0,0 0,0 0,0 0,0      # d^m rows of (re,im) pairs, comma separated
    ...

Run configuration: flat "key value" lines with a mandatory schema_version.
Unknown keys are rejected so typos fail loudly.

An unreadable file raises ConfigError naming the path; a line with a missing
value, a token that does not convert or a number that is not finite raises
the format's error (GraphError, InteractionError, ConfigError) naming the line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .certification import DEFAULT_DIM_CAP, DEFAULT_GAP_FLOOR
from .errors import ConfigError, GraphError, InteractionError
from .interaction import Interaction, InteractionTerm
from .lattice import EmbeddedGraph


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ConfigError(f"cannot read input file {path}: {reason}") from None


def _bad_line(error: type, tokens: list[str], exc: Exception) -> Exception:
    reason = "missing value" if isinstance(exc, IndexError) else str(exc)
    return error(f"malformed line '{' '.join(tokens)}': {reason}")


def _finite(token: str) -> float:
    x = float(token)
    if not math.isfinite(x):
        raise ValueError(f"number '{token}' is not finite")
    return x


def _content_lines(text: str) -> list[list[str]]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line.split())
    return out


def parse_graph(text: str) -> EmbeddedGraph:
    dim = None
    c_gamma = 1.0
    vertices: dict[int, tuple[float, ...]] = {}
    edges: list[tuple[int, int]] = []
    for tokens in _content_lines(text):
        key = tokens[0].lower()
        try:
            if key == "dim":
                dim = int(tokens[1])
            elif key == "c_gamma":
                c_gamma = _finite(tokens[1])
            elif key == "vertex":
                vid = int(tokens[1])
                coords = tuple(_finite(x) for x in tokens[2:])
                if vid in vertices:
                    raise GraphError(f"duplicate vertex id {vid}")
                vertices[vid] = coords
            elif key == "edge":
                edges.append((int(tokens[1]), int(tokens[2])))
            else:
                raise GraphError(f"unknown graph directive: {tokens[0]}")
        except (ValueError, IndexError) as exc:
            raise _bad_line(GraphError, tokens, exc) from None
    if dim is None:
        raise GraphError("graph file missing 'dim'")
    ids = tuple(sorted(vertices))
    for vid in ids:
        if len(vertices[vid]) != dim:
            raise GraphError(f"vertex {vid} has {len(vertices[vid])} coordinates, expected {dim}")
    coords = np.array([vertices[v] for v in ids], dtype=float).reshape(len(ids), dim)
    adjacency: dict[int, set[int]] = {v: set() for v in ids}
    for a, b in edges:
        if a not in adjacency or b not in adjacency:
            raise GraphError(f"edge ({a}, {b}) references unknown vertex")
        adjacency[a].add(b)
        adjacency[b].add(a)
    return EmbeddedGraph(
        ids, coords, {v: tuple(sorted(ns)) for v, ns in adjacency.items()}, dim, c_gamma
    )


def format_graph(g: EmbeddedGraph) -> str:
    lines = [f"dim {g.D}", f"c_gamma {g.c_gamma:.17g}"]
    for v in g.ids:
        coords = " ".join(f"{x:.17g}" for x in g.coord(v))
        lines.append(f"vertex {v} {coords}")
    seen = set()
    for v in g.ids:
        for w in g.neighbors(v):
            if (min(v, w), max(v, w)) not in seen:
                seen.add((min(v, w), max(v, w)))
                lines.append(f"edge {min(v, w)} {max(v, w)}")
    return "\n".join(lines) + "\n"


def load_graph(path) -> EmbeddedGraph:
    return parse_graph(_read(path))


def _parse_complex_row(tokens: list[str], width: int) -> np.ndarray:
    if len(tokens) != width:
        raise InteractionError(f"matrix row has {len(tokens)} entries, expected {width}")
    row = np.empty(width, dtype=complex)
    for i, tok in enumerate(tokens):
        if "," not in tok:
            raise InteractionError(f"matrix entry '{tok}' is not a re,im pair")
        re, im = tok.split(",", 1)
        row[i] = complex(_finite(re), _finite(im))
    return row


def parse_interaction(text: str) -> tuple[Interaction | None, str | None, dict]:
    """Returns (interaction, model_name, params).

    Files either name a builtin model (instantiated against a graph by the
    caller) or list explicit terms; exactly one of the first two results is
    not None.
    """
    d = None
    R = None
    model = None
    params: dict[str, float] = {}
    terms: list[InteractionTerm] = []
    lines = _content_lines(text)
    i = 0
    while i < len(lines):
        tokens = lines[i]
        try:
            key = tokens[0].lower()
            if key == "d":
                d = int(tokens[1])
            elif key == "range":
                R = _finite(tokens[1])
            elif key == "model":
                model = tokens[1]
            elif key == "param":
                params[tokens[1]] = _finite(tokens[2])
            elif key == "term":
                if d is None:
                    raise InteractionError("term listed before 'd'")
                support = tuple(int(x) for x in tokens[1:])
                width = d ** len(support)
                rows = []
                for r in range(width):
                    i += 1
                    if i >= len(lines):
                        raise InteractionError("unexpected end of file inside a term matrix")
                    rows.append(_parse_complex_row(lines[i], width))
                mat = np.vstack(rows)
                if np.abs(mat.imag).max() == 0.0:
                    mat = mat.real
                terms.append(InteractionTerm(support, mat))
            else:
                raise InteractionError(f"unknown interaction directive: {tokens[0]}")
        except (ValueError, IndexError) as exc:
            raise _bad_line(InteractionError, lines[i], exc) from None
        i += 1
    if model is not None and terms:
        raise InteractionError("file mixes a named model with explicit terms")
    if model is not None:
        return None, model, params
    if d is None or R is None:
        raise InteractionError("interaction file missing 'd' or 'range'")
    return Interaction(terms, R=R, d=d), None, params


def format_interaction(phi: Interaction) -> str:
    lines = [f"d {phi.d}", f"range {phi.R:.17g}"]
    for term in phi.terms:
        lines.append("term " + " ".join(str(v) for v in term.support))
        mat = np.asarray(term.matrix, dtype=complex)
        for row in mat:
            lines.append(" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row))
    return "\n".join(lines) + "\n"


def load_interaction(path):
    return parse_interaction(_read(path))


CONFIG_SCHEMA_VERSION = 1

# key -> (type, default); None default means "unset"
CONFIG_KEYS: dict[str, tuple] = {
    "schema_version": (int, None),
    "model": (str, None),
    "length": (int, None),
    "grid": (str, None),          # e.g. "4x3"
    "graph_file": (str, None),
    "interaction_file": (str, None),
    "rank": (int, 1),
    "t": (float, 2.0),
    "alpha": (int, 0),
    "k_min": (int, None),
    "k_max": (int, None),
    "s": (int, 1),
    "s_rule": (str, None),        # "const:1" or "power:1.25"
    "seed": (int, 1234),
    "dim_cap": (int, DEFAULT_DIM_CAP),
    "out_csv": (str, None),
    "out_json": (str, None),
    "gap_floor": (float, DEFAULT_GAP_FLOOR),
    "sizes": (str, None),         # e.g. "4:12" or "4,6,8"
    "axis_perms": (int, 0),       # enumerate rectangle axis permutations
    "conservative_g": (int, 0),   # use the support-overlap commutation bound
}


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def __getattr__(self, name):
        values = object.__getattribute__(self, "values")
        if name in CONFIG_KEYS:
            return values.get(name, CONFIG_KEYS[name][1])
        raise AttributeError(name)

    def update(self, **kwargs):
        for key, val in kwargs.items():
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown config key: {key}")
            if val is not None:
                value = CONFIG_KEYS[key][0](val)
                if isinstance(value, float) and not math.isfinite(value):
                    raise ConfigError(f"{key} must be a finite number, got {val}")
                self.values[key] = value


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    seen_version = False
    for tokens in _content_lines(text):
        key = tokens[0]
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key: {key}")
        if len(tokens) != 2:
            raise ConfigError(f"config key {key} needs exactly one value")
        try:
            cfg.update(**{key: tokens[1]})
        except (ValueError, ConfigError) as exc:
            raise _bad_line(ConfigError, tokens, exc) from None
        if key == "schema_version":
            seen_version = True
            if cfg.schema_version != CONFIG_SCHEMA_VERSION:
                raise ConfigError(
                    f"unsupported schema_version {cfg.schema_version}, "
                    f"expected {CONFIG_SCHEMA_VERSION}"
                )
    if not seen_version:
        raise ConfigError("config file missing schema_version")
    return cfg


def load_config(path) -> RunConfig:
    return parse_config(_read(path))
