"""Network specification files.

The original ZNN release defines networks in text config files; we
support an equivalent INI format with two styles that can be mixed:

**Layered shorthand** — one ``[layered]`` section mapping directly onto
:func:`repro.graph.build_layered_network`::

    [layered]
    spec = CTMCTMCTCT
    width = 8
    kernel = 3 3 3
    window = 2
    transfer = relu
    final_transfer = linear
    skip_kernels = true
    output_nodes = 1

**Explicit graph** — one ``[node <name>]`` section per image node and
one ``[edge <name>]`` section per operation, for arbitrary topologies
(ZNN "allows for easy extensions … with an arbitrary topology")::

    [node input]
    [node a]
    [node out]

    [edge c1]
    type = conv
    src = input
    dst = a
    kernel = 3 3 3
    sparsity = 2

    [edge t1]
    type = transfer
    src = a
    dst = out
    transfer = tanh

Values: shapes are one or three whitespace/comma-separated ints;
booleans are ``true``/``false``; numbers per Python.  Unknown keys and
sections raise, so typos fail loudly.
"""

from __future__ import annotations

import configparser
import io
from typing import Dict, List, Union

from repro.graph.builders import build_layered_network
from repro.graph.computation_graph import ComputationGraph

__all__ = ["parse_spec", "load_spec", "dump_layered_spec",
           "parse_layered_kwargs", "load_layered_kwargs"]

_LAYERED_KEYS = {
    "spec": str,
    "width": "intlist",
    "kernel": "shape",
    "window": "shape",
    "transfer": str,
    "final_transfer": str,
    "input_nodes": int,
    "output_nodes": int,
    "skip_kernels": bool,
    "dropout_rate": float,
}

_EDGE_KEYS = {
    "type": str,
    "src": str,
    "dst": str,
    "kernel": "shape",
    "window": "shape",
    "sparsity": "shape",
    "transfer": str,
    "rate": float,
}


def _parse_value(kind, raw: str):
    raw = raw.strip()
    if kind is str:
        return raw
    if kind is int:
        return int(raw)
    if kind is float:
        return float(raw)
    if kind is bool:
        low = raw.lower()
        if low in ("true", "yes", "1", "on"):
            return True
        if low in ("false", "no", "0", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    parts = [p for p in raw.replace(",", " ").split() if p]
    values = [int(p) for p in parts]
    if kind == "shape":
        if len(values) == 1:
            return values[0]
        if len(values) in (2, 3):
            return tuple(values)
        raise ValueError(f"shape needs 1–3 ints, got {raw!r}")
    if kind == "intlist":
        return values[0] if len(values) == 1 else values
    raise AssertionError(kind)


def _layered_kwargs(parser: configparser.ConfigParser) -> Dict[str, object]:
    kwargs: Dict[str, object] = {}
    for key, raw in parser.items("layered"):
        if key not in _LAYERED_KEYS:
            raise ValueError(f"unknown [layered] key {key!r}")
        kwargs[key] = _parse_value(_LAYERED_KEYS[key], raw)
    if "spec" not in kwargs or "width" not in kwargs:
        raise ValueError("[layered] requires at least spec and width")
    return kwargs


def parse_layered_kwargs(text: str) -> Dict[str, object]:
    """The ``[layered]`` section of spec-file *text* as builder kwargs.

    Serving needs the raw arguments — not a built graph — because the
    dense-equivalent twin is rebuilt per tile shape
    (:func:`repro.core.dense_equivalent_network` takes spec + kwargs).
    Explicit-graph spec files have no pooling structure to transform
    and raise ``ValueError``.
    """
    parser = configparser.ConfigParser()
    parser.read_file(io.StringIO(text))
    if "layered" not in parser.sections():
        raise ValueError(
            "spec file has no [layered] section; dense-equivalent serving "
            "requires the layered shorthand (explicit graphs have no "
            "pooling structure to transform)")
    return _layered_kwargs(parser)


def load_layered_kwargs(path) -> Dict[str, object]:
    """:func:`parse_layered_kwargs` for a spec file on disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_layered_kwargs(fh.read())


def parse_spec(text: str) -> ComputationGraph:
    """Build a :class:`ComputationGraph` from spec-file *text*."""
    parser = configparser.ConfigParser()
    parser.read_file(io.StringIO(text))

    sections = parser.sections()
    has_layered = "layered" in sections
    node_sections = [s for s in sections if s.startswith("node ")]
    edge_sections = [s for s in sections if s.startswith("edge ")]
    recognised = (int(has_layered) + len(node_sections) + len(edge_sections))
    if recognised != len(sections):
        unknown = [s for s in sections
                   if s != "layered" and not s.startswith(("node ", "edge "))]
        raise ValueError(f"unknown section(s): {unknown}")

    if has_layered and (node_sections or edge_sections):
        raise ValueError(
            "a spec file is either [layered] or explicit nodes/edges, "
            "not both")

    if has_layered:
        return build_layered_network(**_layered_kwargs(parser))

    if not node_sections or not edge_sections:
        raise ValueError("explicit spec needs [node …] and [edge …] sections")

    graph = ComputationGraph()
    for section in node_sections:
        name = section[len("node "):].strip()
        if not name:
            raise ValueError("node section with empty name")
        layer = 0
        for key, raw in parser.items(section):
            if key == "layer":
                layer = int(raw)
            else:
                raise ValueError(f"unknown [node] key {key!r}")
        graph.add_node(name, layer=layer)

    for section in edge_sections:
        name = section[len("edge "):].strip()
        params: Dict[str, object] = {}
        for key, raw in parser.items(section):
            if key not in _EDGE_KEYS:
                raise ValueError(f"unknown [edge] key {key!r}")
            params[key] = _parse_value(_EDGE_KEYS[key], raw)
        kind = params.pop("type", None)
        src = params.pop("src", None)
        dst = params.pop("dst", None)
        if not (kind and src and dst):
            raise ValueError(
                f"edge {name!r} requires type, src and dst")
        graph.add_edge(name, src, dst, kind, **params)

    graph.validate()
    return graph


def load_spec(path) -> ComputationGraph:
    """Build a :class:`ComputationGraph` from a spec file on disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())


def dump_layered_spec(spec: str, width: Union[int, List[int]],
                      **kwargs) -> str:
    """Render builder arguments back into spec-file text (the inverse
    of the [layered] shorthand; useful for experiment logging)."""
    lines = ["[layered]", f"spec = {spec}"]
    width_txt = (" ".join(str(w) for w in width)
                 if isinstance(width, (list, tuple)) else str(width))
    lines.append(f"width = {width_txt}")
    for key, value in kwargs.items():
        if key not in _LAYERED_KEYS:
            raise ValueError(f"unknown layered key {key!r}")
        if isinstance(value, (list, tuple)):
            value = " ".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
