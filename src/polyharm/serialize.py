"""Columnar text formats for grid maps and result artifacts.

Both formats are plain text with ``# key: value`` header lines followed by
whitespace-separated rows.  Floats are written with ``repr`` (shortest
round-trip), so identical inputs produce byte-identical files.  Wall time is
deliberately not part of an artifact file.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .fields import GridMap
from .geometry import DomainModel, TargetModel

GRIDMAP_MAGIC = "# polyharm gridmap v1"
ARTIFACT_MAGIC = "# polyharm artifact v1"


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def save_gridmap(path: str, gmap: GridMap) -> None:
    lines = [GRIDMAP_MAGIC]
    lines.append(f"# grid_shape: {' '.join(str(s) for s in gmap.grid_shape)}")
    lines.append(f"# box_lo: {' '.join(_fmt(v) for v in gmap.dom.chart.lo)}")
    lines.append(f"# box_hi: {' '.join(_fmt(v) for v in gmap.dom.chart.hi)}")
    lines.append(f"# periodic: {int(gmap.dom.chart.periodic)}")
    lines.append(f"# domain: {gmap.dom.name}")
    lines.append(f"# target: {gmap.tgt.name}")
    lines.append(f"# eval_mode: {gmap.eval_mode}")
    lines.append(f"# fd_order: {gmap.fd_order}")
    lines.append(f"# winding: {json.dumps(gmap.winding.tolist())}")
    coords = " ".join(f"x{i + 1}" for i in range(gmap.dom.dim))
    comps = " ".join(f"y{a + 1}" for a in range(gmap.tgt.dim))
    lines.append(f"# columns: index {coords} {comps}")
    mesh = gmap.mesh
    flat_vals = gmap.values.reshape(gmap.tgt.dim, -1)
    flat_mesh = [m.reshape(-1) for m in mesh]
    for idx in range(flat_vals.shape[1]):
        row = [str(idx)]
        row += [_fmt(fm[idx]) for fm in flat_mesh]
        row += [_fmt(flat_vals[a, idx]) for a in range(gmap.tgt.dim)]
        lines.append(" ".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# the header lines ``save_gridmap`` writes, each required by ``load_gridmap``
GRIDMAP_HEADERS = ("grid_shape", "box_lo", "box_hi", "periodic", "domain", "target", "eval_mode",
                   "fd_order", "winding", "columns")


def load_gridmap(path: str, dom: DomainModel, tgt: TargetModel) -> GridMap:
    """Read a gridmap file; every header line and one row of finite numbers
    per node index are required, else ConfigurationError."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != GRIDMAP_MAGIC:
        raise ConfigurationError(f"{path} is not a polyharm gridmap file")
    header: dict[str, str] = {}
    rows = []
    for line in lines[1:]:
        if line.startswith("# "):
            key, _, val = line[2:].partition(": ")
            header[key] = val
        elif line.strip():
            rows.append(line.split())
    missing = [key for key in GRIDMAP_HEADERS if key not in header]
    if missing:
        raise ConfigurationError(f"{path} lacks the header line(s) {missing}")
    if header["domain"] != dom.name or header["target"] != tgt.name:
        raise ConfigurationError(
            f"gridmap charts ({header['domain']} -> {header['target']}) do not match "
            f"the configured models ({dom.name} -> {tgt.name})")
    n, m = tgt.dim, dom.dim
    try:
        shape = tuple(int(s) for s in header["grid_shape"].split())
        winding = np.array(json.loads(header["winding"]), dtype=float).reshape(n, m)
        index = np.array([int(row[0]) for row in rows], dtype=int)
        table = np.array([[float(v) for v in row[1:]] for row in rows]).reshape(len(rows), m + n)
        fd_order = int(header["fd_order"])
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(f"{path} is malformed: {exc}") from exc
    count = int(np.prod(shape))
    if len(shape) != m or not np.array_equal(np.sort(index), np.arange(count)):
        raise ConfigurationError(f"{path} needs a {m}-D grid_shape and one row per node index 0..{count - 1}")
    if not (np.all(np.isfinite(table)) and np.all(np.isfinite(winding))):
        raise ConfigurationError(f"{path} holds a non-finite number")
    values = np.empty((n, count))
    values[:, index] = table[:, m:].T
    return GridMap(dom, tgt, shape, values.reshape((n,) + shape), "grid_fd", None, winding, fd_order)


@dataclass
class ResultArtifact:
    """One command's deterministic output: full config echo, columnar records
    and summary scalars.  ``wall_time`` is runtime metadata and is never
    serialized, keeping artifact files byte-identical across runs."""

    command: str
    config_echo: str
    version: str
    columns: list[str]
    records: list[tuple]
    summary: dict[str, object]
    wall_time: float = field(default=0.0, compare=False)

    def render(self) -> str:
        lines = [ARTIFACT_MAGIC]
        lines.append(f"# command: {self.command}")
        lines.append(f"# version: {self.version}")
        lines.append(f"# config: {self.config_echo}")
        for key in sorted(self.summary):
            lines.append(f"# summary {key}: {_fmt(self.summary[key])}")
        lines.append(f"# columns: {' '.join(self.columns)}")
        for rec in self.records:
            lines.append(" ".join(_fmt(v) for v in rec))
        return "\n".join(lines) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.render())
