"""Binary little-endian PLY export with optional per-vertex colors."""

from __future__ import annotations

from pathlib import Path

import numpy as np


def write_ply(path, vertices: np.ndarray, triangles: np.ndarray,
              colors: np.ndarray | None = None) -> Path:
    """Write a triangle mesh as binary_little_endian PLY.

    Vertices are float64; `colors`, when given, is an (V, 3) uint8 RGB array.
    Output bytes are a pure function of the inputs.
    """
    path = Path(path)
    vertices = np.asarray(vertices, dtype="<f8")
    triangles = np.asarray(triangles, dtype="<i4")
    header = [
        "ply",
        "format binary_little_endian 1.0",
        f"element vertex {len(vertices)}",
        "property double x",
        "property double y",
        "property double z",
    ]
    if colors is not None:
        colors = np.asarray(colors, dtype=np.uint8)
        if colors.shape != (len(vertices), 3):
            raise ValueError(f"colors must be ({len(vertices)}, 3), got {colors.shape}")
        header += ["property uchar red", "property uchar green", "property uchar blue"]
    header += [
        f"element face {len(triangles)}",
        "property list uchar int vertex_indices",
        "end_header",
    ]

    if colors is not None:
        vdt = np.dtype([("xyz", "<f8", 3), ("rgb", "u1", 3)])
        vbuf = np.empty(len(vertices), dtype=vdt)
        vbuf["xyz"] = vertices
        vbuf["rgb"] = colors
    else:
        vbuf = vertices
    fdt = np.dtype([("n", "u1"), ("idx", "<i4", 3)])
    fbuf = np.empty(len(triangles), dtype=fdt)
    fbuf["n"] = 3
    fbuf["idx"] = triangles

    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        fh.write(vbuf.tobytes())
        fh.write(fbuf.tobytes())
    return path

