"""Rasterization substrate: tiling and the rasterizer."""

from .rasterizer import estimate_coverage, rasterize_triangles
from .tiles import TileGrid

__all__ = [
    "TileGrid",
    "estimate_coverage",
    "rasterize_triangles",
]
