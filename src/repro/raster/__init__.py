"""Rasterization substrate: tiling, the rasterizer, the functional pipeline."""

from .pipeline import DrawMetrics, GraphicsPipeline, GroupMetrics
from .rasterizer import estimate_coverage, rasterize_triangles
from .tiles import TileGrid

__all__ = [
    "DrawMetrics",
    "GraphicsPipeline",
    "GroupMetrics",
    "TileGrid",
    "estimate_coverage",
    "rasterize_triangles",
]
