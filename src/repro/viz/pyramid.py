"""Multilevel (tile pyramid) plotting.

The follow-up visualization work on SpatialHadoop renders web-map-style
tile pyramids: zoom level ``z`` covers the space with ``2^z x 2^z`` tiles
of a fixed pixel size. One MapReduce job renders a whole pyramid: the map
phase assigns each shape to every tile it intersects on every level (the
shape's MBR bounds which tiles see it), and each reduce group rasterises
one tile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.result import OperationResult
from repro.core.splitter import global_index_of
from repro.geometry import Rectangle
from repro.index.partitioners.base import shape_mbr
from repro.mapreduce import Job, JobRunner
from repro.viz.canvas import Canvas

#: Tile address: (level, tile_x, tile_y).
TileId = Tuple[int, int, int]


@dataclass
class TilePyramid:
    """All rendered tiles of one pyramid."""

    world: Rectangle
    tile_size: int
    levels: int
    tiles: Dict[TileId, Canvas]

    def tile(self, level: int, x: int, y: int) -> Canvas:
        return self.tiles[(level, x, y)]

    def tiles_at(self, level: int) -> Dict[TileId, Canvas]:
        return {t: c for t, c in self.tiles.items() if t[0] == level}

    @property
    def num_tiles(self) -> int:
        return len(self.tiles)


def tile_rect(world: Rectangle, level: int, x: int, y: int) -> Rectangle:
    """World-space rectangle of tile (level, x, y)."""
    n = 1 << level
    w = world.width / n
    h = world.height / n
    return Rectangle(
        world.x1 + x * w,
        world.y1 + y * h,
        world.x1 + (x + 1) * w,
        world.y1 + (y + 1) * h,
    )


def plot_pyramid(
    runner: JobRunner,
    file_name: str,
    levels: int = 3,
    tile_size: int = 64,
) -> OperationResult:
    """Render levels ``0 .. levels-1`` of the tile pyramid in one job.

    Empty tiles are neither shuffled nor rendered — the pyramid is sparse,
    exactly like a real tile server's output.
    """
    if levels < 1:
        raise ValueError("need at least one level")
    if tile_size < 1:
        raise ValueError("tile size must be positive")
    fs = runner.fs
    gindex = global_index_of(fs, file_name)
    if gindex is not None:
        world = gindex.mbr
    else:
        world = None
        for record in fs.get(file_name).records():
            mbr = shape_mbr(record)
            world = mbr if world is None else world.union(mbr)
        if world is None:
            raise ValueError(f"cannot plot empty file {file_name!r}")
    if world.width <= 0 or world.height <= 0:
        world = world.expand(max(world.margin, 1.0) * 0.01)

    job = Job(
        input_file=file_name,
        map_fn=_pyramid_map,
        reduce_fn=_pyramid_reduce,
        num_reducers=4 ** (levels - 1),
        config={"levels": levels, "tile_size": tile_size, "world": world},
        name=f"pyramid({file_name})",
    )
    result = runner.run(job)
    pyramid = TilePyramid(
        world=world,
        tile_size=tile_size,
        levels=levels,
        tiles=dict(result.output),
    )
    return OperationResult(answer=pyramid, jobs=[result])


def _tiles_overlapping(world: Rectangle, mbr: Rectangle, level: int):
    n = 1 << level
    tw = world.width / n
    th = world.height / n
    x1 = max(0, min(n - 1, int((mbr.x1 - world.x1) / tw)))
    x2 = max(0, min(n - 1, int((mbr.x2 - world.x1) / tw)))
    y1 = max(0, min(n - 1, int((mbr.y1 - world.y1) / th)))
    y2 = max(0, min(n - 1, int((mbr.y2 - world.y1) / th)))
    for tx in range(x1, x2 + 1):
        for ty in range(y1, y2 + 1):
            yield (level, tx, ty)


def _pyramid_map(_key, block, ctx):
    world = ctx.config["world"]
    for record in block:
        mbr = shape_mbr(record)
        if not world.intersects(mbr):
            continue
        for level in range(ctx.config["levels"]):
            for tile_id in _tiles_overlapping(world, mbr, level):
                ctx.emit(tile_id, record)


def _pyramid_reduce(tile_id, records, ctx):
    level, tx, ty = tile_id
    size = ctx.config["tile_size"]
    canvas = Canvas(size, size, tile_rect(ctx.config["world"], level, tx, ty))
    for record in records:
        canvas.draw_shape(record)
    if canvas.total_hits:
        ctx.emit(tile_id, (tile_id, canvas))
