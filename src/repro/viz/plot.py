"""The single-level plot operation."""

from __future__ import annotations

from typing import Optional

from repro.core.result import OperationResult
from repro.core.splitter import global_index_of
from repro.geometry import Rectangle
from repro.index.partitioners.base import shape_mbr
from repro.mapreduce import Job, JobRunner
from repro.viz.canvas import Canvas


def plot(
    runner: JobRunner,
    file_name: str,
    width: int = 80,
    height: int = 40,
    window: Optional[Rectangle] = None,
) -> OperationResult:
    """Rasterise a spatial file into a :class:`Canvas` with one MapReduce job.

    Each map task draws its block onto a partial canvas; the single reducer
    overlays the partials (canvas merging is associative and commutative,
    so a combiner could be used identically). ``window`` restricts the
    plotted region; for indexed files it also prunes partitions outside the
    window via the global index.
    """
    fs = runner.fs
    gindex = global_index_of(fs, file_name)
    if window is None:
        if gindex is not None:
            window = gindex.mbr
        else:
            window = None
            for record in fs.get(file_name).records():
                mbr = shape_mbr(record)
                window = mbr if window is None else window.union(mbr)
            if window is None:
                raise ValueError(f"cannot plot empty file {file_name!r}")
        if window.width <= 0 or window.height <= 0:
            window = window.expand(max(window.margin, 1.0) * 0.01)

    splitter = None
    if gindex is not None:
        from repro.core.splitter import overlapping_filter, spatial_splitter

        splitter = spatial_splitter(overlapping_filter(window))

    job = Job(
        input_file=file_name,
        map_fn=_plot_map,
        reduce_fn=_plot_reduce,
        splitter=splitter,
        config={"w": width, "h": height, "window": window},
        name=f"plot({file_name})",
    )
    result = runner.run(job)
    canvas = result.output[0] if result.output else Canvas(width, height, window)
    return OperationResult(answer=canvas, jobs=[result])


def _plot_map(_key, block, ctx):
    canvas = Canvas(ctx.config["w"], ctx.config["h"], ctx.config["window"])
    for record in block:
        if ctx.config["window"].intersects(shape_mbr(record)):
            canvas.draw_shape(record)
    if canvas.total_hits:
        ctx.emit(1, canvas)


def _plot_reduce(_key, canvases, ctx):
    merged = Canvas(ctx.config["w"], ctx.config["h"], ctx.config["window"])
    for canvas in canvases:
        merged.merge(canvas)
    ctx.emit(1, merged)
