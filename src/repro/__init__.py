"""repro: a Python reproduction of SpatialHadoop (SIGMOD 2014).

A spatial MapReduce framework on a faithful single-process simulator:

* :mod:`repro.geometry` — the geometry kernel (shapes, predicates, classic
  algorithms);
* :mod:`repro.mapreduce` — the Hadoop stand-in (block file system, map /
  combine / shuffle / reduce engine, cluster cost model);
* :mod:`repro.index` — the two-level spatial indexing layer (7 partitioning
  techniques, STR R-tree local indexes, MapReduce index construction);
* :mod:`repro.core` — SpatialHadoop's MapReduce components (spatial file
  splitter + record reader) and the :class:`~repro.core.system.SpatialHadoop`
  facade;
* :mod:`repro.operations` — the operations layer (range query, kNN,
  spatial join, skyline, convex hull, closest/farthest pair, polygon
  union), each with Hadoop and SpatialHadoop variants;
* :mod:`repro.pigeon` — the high-level spatial language layer;
* :mod:`repro.datagen` — seeded workload generators for the evaluation.

Quickstart::

    from repro import SpatialHadoop
    from repro.datagen import generate_points
    from repro.geometry import Rectangle

    sh = SpatialHadoop(num_nodes=8)
    sh.load("pts", generate_points(100_000, "uniform", seed=1))
    sh.index("pts", "pts_idx", technique="str")
    hits = sh.range_query("pts_idx", Rectangle(0, 0, 1e5, 1e5))
    print(len(hits.answer), "records,", hits.blocks_read, "blocks read")
"""

from repro.geometry.feature import Feature
from repro.core.result import OperationResult
from repro.core.system import SpatialHadoop

__version__ = "1.0.0"

__all__ = ["Feature", "OperationResult", "SpatialHadoop", "__version__"]
