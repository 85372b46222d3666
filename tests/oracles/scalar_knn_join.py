"""The record-at-a-time indexed kNN join, kept as the oracle.

This is the map loop ``repro.operations.knn_join`` ran before it moved
onto :func:`repro.geometry.vectorized.knn_rows`: per R record, S cells
sorted by MBR distance, one ``RTree.knn`` probe per visited cell merged
into a heap of k, stopping at the first cell farther than the k-th find.
It runs no MapReduce job; it answers what the batch kernel must
reproduce — every row's neighbours and the two ``KNN_JOIN_*`` counters.
"""

from __future__ import annotations

import heapq
from typing import Any, List, Tuple

from repro.core.splitter import global_index_of
from repro.index.rtree import RTree
from repro.mapreduce import FileSystem
from repro.operations.common import as_point


def scalar_knn_join(fs: FileSystem, left_file: str, right_file: str, k: int):
    """``(rows, s_blocks, s_block_reads)`` of the indexed kNN join.

    ``rows`` lists ``(r_record, [(distance, s_record), ...])`` in the
    operation's order: R blocks in file order, records in block order.
    """
    right_blocks = {
        b.metadata["cell_id"]: b for b in fs.get(right_file).blocks
    }
    right_cells = sorted(
        global_index_of(fs, right_file), key=lambda c: c.cell_id
    )
    rows: List[Tuple[Any, List[Tuple[float, Any]]]] = []
    s_blocks = 0
    s_block_reads = 0
    for r_block in fs.get(left_file).blocks:
        blocks_touched = set()
        for record in r_block.records:
            query = as_point(record)
            order = sorted(
                right_cells,
                key=lambda c: (c.mbr.min_distance_point(query), c.cell_id),
            )
            best: List[Tuple[float, int, Any]] = []  # max-heap by -distance
            counter = 0
            for s_cell in order:
                cell_dist = s_cell.mbr.min_distance_point(query)
                if len(best) >= k and cell_dist > -best[0][0]:
                    break
                blocks_touched.add(s_cell.cell_id)
                s_block_reads += 1
                block = right_blocks[s_cell.cell_id]
                for d, row in RTree.from_shapes(block.records).knn(query, k):
                    found = block.records[row]
                    if len(best) < k:
                        heapq.heappush(best, (-d, counter, found))
                        counter += 1
                    elif d < -best[0][0]:
                        heapq.heappushpop(best, (-d, counter, found))
                        counter += 1
            rows.append((record, sorted((-nd, rec) for nd, _, rec in best)))
        s_blocks += len(blocks_touched)
    return rows, s_blocks, s_block_reads
