"""Cluster cost model: turns per-task work into a simulated makespan.

The simulator measures each task's actual CPU work (``time.process_time``
inside the task, so the measurement is identical whether the executor runs
tasks serially or across a real worker-process pool). The
:class:`ClusterModel` then *schedules* those task durations onto
``num_nodes`` identical nodes (greedy longest-processing-time list
scheduling, the same approximation Hadoop's scheduler achieves in practice)
and charges the fixed per-job overhead the papers emphasise when counting
MapReduce rounds. The result is a deterministic, hardware-independent
estimate of cluster wall-clock that preserves the evaluation's comparisons:
fewer blocks read -> fewer map tasks -> smaller makespan; single-reducer
merges serialise; extra rounds pay extra overhead. Real parallelism
(``JobRunner(workers=N)``) changes how fast the simulator itself finishes,
never the simulated makespan it reports.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Sequence


@dataclass
class TaskAttempt:
    """One attempt at running a task (fault-tolerance bookkeeping).

    ``outcome`` is one of ``success``, ``crash``, ``timeout``,
    ``corrupt``, ``worker-lost`` or ``speculative-lost``. ``backoff_s``
    is the simulated wait charged before this attempt started (zero for
    first attempts); ``speculative`` marks backup attempts launched for
    stragglers.
    """

    attempt: int
    outcome: str
    seconds: float = 0.0
    backoff_s: float = 0.0
    speculative: bool = False
    error: str = ""


@dataclass
class TaskStats:
    """Work attributed to one map or reduce task.

    ``seconds`` is the CPU charge of the *winning* attempt (the one whose
    output the job used). ``attempts`` records the full attempt history
    when anything interesting happened — retries, timeouts, speculation —
    and stays empty for the common clean single-attempt case. The runtime
    builds one per :class:`~repro.mapreduce.types.TaskResult` it merges.
    """

    task_id: str
    records_in: int = 0
    records_out: int = 0
    seconds: float = 0.0
    attempts: List[TaskAttempt] = field(default_factory=list)

    @property
    def num_attempts(self) -> int:
        return max(1, len(self.attempts))

    @property
    def was_retried(self) -> bool:
        """Did a non-speculative re-execution happen (i.e. a failure)?"""
        return sum(1 for a in self.attempts if not a.speculative) > 1

    def effective_seconds(self, io_seconds: float = 0.0) -> float:
        """Serial duration of this task on its original node.

        Failed attempts, their backoff waits, and the winning (or
        speculatively-lost) primary attempt all run back to back on one
        node, so they sum; speculative backups run *elsewhere* and are
        charged separately by the wave scheduler. ``io_seconds`` is the
        per-attempt I/O charge (re-reads happen on every retry).
        """
        attempts = [a for a in self.attempts if not a.speculative]
        if not attempts:
            return self.seconds + io_seconds
        return sum(a.backoff_s + a.seconds + io_seconds for a in attempts)

    def backup_seconds(self, io_seconds: float = 0.0) -> List[float]:
        """Durations of speculative backup attempts (usually 0 or 1)."""
        return [
            a.seconds + io_seconds for a in self.attempts if a.speculative
        ]


@dataclass
class ClusterModel:
    """Parameters of the simulated cluster.

    ``job_overhead_s`` models JVM/job startup (tens of seconds on real
    Hadoop; scaled here to stay proportionate to simulated task times).
    ``per_record_io_s`` adds a charge per record read from or written to the
    file system, modelling disk/network I/O that pure-CPU timing misses.
    ``per_shuffle_record_s`` charges the map->reduce network transfer.

    ``slow_nodes`` / ``slow_node_factor`` make the cluster heterogeneous:
    that many nodes run every task ``slow_node_factor``× slower. This is
    the regime where speculative execution pays off — a backup launched on
    a healthy node beats the straggling original. ``speculation_trigger``
    is the fraction of a wave that must finish before backups may start
    (Hadoop's "slow start" rule). The defaults (0 slow nodes) keep the
    model homogeneous and the scheduling bit-identical to plain LPT.
    """

    num_nodes: int = 25
    job_overhead_s: float = 0.5
    per_record_io_s: float = 1e-5
    per_shuffle_record_s: float = 2e-5
    slow_nodes: int = 0
    slow_node_factor: float = 1.0
    speculation_trigger: float = 0.25

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("a cluster needs at least one node")
        if self.slow_nodes < 0 or self.slow_nodes >= self.num_nodes:
            self.slow_nodes = max(0, min(self.slow_nodes, self.num_nodes - 1))
        if self.slow_node_factor < 1.0:
            raise ValueError("slow_node_factor must be >= 1")

    def schedule(self, task_seconds: Sequence[float]) -> float:
        """Makespan of greedy LPT scheduling on ``num_nodes`` machines."""
        if not task_seconds:
            return 0.0
        loads = [0.0] * min(self.num_nodes, len(task_seconds))
        heapq.heapify(loads)
        for duration in sorted(task_seconds, reverse=True):
            lightest = heapq.heappop(loads)
            heapq.heappush(loads, lightest + duration)
        return max(loads)

    def job_cost(
        self,
        map_tasks: Sequence[TaskStats],
        reduce_tasks: Sequence[TaskStats],
        shuffle_records: int = 0,
    ) -> dict:
        """Per-component simulated cost of one MapReduce job.

        Returns ``{"overhead", "map", "shuffle", "reduce", "total"}`` in
        seconds. The map wave and the reduce wave are serialised
        (reducers cannot finish before all maps complete), shuffle cost
        is charged between them, and the fixed job overhead is added
        once; ``total`` is their sum. The breakdown is what the job
        history and trace spans report, so skew diagnoses can say *which*
        component dominated.
        """
        cost = {
            "overhead": self.job_overhead_s,
            "map": self.wave_span(map_tasks),
            "shuffle": self.per_shuffle_record_s * shuffle_records,
            "reduce": self.wave_span(reduce_tasks),
        }
        cost["total"] = sum(cost.values())
        return cost

    def wave_span(self, tasks: Sequence[TaskStats]) -> float:
        """Simulated duration of one wave, fault history included.

        Each task's *effective* duration folds in retries and backoff
        (:meth:`TaskStats.effective_seconds`). On a homogeneous cluster
        (``slow_nodes == 0``) this reduces to plain LPT scheduling —
        bit-identical to the pre-fault-tolerance model when no task was
        retried — with speculative backups charged as extra parallel
        load (on identical nodes a backup can never win, only cost).
        On a heterogeneous cluster the wave is replayed task by task:
        tasks are assigned to the earliest-available node in wave order,
        slow nodes stretch their durations, and tasks with a recorded
        backup attempt get it launched on a healthy node once the
        speculation trigger fires; the task finishes when either copy
        does.
        """
        io = self.per_record_io_s

        def task_io(t: TaskStats) -> float:
            return io * (t.records_in + t.records_out)

        durations = [t.effective_seconds(task_io(t)) for t in tasks]
        backups = {
            i: min(secs)
            for i, t in enumerate(tasks)
            if (secs := t.backup_seconds(task_io(t)))
        }
        if self.slow_nodes <= 0:
            return self.schedule(durations + sorted(backups.values()))
        return self._heterogeneous_span(durations, backups)

    def _heterogeneous_span(
        self, durations: List[float], backups: dict
    ) -> float:
        """LPT replay on a cluster where some nodes are slow.

        Tasks are dispatched longest-first to the earliest-available
        node, with availability ties broken toward *slow* nodes (they
        carry the lowest indices). At time zero every node is idle, so
        the wave's longest tasks start on the slow nodes — the
        straggler scenario speculative execution exists for (a long
        task degraded further by a slow machine, cf. LATE). After
        ``speculation_trigger`` of the wave has finished, every task
        with a recorded backup attempt gets the backup started on a
        nominal-speed node; the task completes at the earlier of the
        two finish times. The backup's extra occupancy is deliberately
        not fed back into node availability — by the time backups
        launch the wave tail is draining and idle healthy nodes are
        plentiful, which is exactly when Hadoop schedules them.
        """
        if not durations:
            return 0.0
        num_nodes = min(self.num_nodes, len(durations))
        # Slow nodes take the lowest indices so they win heap ties.
        num_slow = min(self.slow_nodes, num_nodes - 1)
        ready = [(0.0, node) for node in range(num_nodes)]
        heapq.heapify(ready)
        finishes = [0.0] * len(durations)
        order = sorted(range(len(durations)),
                       key=lambda i: durations[i], reverse=True)
        for index in order:
            available, node = heapq.heappop(ready)
            factor = self.slow_node_factor if node < num_slow else 1.0
            finish = available + durations[index] * factor
            heapq.heappush(ready, (finish, node))
            finishes[index] = finish
        trigger_rank = max(0, min(len(finishes) - 1,
                                  int(len(finishes) * self.speculation_trigger)))
        trigger_time = sorted(finishes)[trigger_rank]
        for index, backup in backups.items():
            finishes[index] = min(finishes[index], trigger_time + backup)
        return max(finishes)

    def job_makespan(
        self,
        map_tasks: Sequence[TaskStats],
        reduce_tasks: Sequence[TaskStats],
        shuffle_records: int = 0,
    ) -> float:
        """Simulated wall-clock of one MapReduce job (see :meth:`job_cost`)."""
        return self.job_cost(map_tasks, reduce_tasks, shuffle_records)["total"]

    def serving_slots(self, tasks_per_query: int = 4) -> int:
        """Concurrent queries this cluster can admit without queueing.

        A query occupies roughly ``tasks_per_query`` node-slots while a
        wave of it runs, so the admission controller in
        :mod:`repro.serve` caps in-flight work at
        ``num_nodes // tasks_per_query`` (at least one). This is the
        same capacity notion Hadoop's scheduler pools express as "slots
        per job", collapsed to a single bound for the simulated service.
        """
        if tasks_per_query <= 0:
            raise ValueError("tasks_per_query must be positive")
        return max(1, self.num_nodes // tasks_per_query)
