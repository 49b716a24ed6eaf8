"""Per-processor clocks, busy/idle intervals, and the Timeline result.

The aggregate cost accounting of :mod:`repro.machine.network` keeps
one scalar clock per processor; the simulator additionally keeps the
*history* — a list of :class:`Interval` records per processor saying
when the processor was computing, communicating, posting a split-phase
message, or idling — so load imbalance, idle time and overlap become
first-class, reportable quantities instead of being folded into one
number.

Every busy interval optionally carries a causal predecessor link
(``pred``, a ``(rank, index)`` pair): the interval whose completion
enabled this one to start.  :mod:`repro.sim.critical_path` walks these
links backward from the makespan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Interval", "ProcClock", "Timeline", "BUSY_KINDS"]

#: interval kinds that count as *busy* (occupying the processor);
#: ``"wait"`` intervals are idle time with a known cause.
BUSY_KINDS = ("compute", "comm", "post")


@dataclass
class Interval:
    """One contiguous activity of a single processor.

    ``kind`` is ``"compute"`` (kernel), ``"comm"`` (blocking message
    occupancy), ``"post"`` (split-phase message post overhead) or
    ``"wait"`` (idle, blocked on ``pred``).
    """

    start: float
    end: float
    kind: str
    tag: str = ""
    pred: tuple[int, int] | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "start": self.start,
            "end": self.end,
            "kind": self.kind,
            "tag": self.tag,
            "pred": list(self.pred) if self.pred is not None else None,
        }


class ProcClock:
    """One processor's simulated clock plus its interval history.

    The clock arithmetic deliberately mirrors
    :class:`~repro.machine.network.Network` operation by operation —
    ``occupy`` is ``clocks[r] += cost``, ``advance_to`` is the
    ``max()`` assignment — so a blocking replay reproduces the
    network's floats bit for bit.
    """

    def __init__(self, rank: int):
        self.rank = rank
        self.time = 0.0
        self.intervals: list[Interval] = []

    # -- clock mutation --------------------------------------------------
    def occupy(
        self,
        duration: float,
        kind: str,
        tag: str = "",
        pred: tuple[int, int] | None = None,
    ) -> tuple[int, int]:
        """Busy the processor for ``duration`` starting now; returns
        the new interval's ``(rank, index)`` handle."""
        start = self.time
        self.time += duration
        self.intervals.append(Interval(start, self.time, kind, tag, pred))
        return (self.rank, len(self.intervals) - 1)

    def advance_to(
        self,
        t: float,
        tag: str = "",
        pred: tuple[int, int] | None = None,
    ) -> tuple[int, int] | None:
        """Idle until ``t`` (no-op if already past); records a
        ``"wait"`` interval for a positive gap."""
        if t > self.time:
            self.intervals.append(Interval(self.time, t, "wait", tag, pred))
            self.time = t
            return (self.rank, len(self.intervals) - 1)
        return None

    def occupy_until(
        self,
        end: float,
        duration: float,
        kind: str,
        tag: str = "",
        pred: tuple[int, int] | None = None,
    ) -> tuple[int, int]:
        """Busy interval ``[end - duration, end]`` with the clock set
        to ``end`` — the receiving endpoint of a blocking send, whose
        completion is coupled to the sender (``end`` may exceed the
        local clock plus ``duration``)."""
        # ``end - duration`` can round an ulp below the local clock; an
        # interval must not start before the previous one ended
        start = max(self.time, end - duration)
        if start > self.time:
            # the gap before the transfer engaged this endpoint
            self.intervals.append(Interval(self.time, start, "wait", tag, pred))
        self.intervals.append(Interval(start, end, kind, tag, pred))
        self.time = end
        return (self.rank, len(self.intervals) - 1)

    # -- inspection ------------------------------------------------------
    @property
    def last(self) -> tuple[int, int] | None:
        """Handle of the most recent interval (None if empty)."""
        if not self.intervals:
            return None
        return (self.rank, len(self.intervals) - 1)

    def busy(self, kinds: tuple[str, ...] = BUSY_KINDS) -> float:
        return sum(iv.duration for iv in self.intervals if iv.kind in kinds)

    def busy_by_kind(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for iv in self.intervals:
            out[iv.kind] = out.get(iv.kind, 0.0) + iv.duration
        return out


@dataclass
class Timeline:
    """The simulator's result: per-processor histories plus metrics.

    ``barriers`` lists the synchronization times of every *executed*
    barrier; ``relaxed`` counts the barriers the split-phase transform
    removed (always 0 in blocking mode).
    """

    nprocs: int
    cost_model: str
    overlap: bool
    procs: list[ProcClock]
    barriers: list[float] = field(default_factory=list)
    relaxed: int = 0

    # -- headline quantities ---------------------------------------------
    @property
    def clocks(self) -> list[float]:
        return [p.time for p in self.procs]

    @property
    def makespan(self) -> float:
        """Max-clock finish time — the quantity the aggregate cost
        accounting calls ``machine.time``."""
        return max(p.time for p in self.procs)

    def busy(self, rank: int) -> float:
        return self.procs[rank].busy()

    def idle(self, rank: int) -> float:
        return self.makespan - self.procs[rank].busy()

    @property
    def total_busy(self) -> float:
        return sum(p.busy() for p in self.procs)

    def imbalance(self) -> float:
        """Max over mean per-processor busy time (1.0 = perfect)."""
        per = [p.busy() for p in self.procs]
        mean = sum(per) / len(per)
        if mean == 0.0:
            return 1.0
        return max(per) / mean

    def efficiency(self) -> float:
        """Fraction of processor-seconds spent busy (1.0 = no idle)."""
        span = self.makespan
        if span == 0.0:
            return 1.0
        return self.total_busy / (span * self.nprocs)

    def metrics(self) -> dict:
        """Flat metric record for reports, benches and JSON export."""
        by_kind: dict[str, float] = {}
        for p in self.procs:
            for k, v in p.busy_by_kind().items():
                by_kind[k] = by_kind.get(k, 0.0) + v
        return {
            "nprocs": self.nprocs,
            "cost_model": self.cost_model,
            "overlap": self.overlap,
            "makespan": self.makespan,
            "total_busy": self.total_busy,
            "compute_time": by_kind.get("compute", 0.0),
            "comm_time": by_kind.get("comm", 0.0) + by_kind.get("post", 0.0),
            "wait_time": by_kind.get("wait", 0.0),
            "idle_time": self.makespan * self.nprocs - self.total_busy,
            "imbalance": self.imbalance(),
            "efficiency": self.efficiency(),
            "barriers": len(self.barriers),
            "relaxed_barriers": self.relaxed,
        }

    def summary(self) -> str:
        """One-paragraph timeline summary."""
        m = self.metrics()
        mode = "split-phase" if self.overlap else "blocking"
        return (
            f"{self.nprocs} processors ({self.cost_model}, {mode}): "
            f"makespan {m['makespan'] * 1e3:.3f} ms, busy "
            f"{m['total_busy'] * 1e3:.3f} ms "
            f"(compute {m['compute_time'] * 1e3:.3f}, comm "
            f"{m['comm_time'] * 1e3:.3f}), idle "
            f"{m['idle_time'] * 1e3:.3f} ms, efficiency "
            f"{m['efficiency']:.2f}, imbalance {m['imbalance']:.2f}x, "
            f"{m['barriers']} barriers"
            + (f" ({m['relaxed_barriers']} relaxed)" if self.overlap else "")
        )
