"""Windowed load monitoring — the adaptive controller's eyes.

The paper's §4 rebalancing test (``IF (MOD(k,10).EQ.0 .AND.
rebalance())``) leaves ``rebalance()`` to the programmer; PR 1's
planner answers it offline from a static cost model.  The
:class:`LoadMonitor` is the online half: it ingests one *window* of
per-processor busy seconds at a time — measured from the live
machine's per-rank compute occupancy, or taken from a simulated
:class:`~repro.sim.clock.Timeline` via
:func:`~repro.sim.trace.windowed_imbalance` — and turns the raw
``max/mean`` imbalance into a drift verdict that is safe to act on:

- an **EWMA** smooths the per-window imbalance so one noisy window
  cannot trigger a redistribution;
- **hysteresis** splits the on/off thresholds (drift turns on above
  ``drift_threshold``, off only below ``drift_threshold -
  hysteresis``), so a signal hovering at the threshold cannot thrash
  the controller;
- a **cooldown** suppresses the drift verdict for a few windows after
  an acknowledged redistribution (:meth:`notify_replanned`), giving
  the new layout time to show up in the measurements before it can be
  second-guessed.  It defaults to 0 — the EWMA hysteresis alone damps
  thrash on the simulator's noise-free signals, and every suppressed
  window is a window the controller cannot react in; raise it for
  noisy live-backend measurements.

Note the one thing the monitor deliberately does *not* read: the
network's post-barrier clocks.  ``Network.synchronize()`` equalizes
all per-rank clocks, so end-of-step clock deltas carry no imbalance
information — callers must account per-rank busy *within* the window
(the controller's driver measures each rank's clock advance across its
compute call, before the workload model's barrier), exactly what the
``Timeline`` interval history records for simulated runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from ..sim.clock import Timeline

__all__ = ["WindowSample", "LoadMonitor"]


@dataclass(frozen=True)
class WindowSample:
    """One observed window: the busy vector and the derived signals."""

    index: int
    busy: tuple[float, ...]
    #: max/mean of ``busy`` (1.0 when the window carried no load)
    imbalance: float
    #: EWMA-smoothed imbalance after folding this window in
    ewma: float
    #: the hysteresis/cooldown-filtered drift verdict
    drifting: bool
    #: True while the post-replan cooldown suppressed the verdict
    in_cooldown: bool

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "busy": list(self.busy),
            "imbalance": self.imbalance,
            "ewma": self.ewma,
            "drifting": self.drifting,
            "in_cooldown": self.in_cooldown,
        }


def imbalance_of(busy: Sequence[float]) -> float:
    """``max/mean`` of a per-processor busy vector (1.0 for no load —
    the :meth:`~repro.sim.clock.Timeline.imbalance` convention)."""
    busy = list(busy)
    if not busy:
        raise ValueError("busy vector must have at least one processor")
    mean = sum(busy) / len(busy)
    if mean <= 0.0:
        return 1.0
    return max(busy) / mean


class LoadMonitor:
    """EWMA drift detector over windowed per-processor busy signals."""

    def __init__(
        self,
        nprocs: int,
        *,
        alpha: float = 0.6,
        drift_threshold: float = 1.1,
        hysteresis: float = 0.05,
        cooldown: int = 0,
    ):
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        if not (0.0 < alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if drift_threshold < 1.0:
            raise ValueError(
                f"drift_threshold is a max/mean ratio and must be >= 1.0, "
                f"got {drift_threshold}"
            )
        if hysteresis < 0.0:
            raise ValueError(f"hysteresis must be >= 0, got {hysteresis}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        self.nprocs = int(nprocs)
        self.alpha = float(alpha)
        self.drift_threshold = float(drift_threshold)
        self.hysteresis = float(hysteresis)
        self.cooldown = int(cooldown)
        self.samples: list[WindowSample] = []
        self._ewma = 1.0  # perfect balance until told otherwise
        self._drifting = False
        self._cooldown_left = 0

    # -- observation -------------------------------------------------------
    def observe(self, busy: Sequence[float]) -> WindowSample:
        """Fold one window's per-processor busy seconds into the
        detector; returns the sample with the filtered verdict."""
        busy = tuple(float(b) for b in busy)
        if len(busy) != self.nprocs:
            raise ValueError(
                f"busy vector has {len(busy)} entries, monitor watches "
                f"{self.nprocs} processors"
            )
        imb = imbalance_of(busy)
        self._ewma = self.alpha * imb + (1.0 - self.alpha) * self._ewma
        # hysteresis: enter above the threshold, leave only below the
        # threshold minus the band — a signal sitting at the threshold
        # cannot flip the verdict back and forth
        if self._drifting:
            if self._ewma < self.drift_threshold - self.hysteresis:
                self._drifting = False
        elif self._ewma > self.drift_threshold:
            self._drifting = True
        in_cooldown = self._cooldown_left > 0
        if in_cooldown:
            self._cooldown_left -= 1
        sample = WindowSample(
            index=len(self.samples),
            busy=busy,
            imbalance=imb,
            ewma=self._ewma,
            drifting=self._drifting and not in_cooldown,
            in_cooldown=in_cooldown,
        )
        self.samples.append(sample)
        return sample

    def observe_timeline(
        self, timeline: "Timeline", windows: int = 8
    ) -> list[WindowSample]:
        """Feed a simulated timeline through the detector, one equal
        time bin at a time (the :func:`~repro.sim.trace.windowed_imbalance`
        series is the oracle for the per-window busy vectors)."""
        from ..sim.trace import windowed_imbalance

        return [
            self.observe(w["busy"])
            for w in windowed_imbalance(timeline, windows=windows)
        ]

    # -- controller hooks --------------------------------------------------
    def notify_replanned(self) -> None:
        """The controller redistributed: suppress the drift verdict for
        ``cooldown`` windows so the new layout can be measured before
        it is judged."""
        self._cooldown_left = self.cooldown
        self._drifting = False

    # -- inspection --------------------------------------------------------
    @property
    def latest(self) -> WindowSample | None:
        return self.samples[-1] if self.samples else None

    @property
    def ewma(self) -> float:
        return self._ewma

    def streak(self, threshold: float) -> int:
        """Trailing consecutive windows whose raw imbalance exceeded
        ``threshold`` — the ``k``-windows condition of threshold rules."""
        n = 0
        for sample in reversed(self.samples):
            if sample.imbalance > threshold:
                n += 1
            else:
                break
        return n

    def imbalance_series(self) -> list[float]:
        return [s.imbalance for s in self.samples]

    def __repr__(self) -> str:
        return (
            f"LoadMonitor(nprocs={self.nprocs}, windows={len(self.samples)}, "
            f"ewma={self._ewma:.3f}, drifting={self._drifting})"
        )
