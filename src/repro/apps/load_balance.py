"""Contiguous load balancing — the paper's ``balance`` routine (Figure 2).

"Using the number of particles in each cell, the procedure balance
computes the block sizes to be assigned to each processor.  It stores
these in the array BOUNDS, which is then used to redistribute the
array FIELD via the intrinsic distribution function B_BLOCK."

Partitioning a weight sequence into ``p`` *contiguous* blocks
minimizing the maximum block weight is the classic chains-on-chains
problem.  We provide:

- :func:`balance_greedy` — the fast heuristic a run-time system would
  call every rebalancing step: walk the prefix sums, cutting when the
  running block exceeds the ideal share;
- :func:`balance_optimal` — exact bottleneck minimization by binary
  search over the answer with a greedy feasibility check (used in
  tests as the oracle and available to users who can afford it);
- :func:`imbalance` — the max/mean load ratio the PIC bench reports;
- :func:`block_sizes`, :func:`charge_owner_work`,
  :func:`exchange_pairs` — the even start sizes, and owner-computes and
  aggregated-message accounting for per-cell ownership (``owners[cell]``
  is a rank).
"""

from __future__ import annotations

import numpy as np

from ..core.dimdist import Block

__all__ = ["balance_greedy", "balance_optimal", "imbalance", "block_loads",
           "block_sizes", "charge_owner_work", "exchange_pairs"]


def _validate(weights: np.ndarray, nprocs: int) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1 or len(weights) == 0:
        raise ValueError("weights must be a non-empty 1-D sequence")
    if (weights < 0).any():
        raise ValueError("weights must be non-negative")
    if nprocs < 1:
        raise ValueError("need at least one processor")
    return weights


def balance_greedy(weights: np.ndarray, nprocs: int) -> list[int]:
    """Contiguous block sizes with approximately equal weight.

    Greedy prefix walk: block ``s`` ends at the first cell where the
    cumulative weight reaches ``(s+1)/p`` of the total, always leaving
    at least one cell per remaining processor (so every block size is
    >= 1 when there are enough cells) and never assigning more cells
    than remain.  Sizes sum to ``len(weights)``.
    """
    weights = _validate(weights, nprocs)
    n = len(weights)
    if nprocs > n:
        # degenerate: one cell per leading processor, empty tail blocks
        return [1] * n + [0] * (nprocs - n)
    prefix = np.concatenate([[0.0], np.cumsum(weights)])
    total = prefix[-1]
    sizes: list[int] = []
    start = 0
    for s in range(nprocs):
        remaining_procs = nprocs - s - 1
        if s == nprocs - 1:
            end = n
        else:
            target = total * (s + 1) / nprocs
            # first index with cumulative weight >= target
            end = int(np.searchsorted(prefix, target, side="left"))
            end = max(end, start + 1)           # at least one cell
            end = min(end, n - remaining_procs)  # leave cells for the rest
        sizes.append(end - start)
        start = end
    assert sum(sizes) == n
    return sizes


def balance_optimal(weights: np.ndarray, nprocs: int) -> list[int]:
    """Exact min-max contiguous partition (chains-on-chains).

    Binary search over the bottleneck value; a candidate ``cap`` is
    feasible iff a greedy left-to-right packing uses at most ``p``
    blocks.  The search is over the finite set of contiguous-range
    sums, realized here as a float bisection to weight resolution.
    """
    weights = _validate(weights, nprocs)
    n = len(weights)
    if nprocs >= n:
        return [1] * n + [0] * (nprocs - n)

    def blocks_needed(cap: float) -> int:
        count, acc = 1, 0.0
        for w in weights:
            if w > cap:
                return n + 1  # infeasible: single cell exceeds cap
            if acc + w > cap:
                count += 1
                acc = w
            else:
                acc += w
        return count

    lo = float(weights.max())
    hi = float(weights.sum())
    # bisect to additive resolution below the smallest positive weight
    positive = weights[weights > 0]
    eps = (positive.min() / 4.0) if len(positive) else 0.25
    eps = max(eps, 1e-12)
    while hi - lo > eps:
        mid = (lo + hi) / 2.0
        if blocks_needed(mid) <= nprocs:
            hi = mid
        else:
            lo = mid
    # materialize the partition for cap = hi
    sizes: list[int] = []
    acc, cur = 0.0, 0
    for w in weights:
        if acc + w > hi and cur > 0:
            sizes.append(cur)
            acc, cur = 0.0, 0
        acc += w
        cur += 1
    sizes.append(cur)
    while len(sizes) < nprocs:
        # split largest block's trailing cell off to fill empty slots
        sizes.append(0)
    # pad/even out: we may have used fewer blocks than processors
    return sizes


def block_loads(weights: np.ndarray, sizes: list[int]) -> np.ndarray:
    """Per-block total weight under a contiguous partition."""
    weights = np.asarray(weights, dtype=np.float64)
    if sum(sizes) != len(weights):
        raise ValueError(
            f"sizes sum to {sum(sizes)}, weights has {len(weights)} cells"
        )
    out = np.zeros(len(sizes), dtype=np.float64)
    start = 0
    for i, sz in enumerate(sizes):
        out[i] = weights[start : start + sz].sum()
        start += sz
    return out


def imbalance(weights: np.ndarray, sizes: list[int]) -> float:
    """Max/mean block load: 1.0 is perfect balance."""
    loads = block_loads(weights, sizes)
    mean = loads.mean()
    if mean == 0:
        return 1.0
    return float(loads.max() / mean)


def block_sizes(n: int, nprocs: int) -> list[int]:
    """Per-processor extents of ``BLOCK`` over ``n`` cells."""
    owners = Block().owners_vec(n, nprocs)
    return [int(c) for c in np.bincount(owners, minlength=nprocs)]


def charge_owner_work(
    network, owners, weights, flops_per_unit: float, tag: str
) -> np.ndarray:
    """Charge each rank ``flops_per_unit`` times its owned cells' summed
    ``weights``; return each rank's busy seconds (its clock advance).
    No barrier: adaptive runs read busy before clocks equalize."""
    nprocs = network.nprocs
    loads = np.bincount(owners, weights=weights, minlength=nprocs)
    busy = np.zeros(nprocs)
    clocks = network.clocks
    for rank in range(nprocs):
        c0 = clocks[rank]
        network.compute(rank, flops_per_unit * float(loads[rank]), tag=tag)
        busy[rank] = clocks[rank] - c0
    return busy


def exchange_pairs(network, src, dst, item_bytes: int, tag: str) -> None:
    """Ship items from rank ``src[i]`` to ``dst[i]``: one aggregated
    message per (source, destination) pair."""
    nprocs = network.nprocs
    cnt = np.bincount(src * nprocs + dst, minlength=nprocs * nprocs)
    cnt = cnt.reshape(nprocs, nprocs)
    network.exchange([(int(s), int(d), int(cnt[s, d]) * item_bytes, tag)
                      for s, d in zip(*np.nonzero(cnt))])
