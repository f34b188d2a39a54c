"""Epoch-to-epoch workload drift.

The continuous-placement loop (:mod:`repro.simulator.continuous`) replays
one trace per epoch; this module generates those traces with *drift* — the
demand a placement was optimized for slowly stops being the demand it
serves, which is what forces re-placement (and hence migration traffic)
in long-running systems:

* **popularity drift** — the Zipf rank order rotates a little each epoch,
  so yesterday's hot objects cool off and new ones heat up;
* **locality drift** — per-node demand weights blend toward a rotated copy
  of themselves, so the geographic hotspot wanders across sites.

``drift`` in ``[0, 1]`` scales both: 0 reproduces the same workload every
epoch (placement converges, migration goes to zero), 1 decorrelates
adjacent epochs almost completely.  Everything is deterministic in
``seed``: epoch ``e`` draws from substream ``seed + 7919 * e``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.workload.generators import WorkloadSpec, synthetic_workload
from repro.workload.trace import Trace
from repro.workload.zipf import zipf_weights


def drifting_traces(
    num_nodes: int,
    num_objects: int,
    *,
    epochs: int,
    epoch_s: float,
    requests_per_epoch: int,
    drift: float = 0.25,
    zipf_exponent: float = 0.9,
    populations: Optional[Sequence[float]] = None,
    write_fraction: float = 0.0,
    seed: int = 0,
    name: str = "drift",
) -> List[Trace]:
    """One trace per epoch with drifting popularity and locality.

    Parameters
    ----------
    epochs / epoch_s / requests_per_epoch:
        Number of epochs, the length of each, and the request volume per
        epoch (volume is held constant; only *where* demand points drifts).
    drift:
        Per-epoch drift intensity in ``[0, 1]``; rotates the popularity
        ranking by ``round(drift * num_objects)`` objects and blends node
        weights ``(1 - drift) * w + drift * roll(w, 1)`` each epoch.
    zipf_exponent:
        Popularity skew (0 = uniform).
    populations:
        Epoch-0 per-node demand weights (uniform when omitted).
    """
    if epochs < 1:
        raise ValueError("need at least one epoch")
    if not 0.0 <= drift <= 1.0:
        raise ValueError("drift must be in [0, 1]")
    if requests_per_epoch < 1:
        raise ValueError("need at least one request per epoch")
    weights = zipf_weights(num_objects, zipf_exponent)
    pops = (
        np.ones(num_nodes, dtype=float)
        if populations is None
        else np.asarray(populations, dtype=float).copy()
    )
    if pops.shape != (num_nodes,):
        raise ValueError("populations must have one entry per node")
    rank_shift = int(round(drift * num_objects))
    traces: List[Trace] = []
    rank_of = np.arange(num_objects)
    for epoch in range(epochs):
        counts = np.round(
            weights[rank_of] / weights.sum() * requests_per_epoch
        ).astype(np.int64)
        spec = WorkloadSpec(
            num_nodes=num_nodes,
            num_objects=num_objects,
            counts=counts,
            populations=pops.copy(),
            duration_s=epoch_s,
            write_fraction=write_fraction,
            seed=seed + 7919 * epoch,
            name=f"{name}[{epoch}]",
        )
        traces.append(synthetic_workload(spec))
        rank_of = (rank_of + rank_shift) % num_objects
        pops = (1.0 - drift) * pops + drift * np.roll(pops, 1)
    return traces


def epoch_slices(trace: Trace, epoch_s: float) -> List[Trace]:
    """Cut one long trace into epoch-length traces rebased at t=0.

    The inverse convenience of :func:`drifting_traces` for measured traces:
    feeds an existing workload through the continuous loop without
    resynthesizing it.  The final epoch may be shorter than ``epoch_s``.
    """
    if epoch_s <= 0:
        raise ValueError("epoch length must be positive")
    times, nodes, objects, writes = trace.columns
    traces: List[Trace] = []
    start = 0.0
    index = 0
    while start < trace.duration_s:
        end = min(start + epoch_s, trace.duration_s)
        lo, hi = np.searchsorted(times, [start, end]).tolist()
        traces.append(
            Trace.from_columns(
                (times[lo:hi] - start, nodes[lo:hi], objects[lo:hi], writes[lo:hi]),
                duration_s=end - start,
                num_nodes=trace.num_nodes,
                num_objects=trace.num_objects,
                name=f"{trace.name}[{index}]",
            )
        )
        start = end
        index += 1
    return traces
