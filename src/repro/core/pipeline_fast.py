"""Closed-form replay of the three-stage serving pipeline.

The DES path in :mod:`repro.core.pipeline_sim` spawns three generator
processes per batch; a 200-query load sweep costs thousands of heap
pushes per evaluated load, so the *simulator* dominates the wall clock
of every latency-vs-load curve and SLA bisection.  This module replays
the same structure in closed form: with unit-capacity stage servers
and sorted arrivals, each stage is the max-plus recurrence

    start[i]  = max(arrival[i], finish[i - 1])
    finish[i] = start[i] + duration[i]

computed with ``np.add.accumulate`` scans over whole arrival arrays
(:func:`serve_chain`), and the top stage's service order is the stable
sort of the per-batch ready times ``max(emb_done, bot_done)``.

Exactness mirrors the lookup fast path (``repro.ssd.fastpath``):

* ``Server.serve`` computes ``finish = max(now, free_at) + duration``
  but resumes the caller at ``now + (finish - now)`` — the replay
  tracks both quantities instead of assuming the round trip is exact.
* Sequential float accumulation (back-to-back server finishes) is
  replayed with ``np.add.accumulate`` or an explicit left-to-right
  loop, never with closed-form multiplication.
* DES tie-breaking is positional: stage calls happen in batch-index
  order on equal arrivals, and top-stage service order is ``(ready
  time, batch index)`` — exactly what a stable argsort reproduces.

Stage-time callables are evaluated in the same global order as the
DES (``emb(0), bot(0), emb(1), bot(1), ...`` then ``top`` in service
order), so index-pure jitter callables — the documented contract —
replay bit for bit.  Constant stage times (the serving path) skip the
evaluation loop outright.  ``RMSSD_FASTPATH=0`` (the same flag as the
lookup fast path) falls back to the DES; see ``docs/performance.md``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.obs import names
from repro.sim import Server, Simulator
from repro.ssd import fastpath

#: Below this many jobs a plain Python loop beats the numpy scan
#: (array setup dominates); both are bitwise-identical by design.
VECTOR_MIN_JOBS = 64


def resolve_fast(fast: Optional[bool]) -> bool:
    """``fast=`` kwarg resolution: explicit wins, then ``RMSSD_FASTPATH``."""
    if fast is not None:
        return bool(fast)
    return fastpath.enabled()


def serve_step(arrival: float, duration: float, free: float) -> Tuple[float, float]:
    """One ``Server.serve`` call: ``(start, finish)`` of a job offered
    at ``arrival`` to a server free at ``free``.

    ``start = max(now, free_at)``; ``max()`` keeps its first argument
    on ties, so the comparison is spelled the same way.  Every scalar
    replay of the stage recurrence goes through here.
    """
    start = arrival if arrival >= free else free
    return start, start + duration


def serve_chain(
    arrivals: np.ndarray,
    durations: np.ndarray,
    free0: float = 0.0,
    vectorized: Optional[bool] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Replay sequential ``Server.serve`` calls at sorted ``arrivals``.

    Returns ``(starts, finishes)`` with ``start[i] = max(arrival[i],
    finish[i - 1])`` (``finish[-1] = free0``), every float op in the
    exact order the DES performs it.  ``vectorized=None`` picks the
    scan only for :data:`VECTOR_MIN_JOBS`-sized chains that are
    *backlogged* (offered work >= the arrival span, so the chain is a
    few long busy runs — one ``np.add.accumulate`` each); a lightly
    loaded chain alternates idle/busy regions every few jobs, where
    the per-region numpy call overhead loses to the reference loop.
    Both produce identical bits, so dispatch is pure performance.
    """
    t = np.ascontiguousarray(arrivals, dtype=np.float64)
    d = np.ascontiguousarray(durations, dtype=np.float64)
    if t.shape != d.shape:
        raise ValueError("one duration per arrival required")
    if vectorized is None:
        vectorized = t.size >= VECTOR_MIN_JOBS and (
            t.size < 2 or float(np.sum(d)) >= float(t[-1] - t[0])
        )
    if vectorized:
        return _serve_chain_scan(t, d, float(free0))
    return _serve_chain_loop(t, d, float(free0))


def _serve_chain_loop(
    t: np.ndarray, d: np.ndarray, free: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Reference left-to-right replay: one :func:`serve_step` per job.

    Collects Python lists and converts once: per-element numpy stores
    would cost more than the step itself.
    """
    starts = []
    finishes = []
    for arrival, duration in zip(t.tolist(), d.tolist()):
        start, free = serve_step(arrival, duration, free)
        starts.append(start)
        finishes.append(free)
    return (
        np.array(starts, dtype=np.float64),
        np.array(finishes, dtype=np.float64),
    )


def _serve_chain_scan(
    t: np.ndarray, d: np.ndarray, free: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Region-decomposed scan, bitwise-equal to the loop.

    The chain alternates *idle runs* (each job starts at its own
    arrival: ``start = t[k]``, vectorized elementwise) and *busy runs*
    (each job starts at its predecessor's finish: one
    ``np.add.accumulate`` per run, grown in doubling blocks so a fully
    saturated chain costs one scan).  Region boundaries use the same
    strict comparisons as ``max(now, free_at)``, so ties land in the
    busy branch exactly as the DES's ``max`` does.
    """
    n = t.size
    starts = np.empty(n, dtype=np.float64)
    finishes = np.empty(n, dtype=np.float64)
    # Finish of job k if it starts idle (at its own arrival) — also
    # the run-extension test: job k+1 stays idle iff it arrives
    # strictly after idle_finish[k].
    idle_finish = t + d
    idle_next = t[1:] > idle_finish[:-1] if n > 1 else np.empty(0, dtype=bool)
    i = 0
    while i < n:
        if t[i] > free:
            # Idle run [i, j): every job starts at its own arrival.
            rel = idle_next[i : n - 1]
            first_busy = int(np.argmin(rel)) if rel.size else 0
            if rel.size and rel[first_busy]:
                first_busy = rel.size  # all remaining transitions idle
            j = i + 1 + first_busy
            starts[i:j] = t[i:j]
            finishes[i:j] = idle_finish[i:j]
            free = float(idle_finish[j - 1])
            i = j
            continue
        # Busy run from base ``free``: finishes are the prefix sums of
        # [free, d[i], d[i+1], ...]; extend in doubling blocks until a
        # job arrives strictly after its predecessor's finish.
        j = i
        prev = free
        block = 32
        while True:
            hi = min(n, j + block)
            segment = np.empty(hi - j + 1, dtype=np.float64)
            segment[0] = prev
            segment[1:] = d[j:hi]
            acc = np.add.accumulate(segment)
            # acc[m] is both finish[j + m - 1] and start[j + m].
            if hi > j + 1:
                breaks = t[j + 1 : hi] > acc[1 : hi - j]
                cut = int(np.argmax(breaks)) if breaks.any() else -1
            else:
                cut = -1
            if cut >= 0:
                stop = j + 1 + cut
                width = stop - j
                starts[j:stop] = acc[:width]
                finishes[j:stop] = acc[1 : width + 1]
                free = float(acc[width])
                i = stop
                break
            starts[j:hi] = acc[: hi - j]
            finishes[j:hi] = acc[1:]
            prev = float(acc[-1])
            j = hi
            if j >= n or t[j] > prev:
                free = prev
                i = j
                break
            block *= 2
    return starts, finishes


def _record_stage_services(
    profiler,
    server: Server,
    arrivals: np.ndarray,
    starts: np.ndarray,
    finishes: np.ndarray,
) -> None:
    """Profiler triples for one stage, as ``Server.serve`` records them.

    The arrays are in this stage's DES service order (batch-index
    order for emb/bot, ready order for top), so each per-name triple
    list — and therefore the exported profile — is byte-identical.
    """
    for arrival, start, finish in zip(
        arrivals.tolist(), starts.tolist(), finishes.tolist()
    ):
        profiler.record_service(server.name, arrival, start, finish, server.kind)


def replay_serving(
    emb_fn,
    bot_fn,
    top_fn,
    arrivals: Sequence[float],
    profiler=None,
) -> Tuple[np.ndarray, float]:
    """Replay ``PipelineSimulator.run``'s DES in closed form.

    ``emb_fn``/``bot_fn``/``top_fn`` are per-batch stage times: either
    callables of the batch index or plain numbers.  Constants skip the
    per-index evaluation loop entirely (``np.full``) — with no
    callable there is no observable evaluation order, so the skip is
    bitwise-invisible and saves ~3n Python calls per replay.

    Returns ``(timeline, makespan_ns)`` where ``timeline`` is an
    ``(n, 6)`` array of ``emb_start, emb_done, bot_start, bot_done,
    top_start, top_done`` per batch — the same floats the DES writes
    into each :class:`~repro.core.pipeline_sim.BatchRecord`.
    """
    t = np.ascontiguousarray(arrivals, dtype=np.float64)
    n = t.size
    # Flows bootstrap at clock 0, so a batch can never be served
    # before t=0 even if its nominal arrival is negative.
    t_call = np.maximum(t, 0.0)

    if callable(emb_fn) or callable(bot_fn):
        emb_of = emb_fn if callable(emb_fn) else (lambda _i, _v=float(emb_fn): _v)
        bot_of = bot_fn if callable(bot_fn) else (lambda _i, _v=float(bot_fn): _v)
        emb = np.empty(n, dtype=np.float64)
        bot = np.empty(n, dtype=np.float64)
        for index in range(n):
            # DES evaluation order: emb then bot, per batch, at arrival.
            emb[index] = emb_of(index)
            bot[index] = bot_of(index)
    else:
        emb = np.full(n, float(emb_fn))
        bot = np.full(n, float(bot_fn))
    if np.any(emb < 0):
        raise ValueError("negative service duration")

    # Embedding stage: always served, even zero-length jobs.
    emb_start, emb_finish = serve_chain(t_call, emb)
    emb_done = t_call + (emb_finish - t_call)

    # Bottom stage: only positive durations touch the server; the
    # others complete instantly at the batch's service clock.
    bot_start = t_call.copy()
    bot_done = t_call.copy()
    served_bot = np.flatnonzero(bot > 0)
    bot_chain_start = bot_chain_finish = None
    if served_bot.size:
        tb = t_call[served_bot]
        bot_chain_start, bot_chain_finish = serve_chain(tb, bot[served_bot])
        bot_start[served_bot] = bot_chain_start
        bot_done[served_bot] = tb + (bot_chain_finish - tb)

    # Top stage: ready when both predecessors are done; the DES serves
    # in (ready time, batch index) order — a stable sort.
    ready = np.maximum(emb_done, bot_done)
    order = np.argsort(ready, kind="stable")
    if callable(top_fn):
        top = np.empty(n, dtype=np.float64)
        for index in order.tolist():
            top[index] = top_fn(index)
    else:
        top = np.full(n, float(top_fn))
    top_start = ready.copy()
    top_done = ready.copy()
    ready_sorted = ready[order]
    served_mask = top[order] > 0
    served_top = order[served_mask]
    top_chain_start = top_chain_finish = ready_served = None
    if served_top.size:
        ready_served = ready_sorted[served_mask]
        top_chain_start, top_chain_finish = serve_chain(
            ready_served, top[served_top]
        )
        top_start[served_top] = top_chain_start
        top_done[served_top] = ready_served + (top_chain_finish - ready_served)

    if profiler is not None and profiler.enabled:
        # Throwaway servers carry the catalogue name/kind pair each
        # stage's triples are recorded under; the replay never serves
        # through them (state effects are not observable on the DES
        # path either — its servers die with its Simulator).
        sim = Simulator()
        emb_server = Server(sim, names.STAGE_EMB)
        bot_server = Server(sim, names.STAGE_BOT)
        top_server = Server(sim, names.STAGE_TOP)
        _record_stage_services(profiler, emb_server, t_call, emb_start, emb_finish)
        if served_bot.size:
            _record_stage_services(
                profiler, bot_server, t_call[served_bot], bot_chain_start,
                bot_chain_finish,
            )
        if served_top.size:
            _record_stage_services(
                profiler, top_server, ready_served, top_chain_start,
                top_chain_finish,
            )

    timeline = np.column_stack(
        (emb_start, emb_done, bot_start, bot_done, top_start, top_done)
    )
    makespan = float(top_done.max()) if n else 0.0
    return timeline, makespan
