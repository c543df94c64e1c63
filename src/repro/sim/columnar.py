"""Columnar numpy simulation backend with a scalar-oracle exactness contract.

The scalar simulator replays a trace one access at a time.  This module
replays the *same* trace as structure-of-arrays numpy kernels and is
required to be **bit-for-bit identical** to the scalar path: same
:class:`~repro.common.stats.CacheStats`, same run-manifest hash, same
windowed metrics series, same final cache state (up to physical way
labels, which no observable surface exposes), same RNG stream.  The
scalar path stays the oracle; the columnar path is an optimisation that
must never be distinguishable through results (DESIGN.md §13).

Only schemes with a proven-exact kernel run columnar.  Today that is
exactly one: a pure-LRU :class:`~repro.cache.basecache.SetAssociativeCache`
with no tracer, no eviction listener and no fault injector.  LRU is
special because its state has *bounded history* — the resident blocks
of a set are its ``A`` most-recently-touched distinct tags — which lets
time itself be parallelised (see :func:`_build_plan`).  Every other
scheme (BIP/DIP/DRRIP/Random draw from one global RNG whose draw order
serialises the stream; FIFO/LIP residency depends on unbounded
miss/insertion history; STEM adds cross-set spills) falls back to the
scalar path transparently — ``RunOptions(backend="numpy")`` is a
request, not a demand.

The kernel: each set's access stream is cut into segments of
:data:`_SEGMENT` accesses.  A segment simulated from an *empty* set is
exact provided its lookback window ``[l, a)`` contains at least ``A``
distinct tags (then the sim's resident set at ``a`` provably equals the
real one: the ``A`` most recent distinct tags, with exact last-touch
keys) or ``l == 0``.  Segments whose window shows ``<= A`` distinct
tags and no tag older than the window are *static all-hit lanes*:
every access provably hits and evicts nothing, so they need no
simulation at all.  The remaining lanes — thousands of them — run in
lockstep rounds of contiguous array ops.  Dirty bits for blocks filled
before a lane's window are resolved afterwards from static
last-write/last-miss occurrence tables (the epilogue).
"""

from __future__ import annotations

import warnings
from time import perf_counter
from typing import List, Optional

from repro.cache.basecache import SetAssociativeCache
from repro.common.errors import ConfigError, WatchdogTimeout
from repro.policies.lru import LruPolicy

try:  # numpy is an optional accelerator (the `fast` extra), never required
    import numpy as np
except ImportError:  # pragma: no cover - exercised via the CI no-numpy job
    np = None

#: Backend names accepted by ``RunOptions(backend=...)`` and the CLI.
BACKEND_AUTO = "auto"
BACKEND_PYTHON = "python"
BACKEND_NUMPY = "numpy"
BACKENDS = (BACKEND_AUTO, BACKEND_PYTHON, BACKEND_NUMPY)

#: Segment length in set-local accesses.  64 measured best across
#: 64..2048-set geometries: long enough to amortise per-round overhead,
#: short enough that lookback extension stays rare.
_SEGMENT = 64

#: Initial lookback window; extended x4 per ladder rung when it shows
#: fewer than ``A`` distinct tags.
_LOOKBACK = 64

#: Rounds between cooperative wall-clock/heartbeat checks in the replay
#: loop (a round touches thousands of lanes, so this is coarse).
_DEADLINE_ROUND_STRIDE = 64

#: Scalar-set feed accesses between watchdog checks (mirrors the
#: scalar driver's stride).
_SCALAR_STRIDE = 8192

#: Element-count ceilings for the two dense allocations whose size is
#: data-dependent: the round-major replay matrix (R x L) and the
#: tag-id -> way lookup (L x D).  A pathological trace that blows
#: either bound falls back to the scalar path instead of thrashing.
_MAX_DENSE_ELEMENTS = 1 << 26


def numpy_available() -> bool:
    """Whether the numpy backend can run at all (import succeeded)."""
    return np is not None


_warned_missing_numpy = False


def _warn_missing_numpy() -> None:
    """One UserWarning per process when numpy would have been used."""
    global _warned_missing_numpy
    if _warned_missing_numpy:
        return
    _warned_missing_numpy = True
    warnings.warn(
        "numpy is not installed; the columnar backend is unavailable and "
        "runs fall back to the pure-python simulator (results are "
        "identical, only slower). Install the 'fast' extra to enable it.",
        UserWarning,
        stacklevel=3,
    )


def kernel_eligible(cache) -> bool:
    """Whether ``cache`` has an exact columnar kernel.

    Deliberately strict: exact types only (a subclass may override
    behaviour the kernel does not model), no instance-level override of
    the access methods (a spy or wrapper expects to see every access),
    no tracer (per-event streams need per-access execution), no
    eviction listener, no prior accesses (the kernel derives state from
    the trace alone, so the cache must start empty), and an
    associativity the int8 way-lookup can index.
    """
    return (
        type(cache) is SetAssociativeCache
        and type(cache.policy) is LruPolicy
        and "access" not in cache.__dict__
        and "access_batch" not in cache.__dict__
        and cache.eviction_listener is None
        and not cache.tracer.enabled
        and 1 <= cache.geometry.associativity <= 127
        and cache._access_base + cache.stats.accesses == 0
    )


def resolve_backend(backend: Optional[str], cache) -> str:
    """Map a requested backend to the one that will actually run.

    ``None``/``"auto"`` selects numpy exactly when it is importable and
    the cache has an exact kernel.  An explicit ``"numpy"`` request on
    an ineligible scheme falls back to ``"python"`` silently — the
    contract makes the two indistinguishable — while a missing numpy
    installation warns once per process (the user asked for speed they
    cannot get).  Unknown names raise :class:`ConfigError`.
    """
    if backend is None:
        backend = BACKEND_AUTO
    if backend not in BACKENDS:
        raise ConfigError(
            f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}"
        )
    if backend == BACKEND_PYTHON:
        return BACKEND_PYTHON
    eligible = kernel_eligible(cache)
    if not numpy_available():
        if eligible or backend == BACKEND_NUMPY:
            _warn_missing_numpy()
        return BACKEND_PYTHON
    return BACKEND_NUMPY if eligible else BACKEND_PYTHON


# ----------------------------------------------------------------------
# Plan: everything derivable from (trace, geometry, writes) alone
# ----------------------------------------------------------------------


def _build_plan(s, t, w, num_sets: int, assoc: int):
    """Static derivation of the whole-trace replay layout.

    Pure function of the access stream — no simulation happens here —
    so the result is cached on the trace exactly like
    ``precompute_geometry`` and amortises across runs, warm-up splits
    and schemes sharing a geometry.  Returns ``None`` when a guard
    trips (composite sort keys would overflow int64, or a dense array
    would exceed :data:`_MAX_DENSE_ELEMENTS`); the caller then uses the
    scalar path.
    """
    n = len(s)
    A = assoc
    seg = _SEGMENT
    look = _LOOKBACK
    # Set-local positions via one stable argsort by set.
    sorder = np.argsort(s, kind="stable")
    ss = s[sorder]
    gs = np.ones(n, dtype=bool)
    gs[1:] = ss[1:] != ss[:-1]
    sstart = np.maximum.accumulate(np.where(gs, np.arange(n), -1))
    p = np.empty(n, dtype=np.int64)
    p[sorder] = np.arange(n) - sstart
    set_counts = np.bincount(s, minlength=num_sets)
    set_offsets = np.concatenate(([0], np.cumsum(set_counts))).astype(np.int64)
    # One composite sort by (set, tag, pos): rows group by (set, tag)
    # pair, ordered by position within each group — the occurrence
    # table that powers lookback checks, the write-back epilogue and
    # final-state reconstruction.
    K2 = int(n) + 1
    tmax = int(t.max()) + 1
    if num_sets * tmax * K2 + n >= (1 << 62):
        return None
    ckey = (s.astype(np.int64) * tmax + t.astype(np.int64)) * K2 + p
    porder = np.argsort(ckey, kind="stable")
    occ_key = ckey[porder]
    occ_p = p[porder]
    pgs = np.ones(n, dtype=bool)
    pgs[1:] = occ_key[1:] // K2 != occ_key[:-1] // K2
    grp_num = np.cumsum(pgs, dtype=np.int64) - 1
    grp_base = grp_num * np.int64(2 * K2)
    # Per-set dense tag ids (0..D-1 within each set) for the int8
    # way-of lookup.
    pset = s[porder]
    new_set = np.ones(n, dtype=bool)
    new_set[1:] = pset[1:] != pset[:-1]
    set_g0 = np.maximum.accumulate(np.where(new_set, grp_num, -1))
    tagid = np.empty(n, dtype=np.int64)
    tagid[porder] = grp_num - set_g0
    D = int(tagid.max()) + 1
    # Previous occurrence of the same (set, tag), as a set-local
    # position (-1 = first ever).
    prev_local = np.full(n, -1, dtype=np.int64)
    idx_same = np.flatnonzero(~pgs)
    prev_local[porder[idx_same]] = occ_p[idx_same - 1]
    # Static group tables: raw tag, first-group-of-set, last occurrence.
    first_rows = np.flatnonzero(pgs)
    tag_of_group = t[porder[first_rows]]
    group_last_row = np.concatenate((first_rows[1:] - 1, [n - 1]))
    last_occ_of_group = occ_p[group_last_row]
    set_first_group = np.full(num_sets, -1, dtype=np.int64)
    srows = np.flatnonzero(new_set)
    set_first_group[pset[srows]] = grp_num[srows]
    # Last write at-or-before each occurrence row (static cummax per
    # group via the grp_base offset trick).
    if w is not None:
        wvals = np.where(w[porder], occ_p, np.int64(-1)) + grp_base
        last_write_at = np.maximum.accumulate(wvals) - grp_base
    else:
        last_write_at = None
    # Cold (first-ever) accesses per set, in ascending global order —
    # per-set fill levels at any boundary T are min(A, colds before T),
    # which is what the occupancy gauges sample.
    cold_gpos = np.flatnonzero(prev_local < 0)
    cold_set = s[cold_gpos]
    # --- lane ladder ------------------------------------------------
    nseg_per_set = (set_counts + seg - 1) // seg
    Lall = int(nseg_per_set.sum())
    lane_set = np.repeat(np.arange(num_sets), nseg_per_set)
    seg_idx = np.arange(Lall) - np.repeat(
        np.concatenate(([0], np.cumsum(nseg_per_set[:-1]))), nseg_per_set)
    lane_a = seg_idx * seg
    lane_b = np.minimum(lane_a + seg, set_counts[lane_set])
    lane_l = np.maximum(0, lane_a - look)
    prev_slo = prev_local[sorder]
    base = set_offsets[lane_set]

    def lane_checks(idx):
        """(distinct in [l,a), distinct in [l,b), pre-window refs in
        [a,b)) for every lane in ``idx``, in one expansion pass."""
        lens = (lane_b - lane_l)[idx]
        tot = int(lens.sum())
        stl = np.repeat(np.arange(len(idx)), lens)
        kk = np.arange(tot) - np.repeat(
            np.concatenate(([0], np.cumsum(lens[:-1]))), lens)
        pos = lane_l[idx][stl] + kk
        pv = prev_slo[base[idx][stl] + pos]
        lref = lane_l[idx][stl]
        firsts = pv < lref
        in_look = pos < lane_a[idx][stl]
        d_look = np.bincount(stl, weights=firsts & in_look, minlength=len(idx))
        d_all = np.bincount(stl, weights=firsts, minlength=len(idx))
        viol = np.bincount(stl, weights=(~in_look) & (pv < lref),
                           minlength=len(idx))
        return d_look, d_all, viol

    # 0 pending -> 1 kernel lane -> 2 static all-hit lane -> 3 scalar.
    status = np.zeros(Lall, dtype=np.int8)
    status[lane_l == 0] = 1
    scalar_set = np.zeros(num_sets, dtype=bool)
    for rung in range(3):
        pend = np.flatnonzero(status == 0)
        if not len(pend):
            break
        d_look, d_all, viol = lane_checks(pend)
        ok_kernel = d_look >= A
        ok_static = (~ok_kernel) & (d_all <= A) & (viol == 0)
        status[pend[ok_kernel]] = 1
        status[pend[ok_static]] = 2
        rest = pend[~ok_kernel & ~ok_static]
        if rung < 2:
            lane_l[rest] = np.maximum(
                0, lane_a[rest] - (lane_a[rest] - lane_l[rest]) * 4)
            status[rest[lane_l[rest] == 0]] = 1
        else:
            status[rest] = 3
            scalar_set[lane_set[rest]] = True
    # A scalar set is handled wholesale by the real cache, so its other
    # lanes are dropped regardless of their own status.
    kern = (status == 1) & ~scalar_set[lane_set]
    stat = (status == 2) & ~scalar_set[lane_set]
    sidx = np.flatnonzero(stat)
    if len(sidx):
        lens = (lane_b - lane_a)[sidx]
        stl = np.repeat(sidx, lens)
        kk = np.arange(int(lens.sum())) - np.repeat(
            np.concatenate(([0], np.cumsum(lens[:-1]))), lens)
        static_g = sorder[base[stl] + lane_a[stl] + kk]
    else:
        static_g = np.empty(0, dtype=np.int64)
    kidx = np.flatnonzero(kern)
    lane_set = lane_set[kidx]
    lane_l = lane_l[kidx]
    lane_a = lane_a[kidx]
    lane_b = lane_b[kidx]
    lengths = lane_b - lane_l
    # Longest lanes first: searchsorted over the descending lengths
    # gives the active-lane count per round, so the round loop always
    # works on a contiguous prefix.
    lorder = np.argsort(-lengths, kind="stable")
    lane_set = lane_set[lorder]
    lane_l = lane_l[lorder]
    lane_a = lane_a[lorder]
    lane_b = lane_b[lorder]
    lengths = lengths[lorder]
    L = len(lane_set)
    R = int(lengths.max()) if L else 0
    if L and (R * L > _MAX_DENSE_ELEMENTS or L * D > _MAX_DENSE_ELEMENTS):
        return None
    seg0 = (lane_a - lane_l).astype(np.int64)
    if L:
        tot = int(lengths.sum())
        stl = np.repeat(np.arange(L), lengths)
        kk = np.arange(tot) - np.repeat(
            np.concatenate(([0], np.cumsum(lengths[:-1]))), lengths)
        pos = lane_l[stl] + kk
        g = sorder[set_offsets[lane_set[stl]] + pos]
        flatpos = kk * L + stl
        rm_tid = np.zeros(R * L, dtype=np.int32)
        rm_key = np.zeros(R * L, dtype=np.int32)
        rm_tid[flatpos] = tagid[g]
        rm_key[flatpos] = p[g]
        if w is not None:
            rm_w = np.zeros(R * L, dtype=bool)
            rm_w[flatpos] = w[g]
            rm_w = rm_w.reshape(R, L)
        else:
            rm_w = None
        auth = kk >= seg0[stl]
        auth_rm = flatpos[auth]
        auth_g = g[auth]
        g2rm = np.full(n, -1, dtype=np.int64)
        g2rm[auth_g] = auth_rm
        occ_rm = g2rm[porder]
        active_at = np.searchsorted(-lengths, -np.arange(1, R + 1),
                                    side="right")
        seg0_pos = rm_key.reshape(R, L)[
            np.minimum(seg0, R - 1), np.arange(L)].astype(np.int32)
        rm_tid = rm_tid.reshape(R, L)
        rm_key = rm_key.reshape(R, L)
    else:
        rm_tid = rm_key = rm_w = None
        auth_rm = auth_g = np.empty(0, dtype=np.int64)
        occ_rm = np.full(n, -1, dtype=np.int64)
        active_at = np.empty(0, dtype=np.int64)
        seg0_pos = np.empty(0, dtype=np.int32)
    # Final-state source per set: the kernel lane with the largest
    # segment start (trailing static lanes provably leave residency,
    # ways, keys and fill counts unchanged).
    sync_lane = np.full(num_sets, -1, dtype=np.int64)
    if L:
        lex = np.lexsort((lane_a, lane_set))
        last_of_run = np.ones(L, dtype=bool)
        last_of_run[:-1] = lane_set[lex][1:] != lane_set[lex][:-1]
        rows = lex[last_of_run]
        sync_lane[lane_set[rows]] = rows
    scalar_sets = np.flatnonzero(scalar_set)
    scalar_g = (
        np.sort(np.concatenate(
            [sorder[set_offsets[si]:set_offsets[si] + set_counts[si]]
             for si in scalar_sets]))
        if len(scalar_sets) else np.empty(0, dtype=np.int64)
    )
    # Membership prefix over scalar-handled accesses, for O(1) span
    # accounting of how many accesses the kernel covers.
    scalar_mark = np.zeros(n, dtype=np.int64)
    if len(scalar_g):
        scalar_mark[scalar_g] = 1
    scalar_cum = np.concatenate(([0], np.cumsum(scalar_mark)))
    return {
        "n": n, "A": A, "D": D, "L": L, "R": R,
        "num_sets": num_sets,
        "sorder": sorder, "set_counts": set_counts,
        "set_offsets": set_offsets,
        "porder": porder, "occ_key": occ_key, "occ_p": occ_p,
        "grp_base": grp_base, "K2": np.int64(K2), "tmax": np.int64(tmax),
        "tag_of_group": tag_of_group,
        "group_last_row": group_last_row,
        "last_occ_of_group": last_occ_of_group,
        "set_first_group": set_first_group,
        "last_write_at": last_write_at,
        "cold_gpos": cold_gpos, "cold_set": cold_set,
        "lane_set": lane_set.astype(np.int64), "seg0": seg0,
        "seg0_pos": seg0_pos,
        "rm_tid": rm_tid, "rm_key": rm_key, "rm_w": rm_w,
        "active_at": active_at,
        "auth_rm": auth_rm, "auth_g": auth_g, "occ_rm": occ_rm,
        "static_g": static_g,
        "sync_lane": sync_lane,
        "scalar_sets": scalar_sets, "scalar_g": scalar_g,
        "scalar_cum": scalar_cum,
        "have_writes": w is not None,
    }


def _plan_for(cache, trace, writes):
    """Fetch or build the trace's columnar plan for this geometry.

    Cached on the trace (like ``precompute_geometry``'s arrays, and
    likewise dropped from pickles) keyed by the address split, the
    associativity and whether write flags participate.  ``False`` is
    cached for guard-tripped builds so they are not retried per run.
    """
    mapper = cache.mapper
    key = (
        mapper.offset_bits, mapper.index_bits,
        cache.geometry.associativity, writes is not None,
    )
    plans = trace._columnar_plans
    plan = plans.get(key)
    if plan is None:
        set_indices, tags = trace.precompute_geometry(mapper)
        s = np.asarray(set_indices, dtype=np.int64)
        t = np.asarray(tags, dtype=np.int64)
        w = np.asarray(writes, dtype=bool) if writes is not None else None
        plan = _build_plan(
            s, t, w, cache.geometry.num_sets, cache.geometry.associativity
        )
        plans[key] = plan if plan is not None else False
    return plan if plan is not False else None


# ----------------------------------------------------------------------
# Replay: the lockstep round loop (the only per-run simulation cost)
# ----------------------------------------------------------------------


class _GaugeSource:
    """Stand-in the metrics registry samples instead of the cache.

    Carries the *real* ``cache.stats`` (the engine has already flushed
    exact counters for the boundary) plus gauge/per-set views computed
    from the static cold-access table, so ``MetricsRegistry.sample``
    runs its own unmodified code and the resulting series is
    byte-identical to the scalar path's.
    """

    def __init__(self, stats, gauges: dict, per_set: dict) -> None:
        self.stats = stats
        self._gauges = gauges
        self._per_set = per_set

    def metrics_gauges(self) -> dict:
        return self._gauges

    def metrics_per_set(self) -> dict:
        return self._per_set


class ColumnarEngine:
    """One run's columnar executor: replay once, attribute per span.

    Drives the whole trace through the kernel on the first span, then
    serves every span ``[start, stop)`` from per-access outcome prefix
    sums — warm-up/measured splits and metrics windows all reduce to
    two subtractions.  Accesses belonging to scalar-fallback sets (sets
    whose lanes failed every ladder rung; none on the benchmark
    workloads) are fed through the real ``cache.access`` in stream
    order, so their state and statistics are scalar by construction.
    At the final span boundary the cache's dictionaries, policy
    recency order, dirty bits and free lists are synchronised to the
    exact end-of-trace state.
    """

    def __init__(self, cache, trace, writes, plan) -> None:
        self.cache = cache
        self.plan = plan
        self.trace_name = trace.name
        self.addresses = trace.addresses
        self.writes = writes
        self.n = plan["n"]
        self._replayed = False
        self._synced = False
        self._hit_cum = None
        self._ev_cum = None
        self._wb_cum = None
        self._hit_rm = None
        self._state = None
        # Incremental occupancy cursor over the static cold table.
        self._filled = np.zeros(plan["num_sets"], dtype=np.int64)
        self._cold_ptr = 0

    # -- replay --------------------------------------------------------

    def _replay(self, deadline_at, beat) -> None:
        plan = self.plan
        L, R, D, A = plan["L"], plan["R"], plan["D"], plan["A"]
        have_writes = plan["have_writes"]
        evb = [[] for _ in range(6)]
        if L:
            rm_tid, rm_key, rm_w = plan["rm_tid"], plan["rm_key"], plan["rm_w"]
            active_at, seg0 = plan["active_at"], plan["seg0"]
            lane_set, seg0_pos = plan["lane_set"], plan["seg0_pos"]
            way_of = np.full(L * D, -1, dtype=np.int8)
            tid_state = np.zeros(L * A, dtype=np.int32)
            key_state = np.full((L, A), np.int32(-2**31), dtype=np.int32)
            fp_state = np.full(L * A, -1, dtype=np.int32)
            dirty = np.zeros(L * A, dtype=bool) if have_writes else None
            fill_count = np.zeros(L, dtype=np.int32)
            hit_rm = np.zeros((R, L), dtype=bool)
            arD = np.arange(L, dtype=np.int64) * D
            flat_key = key_state.ravel()
            for r in range(R):
                if r % _DEADLINE_ROUND_STRIDE == 0 and r:
                    position = int(self.n * r / R)
                    if beat is not None:
                        beat(position)
                    if deadline_at is not None and perf_counter() > deadline_at:
                        raise WatchdogTimeout(
                            f"trace {self.trace_name!r}: run exceeded its "
                            f"wall-clock deadline after {position} accesses"
                        )
                La = active_at[r]
                tids_r = rm_tid[r, :La]
                keys_r = rm_key[r, :La]
                way = way_of[arD[:La] + tids_r].astype(np.int64)
                hit = way >= 0
                hidx = np.flatnonzero(hit)
                hslot = hidx * A + way[hidx]
                flat_key[hslot] = keys_r[hidx]
                if have_writes:
                    dirty[hslot[rm_w[r, hidx]]] = True
                midx = np.flatnonzero(~hit)
                if len(midx):
                    fc = fill_count[midx]
                    wy = fc.astype(np.int64)
                    full = fc >= A
                    fidx = midx[full]
                    if len(fidx):
                        vic = key_state[:La].argmin(1)[fidx]
                        wy[full] = vic
                        vslot = fidx * A + vic
                        way_of[fidx * D + tid_state[vslot]] = -1
                        fa = np.flatnonzero(r >= seg0[fidx])
                        if len(fa):
                            vs = vslot[fa]
                            evb[0].append(lane_set[fidx[fa]])
                            evb[1].append(keys_r[fidx[fa]].astype(np.int64))
                            evb[2].append(tid_state[vs].astype(np.int64))
                            evb[3].append(dirty[vs] if have_writes
                                          else np.zeros(len(vs), dtype=bool))
                            evb[4].append(fp_state[vs].astype(np.int64))
                            evb[5].append(seg0_pos[fidx[fa]].astype(np.int64))
                    mslot = midx * A + wy
                    tid_state[mslot] = tids_r[midx]
                    flat_key[mslot] = keys_r[midx]
                    fp_state[mslot] = keys_r[midx]
                    way_of[midx * D + tids_r[midx]] = wy.astype(np.int8)
                    if have_writes:
                        dirty[mslot] = rm_w[r, midx]
                    fill_count[midx] = np.minimum(fc + 1, A)
                hit_rm[r, :La] = hit
            self._hit_rm = hit_rm
            self._state = (tid_state, fill_count)
        ev = tuple(
            np.concatenate(buf) if buf else np.empty(0, dtype=np.int64)
            for buf in evb
        )
        self._finalize(ev)
        self._replayed = True

    def _finalize(self, ev) -> None:
        """Per-access outcome arrays + epilogue write-back resolution."""
        plan = self.plan
        n = self.n
        hit_g = np.zeros(n, dtype=bool)
        if self._hit_rm is not None:
            hit_g[plan["auth_g"]] = self._hit_rm.ravel()[plan["auth_rm"]]
        hit_g[plan["static_g"]] = True
        ev_set, ev_pos, ev_tid, ev_dirty, ev_fpos, ev_seg0p = ev
        wb = ev_dirty.astype(bool)
        last_miss_at = None
        if plan["have_writes"]:
            # Last miss at-or-before each occurrence row.  Misses of
            # scalar-set rows are wrong here (their hits are not in
            # hit_g), but no scalar-set group is ever queried.
            occ_hit = hit_g[plan["porder"]]
            vals = (np.where(~occ_hit, plan["occ_p"], np.int64(-1))
                    + plan["grp_base"])
            last_miss_at = np.maximum.accumulate(vals) - plan["grp_base"]
            if len(ev_tid):
                # Victims filled during the lookback prefix carry the
                # lane's dirty-from-empty guess; replace it with the
                # exact static answer: was the victim written at or
                # after its true (whole-history) fill?
                wb = wb.copy()
                sub = np.flatnonzero(ev_fpos < ev_seg0p)
                if len(sub):
                    tags = plan["tag_of_group"][
                        plan["set_first_group"][ev_set[sub]] + ev_tid[sub]]
                    q = ((ev_set[sub] * plan["tmax"] + tags) * plan["K2"]
                         + ev_pos[sub])
                    idx = np.searchsorted(plan["occ_key"], q, side="left") - 1
                    wb[sub] = (plan["last_write_at"][idx]
                               >= last_miss_at[idx])
        self._last_miss_at = last_miss_at
        # Eviction/write-back flags at the global position of the
        # evicting access, then prefix sums for O(1) span deltas.
        ev_flag = np.zeros(n, dtype=np.int64)
        wb_flag = np.zeros(n, dtype=np.int64)
        if len(ev_tid):
            ev_g = plan["sorder"][plan["set_offsets"][ev_set] + ev_pos]
            ev_flag[ev_g] = 1
            wb_flag[ev_g] = wb.astype(np.int64)
        self._hit_cum = np.concatenate(([0], np.cumsum(hit_g)))
        self._ev_cum = np.concatenate(([0], np.cumsum(ev_flag)))
        self._wb_cum = np.concatenate(([0], np.cumsum(wb_flag)))
        self._hit_g = hit_g

    # -- span execution ------------------------------------------------

    def span(self, start: int, stop: int, deadline_at, beat) -> None:
        """Account accesses ``[start, stop)`` onto the cache's stats."""
        if not self._replayed:
            self._replay(deadline_at, beat)
        if start >= stop:
            return
        plan = self.plan
        if len(plan["scalar_g"]):
            self._feed_scalar(start, stop, deadline_at)
        total = stop - start
        scalar = int(plan["scalar_cum"][stop] - plan["scalar_cum"][start])
        covered = total - scalar
        hits = int(self._hit_cum[stop] - self._hit_cum[start])
        stats = self.cache.stats
        stats.accesses += covered
        stats.hits += hits
        stats.local_hits += hits
        misses = covered - hits
        stats.misses += misses
        stats.misses_single_probe += misses
        stats.evictions += int(self._ev_cum[stop] - self._ev_cum[start])
        stats.writebacks += int(self._wb_cum[stop] - self._wb_cum[start])
        if beat is not None:
            beat(stop)
        if deadline_at is not None and perf_counter() > deadline_at:
            raise WatchdogTimeout(
                f"trace {self.trace_name!r}: run exceeded its wall-clock "
                f"deadline after {stop} accesses"
            )
        if stop >= self.n and not self._synced:
            self._sync_state()

    def _feed_scalar(self, start: int, stop: int, deadline_at) -> None:
        """Scalar-fallback sets run through the real cache, in order."""
        scalar_g = self.plan["scalar_g"]
        lo = int(np.searchsorted(scalar_g, start))
        hi = int(np.searchsorted(scalar_g, stop))
        access = self.cache.access
        addresses = self.addresses
        writes = self.writes
        for chunk in range(lo, hi, _SCALAR_STRIDE):
            for gi in scalar_g[chunk:min(hi, chunk + _SCALAR_STRIDE)]:
                gi = int(gi)
                if writes is None:
                    access(addresses[gi])
                else:
                    access(addresses[gi], writes[gi])
            if deadline_at is not None and perf_counter() > deadline_at:
                raise WatchdogTimeout(
                    f"trace {self.trace_name!r}: run exceeded its "
                    f"wall-clock deadline after {stop} accesses"
                )

    # -- windowed-metrics sampling -------------------------------------

    def sample_target(self, boundary: int):
        """The object the metrics registry samples at ``boundary``.

        Fill levels are exact without touching live state: a set's
        occupancy after T accesses is min(A, first-ever accesses seen),
        because no eviction ever empties a way.  Scalar-fallback sets
        satisfy the same identity, so one static table covers all.
        """
        plan = self.plan
        cold_gpos = plan["cold_gpos"]
        hi = int(np.searchsorted(cold_gpos, boundary))
        if hi > self._cold_ptr:
            np.add.at(self._filled, plan["cold_set"][self._cold_ptr:hi], 1)
            self._cold_ptr = hi
        A = plan["A"]
        rows = np.minimum(self._filled, A)
        capacity = plan["num_sets"] * A
        gauges = {"occupancy_fraction": float(rows.sum()) / capacity}
        per_set = {"occupancy": [int(v) for v in rows]}
        return _GaugeSource(self.cache.stats, gauges, per_set)

    # -- final-state synchronisation -----------------------------------

    def _sync_state(self) -> None:
        """Write the exact end-of-trace state into the live cache.

        Residency and way assignment come from each set's last kernel
        lane; recency order and dirty bits come from the static
        occurrence tables (a resident block's key is its last touch,
        its dirty bit is ``last write >= last fill``).  Physical way
        labels can differ from the scalar run's for sets that were
        reconstructed from a lookback window — LRU's observable
        behaviour (which *tags* hit, evict, write back, in what order)
        is invariant under way relabelling, and no stats, manifest,
        metrics or continuation surface exposes the labels.
        """
        self._synced = True
        plan = self.plan
        cache = self.cache
        A = plan["A"]
        have_writes = plan["have_writes"]
        sync_lane = plan["sync_lane"]
        set_counts = plan["set_counts"]
        scalar = set(int(si) for si in plan["scalar_sets"])
        tid_state, fill_count = (
            self._state if self._state is not None else (None, None)
        )
        if have_writes:
            lw_end = plan["last_write_at"][plan["group_last_row"]]
            lm_end = self._last_miss_at[plan["group_last_row"]]
        orders = cache.policy._order
        for si in range(plan["num_sets"]):
            if set_counts[si] == 0 or si in scalar:
                continue
            lane = int(sync_lane[si])
            fc = int(fill_count[lane])
            tids = tid_state[lane * A: lane * A + fc]
            groups = plan["set_first_group"][si] + tids
            tags = plan["tag_of_group"][groups]
            last_occ = plan["last_occ_of_group"][groups]
            table = {}
            way_row: List[Optional[int]] = [None] * A
            dirty_row = [False] * A
            for k in range(fc):
                tag = int(tags[k])
                table[tag] = k
                way_row[k] = tag
                if have_writes:
                    grp = groups[k]
                    dirty_row[k] = bool(lw_end[grp] >= lm_end[grp])
            cache._tag_to_way[si] = table
            cache._way_tag[si] = way_row
            cache._dirty[si] = dirty_row
            cache._free_ways[si] = list(range(A - 1, fc - 1, -1))
            orders[si] = [int(w) for w in np.argsort(last_occ, kind="stable")]


def make_engine(cache, trace, writes) -> Optional[ColumnarEngine]:
    """Build the run's engine, or ``None`` to use the scalar path.

    Assumes the caller already resolved the backend to ``"numpy"``
    (cache eligible, numpy importable); ``None`` here means the plan's
    own guards declined this particular trace/geometry.
    """
    plan = _plan_for(cache, trace, writes)
    if plan is None:
        return None
    return ColumnarEngine(cache, trace, writes, plan)
