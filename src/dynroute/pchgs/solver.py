"""Hybrid genetic search for the prize-collecting VRPTW.

Population-based search with SREX crossover, a local-search improvement stage
(classic time-window move set plus request insert/remove neighborhoods), two
request-set mutation operators, diversity-aware survivor selection, and
penalty adaptation for infeasible intermediates. Forced-in requests are always
served, forced-out requests never are.
"""

from __future__ import annotations

import functools
import math
import time as _time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .evaluate import EvalContext
from .types import (
    HgsParams,
    Individual,
    PcInfeasibleError,
    PcInstance,
    PcInstanceError,
    PcSolution,
)

_EPS = 1e-9

# Fixed search constants.
MU, LAM = 12, 20  # subpopulation size after survivor selection, and the overflow that triggers it
ELITE = 4  # best-objective members that survivor selection never evicts
N_CLOSEST = 3  # nearest members whose distances make up a member's diversity
P_MUT = 0.3  # chance of the remove/insert mutation on each child
ALPHA_RM, ALPHA_INS = 0.1, 0.1  # shares of served/unserved requests that mutation removes/inserts
GRANULARITY = 20  # granular neighbors kept per request
P_OPT = 0.25  # chance of a perturbed request-set pass on each child
DELTA_LO, DELTA_HI = 0.8, 1.2  # range of that pass's saving/detour factors
TW_PENALTY = 3.0  # start of the time-window penalty
PENALTY_UP, PENALTY_DOWN = 1.2, 0.85  # penalty factors when too few/many LS outputs are feasible
PENALTY_LO, PENALTY_HI = 0.1, 1e5  # clamp of adapted penalties
ADAPT_PERIOD = 100  # iterations between adaptations; also the feasibility window


def preprocess(inst: PcInstance) -> tuple[frozenset[int], frozenset[int]]:
    """Closed-form forced-set additions from the prize structure.

    A request is certainly unprofitable when its cheapest in+out arcs minus
    its prize already exceed the largest arc cost (removing it from any route
    can only help); certainly profitable when its prize beats the direct depot
    round trip. Additions never touch requests already in a declared forced
    set. A request satisfying both rules signals inconsistent prizes.
    """
    n = inst.n_requests
    if n == 0:
        return frozenset(), frozenset()
    t = inst.travel
    max_c = int(t.max())
    add_in: set[int] = set()
    add_out: set[int] = set()
    for r in range(n):
        m = r + 1
        cheapest_in = min(int(t[j][m]) for j in range(n + 1) if j != m)
        cheapest_out = min(int(t[m][j]) for j in range(n + 1) if j != m)
        prize = inst.prizes[r]
        out_rule = cheapest_in + cheapest_out - prize >= max_c
        in_rule = int(t[0][m]) + int(t[m][0]) < prize
        if out_rule and in_rule:
            raise PcInstanceError(
                f"request {r}: qualifies as both certainly profitable and certainly "
                f"unprofitable (prize {prize})"
            )
        if r in inst.forced_in or r in inst.forced_out:
            continue
        if out_rule:
            add_out.add(r)
        elif in_rule:
            add_in.add(r)
    return frozenset(add_in), frozenset(add_out)


@functools.cache
def _same_route_plans(n: int, pu: int, pv: int) -> tuple[tuple[tuple[int, int, bool], ...], ...]:
    """The same-route moves of the visits at positions pu and pv of an
    n-visit route, in trial order. Each is a plan: the segments (first,
    last, reversed) of the old route that, concatenated, give the new one.
    Plans depend only on (n, pu, pv), so they are built once and shared; the
    cache holds fewer than n * n entries for each route length n seen.

    The moves: relocate u after and before v; relocate (u, succ u) and
    (succ u, u) after v; swap u with v, (u, succ u) with v, and
    (u, succ u) with (v, succ v); reverse the stretch from u to v.
    """

    def relocate(b0: int, b1: int, rev: bool, k: int):
        # move visits b0..b1 to just before old position k
        x = (b0, b1, rev)
        if k <= b0:
            segs = [(0, k - 1, False), x, (k, b0 - 1, False), (b1 + 1, n - 1, False)]
        else:
            segs = [(0, b0 - 1, False), (b1 + 1, k - 1, False), x, (k, n - 1, False)]
        return tuple(s for s in segs if s[0] <= s[1])

    def swap(i1: int, j1: int, i2: int, j2: int):
        if i2 < i1:
            i1, j1, i2, j2 = i2, j2, i1, j1
        segs = [(0, i1 - 1, False), (i2, j2, False), (j1 + 1, i2 - 1, False),
                (i1, j1, False), (j2 + 1, n - 1, False)]
        return tuple(s for s in segs if s[0] <= s[1])

    has_succ_u = pu + 1 < n and pu + 1 != pv
    plans = [relocate(pu, pu, False, pv + 1), relocate(pu, pu, False, pv)]
    if has_succ_u:
        plans.append(relocate(pu, pu + 1, False, pv + 1))
        plans.append(relocate(pu, pu + 1, True, pv + 1))
    plans.append(swap(pu, pu, pv, pv))
    if has_succ_u:
        plans.append(swap(pu, pu + 1, pv, pv))
        if pv + 1 < n and pv + 1 != pu:
            plans.append(swap(pu, pu + 1, pv, pv + 1))
    lo, hi = (pu, pv) if pu < pv else (pv, pu)
    plans.append(tuple(s for s in ((0, lo - 1, False), (lo, hi, True), (hi + 1, n - 1, False))
                       if s[0] <= s[1]))
    return tuple(plans)


def _plan_cost(t, route: list[int], arc_pref: list[int], rev_pref: list[int], plan) -> int:
    """Integer cost of the route a plan builds, from the old route's prefixes."""
    cost = 0
    prev = 0
    for i, j, rev in plan:
        if rev:
            cost += t[prev][route[j] + 1] + rev_pref[j] - rev_pref[i]
            prev = route[i] + 1
        else:
            cost += t[prev][route[i] + 1] + arc_pref[j] - arc_pref[i]
            prev = route[j] + 1
    return cost + t[prev][0]


def _apply_plan(route: list[int], plan) -> list[int]:
    out: list[int] = []
    for i, j, rev in plan:
        seg = route[i : j + 1]
        out += seg[::-1] if rev else seg
    return out


class _Work:
    """Mutable routes-plus-stats view of one individual during improvement.

    Per-route data lives in parallel lists indexed like ``routes``. Routes
    carry a modification counter so sweeps can skip request pairs whose
    routes have not changed since the pair was last verified unimproving.
    ``commit`` never edits a route list in place: it installs new ones, so a
    route's cached certificate id (``rids``) and insertion tables (``top3``)
    stay valid until the route is replaced.
    """

    _PER_ROUTE = ("routes", "stats", "loads", "arc_pref", "load_pref", "rev_pref",
                  "version", "rids", "top3")
    __slots__ = _PER_ROUTE + ("ctx", "pos", "counter")

    def __init__(self, ctx: EvalContext, routes):
        self.ctx = ctx
        for name in self._PER_ROUTE:
            setattr(self, name, [])
        self.counter = 0
        for r in routes:
            if r:
                self._append(list(r))
        self._rebuild_pos()

    def _summary(self, route: list[int]):
        """(stats, load, arc prefix, load prefix, reversed-arc prefix) of a route.

        ``arc_pref[i]`` is the cost from the depot to ``route[i]``;
        ``rev_pref[i]`` sums the reversed arcs ``route[k] -> route[k-1]`` for
        k <= i, so a segment traversed backwards costs a prefix difference.
        """
        t = self.ctx.t
        dem = self.ctx.demand
        arcs: list[int] = []
        lds: list[int] = []
        rev: list[int] = []
        prev = 0
        acc = 0
        racc = 0
        load = 0
        for v in route:
            m = v + 1
            acc += t[prev][m]
            if prev:
                racc += t[m][prev]
            load += dem[v]
            arcs.append(acc)
            lds.append(load)
            rev.append(racc)
            prev = m
        return self.ctx.eval_route(route), load, arcs, lds, rev

    def _set(self, ri: int, route: list[int]) -> None:
        self.routes[ri] = route
        (self.stats[ri], self.loads[ri], self.arc_pref[ri], self.load_pref[ri],
         self.rev_pref[ri]) = self._summary(route)
        self.version[ri] = self.counter
        self.rids[ri] = None
        self.top3[ri] = {}

    def _append(self, route: list[int]) -> None:
        for name in self._PER_ROUTE:
            getattr(self, name).append(None)
        self._set(len(self.routes) - 1, route)

    def _rebuild_pos(self) -> None:
        self.pos = {}
        for ri, route in enumerate(self.routes):
            for pi, v in enumerate(route):
                self.pos[v] = (ri, pi)

    def served(self) -> set[int]:
        return set(self.pos)

    def route_pen(self, ri: int, cap_pen: float, tw_pen: float) -> float:
        c, ce, w = self.stats[ri]
        return c + cap_pen * ce + tw_pen * w

    def commit(self, changes: dict[int, list[int]], new_routes=()) -> None:
        """Replace routes per index (empty list deletes), then append new routes."""
        self.counter += 1
        for ri, visits in changes.items():
            self._set(ri, visits)
        for visits in new_routes:
            if visits:
                self._append(list(visits))
        if not all(self.routes):
            keep = [i for i, r in enumerate(self.routes) if r]
            for name in self._PER_ROUTE:
                col = getattr(self, name)
                setattr(self, name, [col[i] for i in keep])
        self._rebuild_pos()

    def insert(self, r: int, ri: int, pi: int) -> None:
        """Insert r before position pi of route ri; ri < 0 opens a new route."""
        if ri < 0:
            self.commit({}, [[r]])
        else:
            route = self.routes[ri]
            self.commit({ri: route[:pi] + [r] + route[pi:]})

    def remove(self, r: int) -> None:
        ri, pi = self.pos[r]
        route = self.routes[ri]
        self.commit({ri: route[:pi] + route[pi + 1 :]})


@dataclass
class _Incumbent:
    objective: float
    routes: tuple[tuple[int, ...], ...]
    served: tuple[int, ...]

    def better_than(self, other: "_Incumbent | None") -> bool:
        if other is None:
            return True
        if self.objective > other.objective + _EPS:
            return True
        if self.objective < other.objective - _EPS:
            return False
        if len(self.routes) != len(other.routes):
            return len(self.routes) < len(other.routes)
        return self.served < other.served


def _signature(ind: Individual) -> tuple[frozenset, frozenset[int]]:
    pairs = frozenset(
        frozenset((ind.giant[i], ind.giant[i + 1])) for i in range(len(ind.giant) - 1)
    )
    return pairs, ind.served


def _sig_distance(a, b) -> int:
    """Broken giant-tour pairs plus the served-set symmetric difference."""
    return len(a[0] ^ b[0]) + len(a[1] ^ b[1])


class _Subpopulation(list):
    """The members of one subpopulation, with their signatures and their
    pairwise distance matrix kept in member order."""

    def __init__(self):
        super().__init__()
        self.sigs: list[tuple[frozenset, frozenset[int]]] = []
        self.dists: list[list[int]] = []

    def add(self, ind: Individual) -> None:
        sig = _signature(ind)
        row = [_sig_distance(sig, other) for other in self.sigs]
        for other_row, d in zip(self.dists, row):
            other_row.append(d)
        row.append(0)
        self.append(ind)
        self.sigs.append(sig)
        self.dists.append(row)

    def evict(self, i: int) -> Individual:
        del self.sigs[i]
        del self.dists[i]
        for row in self.dists:
            del row[i]
        return self.pop(i)


class Population:
    """Feasible/infeasible subpopulations with rank-based biased fitness.

    Fitness blends the objective rank with a diversity rank (summed distance
    to the closest neighbors; distance = broken giant-tour pairs plus
    served-set symmetric difference). Each subpopulation keeps its distance
    matrix between updates: a new member adds one row and column, an evicted
    one takes its own away. Survivor selection removes clones first and never
    evicts the elite by objective.
    """

    def __init__(self):
        self.feasible = _Subpopulation()
        self.infeasible = _Subpopulation()
        self._cache = None

    def members(self) -> list[Individual]:
        return self.feasible + self.infeasible

    def update(self, ind: Individual, cap_pen: float, tw_pen: float) -> None:
        sub = self.feasible if ind.feasible else self.infeasible
        sub.add(ind)
        self._cache = None
        if len(sub) > MU + LAM:
            self._select_survivors(sub, cap_pen, tw_pen)

    def _ranked(self, sub: _Subpopulation, cap_pen: float, tw_pen: float):
        """Biased fitness of each member (lower is better), and the members
        from best to worst objective.

        Fitness is the objective rank plus ``1 - ELITE/k`` times the diversity
        rank; diversity is the summed distance to the ``N_CLOSEST`` nearest
        other members, larger ranking better. A member's own zero sorts first
        in its row, so the nearest others follow it.
        """
        k = len(sub)
        if k == 0:
            return [], []
        objs = [ind.penalized_objective(cap_pen, tw_pen) for ind in sub]
        div = [-sum(sorted(row)[1 : N_CLOSEST + 1]) for row in sub.dists]
        by_obj = sorted(range(k), key=lambda i: -objs[i])
        obj_rank = [0] * k
        div_rank = [0] * k
        for rank, i in enumerate(by_obj):
            obj_rank[i] = rank
        for rank, i in enumerate(sorted(range(k), key=lambda i: div[i])):
            div_rank[i] = rank
        w = 1.0 - ELITE / k
        return [obj_rank[i] + w * div_rank[i] for i in range(k)], by_obj

    def _select_survivors(self, sub: _Subpopulation, cap_pen: float, tw_pen: float) -> None:
        while len(sub) > MU:
            k = len(sub)
            fitness, by_obj = self._ranked(sub, cap_pen, tw_pen)
            protected = set(by_obj[:ELITE])
            # the diagonal holds one zero; another marks a clone
            is_clone = [row.count(0) > 1 for row in sub.dists]
            victims = sorted(
                (i for i in range(k) if i not in protected or is_clone[i]),
                key=lambda i: (not is_clone[i], -fitness[i]),
            )
            sub.evict(victims[0])

    def tournament(self, rng: np.random.Generator, cap_pen: float, tw_pen: float) -> Individual:
        if self._cache is None:
            pool = self.members()
            fits = [
                f for sub in (self.feasible, self.infeasible)
                for f in self._ranked(sub, cap_pen, tw_pen)[0]
            ]
            self._cache = (pool, fits)
        pool, fits = self._cache
        i = int(rng.integers(0, len(pool)))
        j = int(rng.integers(0, len(pool)))
        return pool[i] if fits[i] <= fits[j] else pool[j]


class PcHgs:
    """One search run over one instance. Owns all mutable search state."""

    def __init__(self, inst: PcInstance, params: HgsParams | None = None):
        params = params or HgsParams()
        params.validate()
        self.inst = inst
        self.params = params
        self.ctx = EvalContext(inst)
        self.rng = np.random.default_rng([params.seed, inst.n_requests])
        add_in, add_out = preprocess(inst)
        self.forced_in = frozenset(inst.forced_in | add_in)
        self.forced_out = frozenset(inst.forced_out | add_out)
        self.allowed = [r for r in range(inst.n_requests) if r not in self.forced_out]
        self.prizes = list(inst.prizes)
        self.cap_pen = max(1.0, inst.max_cost() / max(1, max(inst.demand, default=1)))
        self.tw_pen = TW_PENALTY
        self._neighbors = self._granular_neighbors()
        self.pop = Population()
        self.incumbent: _Incumbent | None = None
        self.iterations = 0
        # Feasibility of the last ADAPT_PERIOD local-search outputs.
        self._ls_cap_feas: deque[bool] = deque(maxlen=ADAPT_PERIOD)
        self._ls_tw_feas: deque[bool] = deque(maxlen=ADAPT_PERIOD)
        # Route certificates (see local_search): interned route tuples, and per
        # (cap_pen, tw_pen) the ordered pairs of route ids known to be a fixed
        # point of the pair moves, RELOCATE* and SWAP*.
        self._route_ids: dict[tuple[int, ...], int] = {}
        self._certs: dict[tuple[float, float], set[tuple[int, int]]] = {}

    # ------------------------------------------------------------------ setup

    def _granular_neighbors(self) -> dict[int, list[int]]:
        ctx = self.ctx
        out: dict[int, list[int]] = {}
        for u in self.allowed:
            scored = []
            for v in self.allowed:
                if v == u:
                    continue
                tuv = ctx.t[u + 1][v + 1]
                wait = max(0, ctx.open[v] - (ctx.close[u] + ctx.service[u] + tuv))
                late = max(0, (ctx.open[u] + ctx.service[u] + tuv) - ctx.close[v])
                scored.append((tuv + wait + late, v))
            scored.sort()
            out[u] = [v for _, v in scored[:GRANULARITY]]
        return out

    # ------------------------------------------------------- individual admin

    def _refresh(self, ind: Individual, work: _Work) -> None:
        ind.routes = [list(r) for r in work.routes]
        ind.giant = [v for r in work.routes for v in r]
        ind.cost = sum(s[0] for s in work.stats)
        ind.cap_excess = sum(s[1] for s in work.stats)
        ind.tw_warp = sum(s[2] for s in work.stats)
        ind.prize_sum = float(sum(self.prizes[v] for v in ind.giant))
        ind.feasible = ind.cap_excess == 0 and ind.tw_warp == 0

    def make_individual(self, routes) -> Individual:
        ind = Individual(giant=[], routes=[])
        self._refresh(ind, _Work(self.ctx, routes))
        return ind

    def _repair(self, routes) -> list[list[int]]:
        seen: set[int] = set()
        cleaned: list[list[int]] = []
        for route in routes:
            keep = [
                v
                for v in route
                if 0 <= v < self.inst.n_requests and v not in self.forced_out and v not in seen
            ]
            seen.update(keep)
            if keep:
                cleaned.append(keep)
        work = _Work(self.ctx, cleaned)
        for r in sorted(self.forced_in - seen):
            self._apply_best_insertion(work, r)
        return [list(r) for r in work.routes]

    # ------------------------------------------------------------------ split

    def split(self, giant: list[int]) -> list[list[int]]:
        """Penalty-aware linear split of a giant tour into routes.

        From each start j the route giant[j:i] grows one visit at a time. A
        visit released after the current departure moves the departure to
        its release; the walk then restarts at j, and the routes it already
        scored, which leave earlier, are not scored again.
        """
        ctx = self.ctx
        n = len(giant)
        if n == 0:
            return []
        best = [math.inf] * (n + 1)
        choice = [0] * (n + 1)
        best[0] = 0.0
        t = ctx.t
        release = ctx.release
        cap_pen, tw_pen = self.cap_pen, self.tw_pen
        for j in range(n):
            if best[j] == math.inf:
                continue
            dep = time = ctx.departure
            load = warp = cost_to_last = prev = 0
            scored = i = j
            while i < n:
                v = giant[i]
                if release is not None and release[v] > dep:
                    dep = time = release[v]
                    load = warp = cost_to_last = prev = 0
                    i = j
                    continue
                m = v + 1
                arc = t[prev][m]
                cost_to_last += arc
                time += arc
                if time < ctx.open[v]:
                    time = ctx.open[v]
                if time > ctx.close[v]:
                    warp += time - ctx.close[v]
                    time = ctx.close[v]
                time += ctx.service[v]
                load += ctx.demand[v]
                prev = m
                i += 1
                if i <= scored:
                    continue
                scored = i
                route_cost = cost_to_last + t[prev][0]
                route_warp = warp + max(0, time + t[prev][0] - ctx.horizon)
                capex = max(0, load - ctx.capacity)
                pen = route_cost + cap_pen * capex + tw_pen * route_warp
                if best[j] + pen < best[i]:
                    best[i] = best[j] + pen
                    choice[i] = j
        routes: list[list[int]] = []
        i = n
        while i > 0:
            j = choice[i]
            routes.append(giant[j:i])
            i = j
        routes.reverse()
        return routes

    # ------------------------------------------------------------ insertions

    def _best_insertion(self, work: _Work, r: int) -> tuple[float, int, int]:
        """Cheapest penalized insertion of request r: (delta, route_idx, position).

        route_idx == -1 means a fresh single-request route.

        A gap is walked only when its integer arc cost plus the capacity term
        beats the bound: summed in ``penalized_bounded``'s order, that is a
        lower bound on the penalized cost, so a gap it rejects is one the
        walk would reject too.
        """
        ctx = self.ctx
        t = ctx.t
        rm = r + 1
        cap_pen, tw_pen = self.cap_pen, self.tw_pen
        best = (ctx.penalized([r], cap_pen, tw_pen), -1, 0)
        for ri, route in enumerate(work.routes):
            old = work.route_pen(ri, cap_pen, tw_pen)
            cost = work.stats[ri][0]
            cap_term = cap_pen * max(0, work.loads[ri] + ctx.demand[r] - ctx.capacity)
            prev = 0
            for pi in range(len(route) + 1):
                nxt = route[pi] + 1 if pi < len(route) else 0
                bound = old + best[0] - _EPS
                if cost + t[prev][rm] + t[rm][nxt] - t[prev][nxt] + cap_term < bound:
                    cand = route[:pi] + [r] + route[pi:]
                    pen = ctx.penalized_bounded(cand, cap_pen, tw_pen, bound)
                    if pen is not None:
                        best = (pen - old, ri, pi)
                prev = nxt
        return best

    def _apply_best_insertion(self, work: _Work, r: int) -> float:
        delta, ri, pi = self._best_insertion(work, r)
        work.insert(r, ri, pi)
        return delta

    def _removal_saving(self, work: _Work, r: int) -> float:
        ri, pi = work.pos[r]
        route = work.routes[ri]
        cand = route[:pi] + route[pi + 1 :]
        old = work.route_pen(ri, self.cap_pen, self.tw_pen)
        new = self.ctx.penalized(cand, self.cap_pen, self.tw_pen) if cand else 0.0
        return old - new

    # ---------------------------------------------------------- local search

    def local_search(self, ind: Individual) -> None:
        """Improve ``ind`` in place to a fixed point of the full move set.

        The routes it returns are a fixed point of the pair moves, RELOCATE*
        and SWAP* under the current penalties, so every ordered pair of them
        is recorded as certified for those penalties. Each of these moves
        reads only its own one or two routes and the penalties, so in a later
        search a move on a certified pair would again find nothing: skipping
        it is exact, and the search takes the same path. The premise rests on
        the sweeps' own skips being exact too: they skip a request's moves
        only on routes unchanged since it last came out of that sweep unmoved.
        """
        work = _Work(self.ctx, ind.routes)
        certs = self._certs.setdefault((self.cap_pen, self.tw_pen), set())
        seen: tuple[dict, dict, dict] = ({}, {}, {})
        while True:
            while self._traditional_sweep(work, seen, certs):
                pass
            if not self._request_set_sweep(work):
                break
        ids = [self._route_ids.setdefault(tuple(r), len(self._route_ids)) for r in work.routes]
        certs.update((a, b) for a in ids for b in ids)
        self._refresh(ind, work)
        self._ls_cap_feas.append(ind.cap_excess == 0)
        self._ls_tw_feas.append(ind.tw_warp == 0)

    def _improve(self, ind: Individual) -> None:
        """Local search plus a repair pass: infeasible outputs are re-searched
        under 10x penalties half of the time."""
        self.local_search(ind)
        if not ind.feasible and self.rng.random() < 0.5:
            saved = (self.cap_pen, self.tw_pen)
            self.cap_pen, self.tw_pen = saved[0] * 10.0, saved[1] * 10.0
            try:
                self.local_search(ind)
            finally:
                self.cap_pen, self.tw_pen = saved

    def _rid(self, work: _Work, ri: int) -> int:
        """Interned id of route ri, or -1 when it was never certified. The
        table only grows when a local search ends, so the cached answer
        holds for the life of ``work``."""
        rid = work.rids[ri]
        if rid is None:
            rid = work.rids[ri] = self._route_ids.get(tuple(work.routes[ri]), -1)
        return rid

    def _traditional_sweep(self, work: _Work, seen: tuple, certs: set) -> bool:
        """One pass of pair moves over every served request, then RELOCATE*
        and SWAP*. ``seen`` holds one dict per neighbourhood (pair moves,
        RELOCATE*, SWAP*), mapping a request to the commit counter at which
        it last came out of that neighbourhood unmoved."""
        improved = False
        pair_seen, relocate_seen, swap_seen = seen
        order = list(work.pos)
        self.rng.shuffle(order)
        for u in order:
            # commit replaces pos and version: read them afresh per request
            pos = work.pos
            version = work.version
            ru = pos[u][0]
            last = pair_seen.get(u, -1)
            fresh_u = version[ru] > last
            cu = self._rid(work, ru) if certs else -1
            clean = True
            for v in self._neighbors[u]:
                pv = pos.get(v)
                if pv is None:
                    continue
                if not fresh_u and version[pv[0]] <= last:
                    continue
                if cu >= 0 and (cu, self._rid(work, pv[0])) in certs:
                    continue
                if self._try_pair_moves(work, u, v):
                    improved = True
                    clean = False
                    break
            if clean:
                pair_seen[u] = work.counter
        if self._relocate_star(work, relocate_seen, certs):
            improved = True
        if self._swap_star(work, swap_seen, certs):
            improved = True
        return improved

    def _try_candidate(self, work: _Work, changes: dict[int, list[int]], new_routes=()) -> bool:
        """Evaluate one move; commit and report True when it strictly improves."""
        cap_pen, tw_pen = self.cap_pen, self.tw_pen
        ctx = self.ctx
        old = 0.0
        for ri in changes:
            old += work.route_pen(ri, cap_pen, tw_pen)
        bound = old - _EPS
        total = 0.0
        for visits in changes.values():
            if not visits:
                continue
            pen = ctx.penalized_bounded(visits, cap_pen, tw_pen, bound - total)
            if pen is None:
                return False
            total += pen
        for visits in new_routes:
            pen = ctx.penalized_bounded(visits, cap_pen, tw_pen, bound - total)
            if pen is None:
                return False
            total += pen
        work.commit(changes, new_routes)
        return True

    def _try_pair_moves(self, work: _Work, u: int, v: int) -> bool:
        if work.pos[u][0] == work.pos[v][0]:
            return self._try_same_route_moves(work, u, v)
        return self._try_cross_route_moves(work, u, v)

    def _try_same_route_moves(self, work: _Work, u: int, v: int) -> bool:
        """Relocations, block swaps and 2-opt of (u, v) within one route.

        Every move reorders segments of the route, so the candidate's integer
        cost follows from the arc prefixes without building it. The load is
        unchanged, so ``new_cost + cap_pen * cap_excess`` bounds the penalized
        cost from below, summed in the order ``penalized_bounded`` sums it:
        a candidate this bound rejects is one the walk would reject too.
        """
        ru, pu = work.pos[u]
        pv = work.pos[v][1]
        route = work.routes[ru]
        t = self.ctx.t
        arc_pref = work.arc_pref[ru]
        rev_pref = work.rev_pref[ru]
        cap_term = self.cap_pen * work.stats[ru][1]
        bound = work.route_pen(ru, self.cap_pen, self.tw_pen) - _EPS
        for plan in _same_route_plans(len(route), pu, pv):
            if _plan_cost(t, route, arc_pref, rev_pref, plan) + cap_term >= bound:
                continue
            if self._try_candidate(work, {ru: _apply_plan(route, plan)}):
                return True
        return False

    def _try_cross_route_moves(self, work: _Work, u: int, v: int) -> bool:
        """Cross-route moves: O(1) cost/load screening, then a bounded walk.

        The screen uses new_cost + cap_penalty * new_capacity_excess as a lower
        bound on the new penalized cost (time warp is non-negative), so no
        improving move is ever screened out.
        """
        ctx = self.ctx
        t = ctx.t
        dem = ctx.demand
        cap = ctx.capacity
        cap_pen, tw_pen = self.cap_pen, self.tw_pen
        ru, pu = work.pos[u]
        rv, pv = work.pos[v]
        route_u = work.routes[ru]
        route_v = work.routes[rv]
        cost_u, capex_u, warp_u = work.stats[ru]
        cost_v, capex_v, warp_v = work.stats[rv]
        load_u = work.loads[ru]
        load_v = work.loads[rv]
        old_pen = (
            cost_u + cost_v
            + cap_pen * (capex_u + capex_v)
            + tw_pen * (warp_u + warp_v)
        )
        bound = old_pen - _EPS
        um = u + 1
        vm = v + 1
        a_u = route_u[pu - 1] + 1 if pu > 0 else 0
        b_u = route_u[pu + 1] + 1 if pu + 1 < len(route_u) else 0
        a_v = route_v[pv - 1] + 1 if pv > 0 else 0
        b_v = route_v[pv + 1] + 1 if pv + 1 < len(route_v) else 0
        succ_u = route_u[pu + 1] if pu + 1 < len(route_u) else None
        succ_v = route_v[pv + 1] if pv + 1 < len(route_v) else None

        def screen(new_cost_u, new_cost_v, new_load_u, new_load_v) -> bool:
            lb = new_cost_u + new_cost_v
            if new_load_u > cap:
                lb += cap_pen * (new_load_u - cap)
            if new_load_v > cap:
                lb += cap_pen * (new_load_v - cap)
            return lb < bound

        def walk_commit(new_u: list[int], new_v: list[int]) -> bool:
            total = 0.0
            if new_u:
                pen = ctx.penalized_bounded(new_u, cap_pen, tw_pen, bound)
                if pen is None:
                    return False
                total = pen
            if new_v:
                pen = ctx.penalized_bounded(new_v, cap_pen, tw_pen, bound - total)
                if pen is None:
                    return False
            work.commit({ru: new_u, rv: new_v})
            return True

        # relocate u after / before v
        rm_u = t[a_u][um] + t[um][b_u] - t[a_u][b_u]
        for before in (False, True):
            c, d = (a_v, vm) if before else (vm, b_v)
            ins = t[c][um] + t[um][d] - t[c][d]
            if screen(cost_u - rm_u, cost_v + ins, load_u - dem[u], load_v + dem[u]):
                at = pv + (0 if before else 1)
                if walk_commit(
                    route_u[:pu] + route_u[pu + 1 :],
                    route_v[:at] + [u] + route_v[at:],
                ):
                    return True

        # relocate the pair (u, succ_u) after v, forward and reversed
        if succ_u is not None:
            sm = succ_u + 1
            b2_u = route_u[pu + 2] + 1 if pu + 2 < len(route_u) else 0
            rm_pair = t[a_u][um] + t[um][sm] + t[sm][b2_u] - t[a_u][b2_u]
            pair_load = dem[u] + dem[succ_u]
            src = route_u[:pu] + route_u[pu + 2 :]
            for block in ((u, succ_u), (succ_u, u)):
                x, y = block[0] + 1, block[1] + 1
                ins = t[vm][x] + t[x][y] + t[y][b_v] - t[vm][b_v]
                if screen(cost_u - rm_pair, cost_v + ins, load_u - pair_load, load_v + pair_load):
                    if walk_commit(src, route_v[: pv + 1] + list(block) + route_v[pv + 1 :]):
                        return True

        # swap u <-> v
        du = t[a_u][vm] + t[vm][b_u] - (t[a_u][um] + t[um][b_u])
        dv = t[a_v][um] + t[um][b_v] - (t[a_v][vm] + t[vm][b_v])
        if screen(
            cost_u + du, cost_v + dv,
            load_u - dem[u] + dem[v], load_v - dem[v] + dem[u],
        ):
            if walk_commit(
                route_u[:pu] + [v] + route_u[pu + 1 :],
                route_v[:pv] + [u] + route_v[pv + 1 :],
            ):
                return True

        # swap pair (u, succ_u) <-> v and <-> pair (v, succ_v)
        if succ_u is not None:
            sm = succ_u + 1
            b2_u = route_u[pu + 2] + 1 if pu + 2 < len(route_u) else 0
            pair_load_u = dem[u] + dem[succ_u]
            du_pair = t[a_u][vm] + t[vm][b2_u] - (t[a_u][um] + t[um][sm] + t[sm][b2_u])
            dv_single = (
                t[a_v][um] + t[um][sm] + t[sm][b_v] - (t[a_v][vm] + t[vm][b_v])
            )
            if screen(
                cost_u + du_pair, cost_v + dv_single,
                load_u - pair_load_u + dem[v], load_v - dem[v] + pair_load_u,
            ):
                if walk_commit(
                    route_u[:pu] + [v] + route_u[pu + 2 :],
                    route_v[:pv] + [u, succ_u] + route_v[pv + 1 :],
                ):
                    return True
            if succ_v is not None:
                svm = succ_v + 1
                b2_v = route_v[pv + 2] + 1 if pv + 2 < len(route_v) else 0
                pair_load_v = dem[v] + dem[succ_v]
                du2 = t[a_u][vm] + t[svm][b2_u] - (t[a_u][um] + t[sm][b2_u]) + (
                    t[vm][svm] - t[um][sm]
                )
                dv2 = t[a_v][um] + t[sm][b2_v] - (t[a_v][vm] + t[svm][b2_v]) + (
                    t[um][sm] - t[vm][svm]
                )
                if screen(
                    cost_u + du2, cost_v + dv2,
                    load_u - pair_load_u + pair_load_v,
                    load_v - pair_load_v + pair_load_u,
                ):
                    if walk_commit(
                        route_u[:pu] + [v, succ_v] + route_u[pu + 2 :],
                        route_v[:pv] + [u, succ_u] + route_v[pv + 2 :],
                    ):
                        return True

        # 2-opt*: exchange tails after u and after v
        ap_u = work.arc_pref[ru]
        ap_v = work.arc_pref[rv]
        lp_u = work.load_pref[ru]
        lp_v = work.load_pref[rv]
        head_cost_u = ap_u[pu]
        head_cost_v = ap_v[pv]
        tail_load_u = load_u - lp_u[pu]
        tail_load_v = load_v - lp_v[pv]
        if b_v:
            tail_cost_v = cost_v - ap_v[pv + 1]
            new_cost_u = head_cost_u + t[um][b_v] + tail_cost_v
        else:
            new_cost_u = head_cost_u + t[um][0]
        if b_u:
            tail_cost_u = cost_u - ap_u[pu + 1]
            new_cost_v = head_cost_v + t[vm][b_u] + tail_cost_u
        else:
            new_cost_v = head_cost_v + t[vm][0]
        if screen(
            new_cost_u, new_cost_v,
            lp_u[pu] + tail_load_v, lp_v[pv] + tail_load_u,
        ):
            if walk_commit(
                route_u[: pu + 1] + route_v[pv + 1 :],
                route_v[: pv + 1] + route_u[pu + 1 :],
            ):
                return True
        return False

    def _relocate_star(self, work: _Work, seen: dict, certs: set) -> bool:
        """Move single requests to their arc-cheapest slot in another (or new) route.

        A target is skipped when it and u's route are unchanged since u last
        came out of this sweep unmoved, or when the pair is certified: it was
        tested unimproving on identical routes.
        """
        improved = False
        ctx = self.ctx
        t = ctx.t
        cap = ctx.capacity
        dem = ctx.demand
        cap_pen, tw_pen = self.cap_pen, self.tw_pen
        for u in list(work.pos):
            ru, pu = work.pos[u]
            version = work.version
            last = seen.get(u, -1)
            fresh_u = version[ru] > last
            src_route = work.routes[ru]
            src_new = None
            um = u + 1
            a_u = src_route[pu - 1] + 1 if pu > 0 else 0
            b_u = src_route[pu + 1] + 1 if pu + 1 < len(src_route) else 0
            src_cost = work.stats[ru][0] - (t[a_u][um] + t[um][b_u] - t[a_u][b_u])
            src_load = work.loads[ru] - dem[u]
            old_u = work.route_pen(ru, cap_pen, tw_pen)
            cu = self._rid(work, ru) if certs else -1
            best = None
            for rv, route in enumerate(work.routes):
                if rv == ru or (not fresh_u and version[rv] <= last):
                    continue
                if cu >= 0 and (cu, self._rid(work, rv)) in certs:
                    continue
                ins_arc, gap = self._top3(work, rv, u)[0]
                lb = src_cost + work.stats[rv][0] + ins_arc
                new_load_v = work.loads[rv] + dem[u]
                if src_load > cap:
                    lb += cap_pen * (src_load - cap)
                if new_load_v > cap:
                    lb += cap_pen * (new_load_v - cap)
                old = old_u + work.route_pen(rv, cap_pen, tw_pen)
                if lb >= old - _EPS:
                    continue
                if src_new is None:
                    src_new = src_route[:pu] + src_route[pu + 1 :]
                pen_src = ctx.penalized_bounded(src_new, cap_pen, tw_pen, old) if src_new else 0.0
                if pen_src is None:
                    continue
                cand = route[:gap] + [u] + route[gap:]
                pen_cand = ctx.penalized_bounded(cand, cap_pen, tw_pen, old - pen_src - _EPS)
                if pen_cand is None:
                    continue
                delta = pen_src + pen_cand - old
                if best is None or delta < best[0]:
                    best = (delta, rv, cand)
            if len(src_route) > 1 and fresh_u and (cu < 0 or (cu, cu) not in certs):
                old = old_u
                lb = src_cost + t[0][um] + t[um][0]
                if lb < old - _EPS:
                    if src_new is None:
                        src_new = src_route[:pu] + src_route[pu + 1 :]
                    pen_src = ctx.penalized_bounded(src_new, cap_pen, tw_pen, old) if src_new else 0.0
                    if pen_src is not None:
                        pen_cand = ctx.penalized_bounded([u], cap_pen, tw_pen, old - pen_src - _EPS)
                        if pen_cand is not None:
                            delta = pen_src + pen_cand - old
                            if best is None or delta < best[0]:
                                best = (delta, -1, [u])
            if best is not None:
                _, rv, cand = best
                if rv < 0:
                    work.commit({ru: src_new}, [cand])
                else:
                    work.commit({ru: src_new, rv: cand})
                improved = True
            else:
                seen[u] = work.counter
        return improved

    def _swap_star(self, work: _Work, seen: dict, certs: set) -> bool:
        """Exchange two requests across routes, each at its arc-cheapest slot.

        Pairs are skipped as in ``_relocate_star``. Insertion detours come
        from the per-route top-3 tables, and candidate lists are built only
        for pairs whose arc lower bound passes.
        """
        improved = False
        ctx = self.ctx
        t = ctx.t
        cap = ctx.capacity
        dem = ctx.demand
        cap_pen, tw_pen = self.cap_pen, self.tw_pen
        for u in list(work.pos):
            ru, pu = work.pos[u]
            version = work.version
            last = seen.get(u, -1)
            fresh_u = version[ru] > last
            cu = self._rid(work, ru) if certs else -1
            clean = True
            for v in self._neighbors[u]:
                if v not in work.pos:
                    continue
                rv, pv = work.pos[v]
                if rv == ru or (not fresh_u and version[rv] <= last):
                    continue
                if cu >= 0 and (cu, self._rid(work, rv)) in certs:
                    continue
                route_u = work.routes[ru]
                route_v = work.routes[rv]
                um, vm = u + 1, v + 1
                a_u = route_u[pu - 1] + 1 if pu > 0 else 0
                b_u = route_u[pu + 1] + 1 if pu + 1 < len(route_u) else 0
                a_v = route_v[pv - 1] + 1 if pv > 0 else 0
                b_v = route_v[pv + 1] + 1 if pv + 1 < len(route_v) else 0
                cost_wu = work.stats[ru][0] - (t[a_u][um] + t[um][b_u] - t[a_u][b_u])
                cost_wv = work.stats[rv][0] - (t[a_v][vm] + t[vm][b_v] - t[a_v][b_v])
                gap_u, ins_v = self._insert_without(work, ru, pu, v)
                gap_v, ins_u = self._insert_without(work, rv, pv, u)
                lb = cost_wu + ins_v + cost_wv + ins_u
                load_u = work.loads[ru] - dem[u] + dem[v]
                load_v = work.loads[rv] - dem[v] + dem[u]
                if load_u > cap:
                    lb += cap_pen * (load_u - cap)
                if load_v > cap:
                    lb += cap_pen * (load_v - cap)
                old = work.route_pen(ru, cap_pen, tw_pen) + work.route_pen(rv, cap_pen, tw_pen)
                if lb >= old - _EPS:
                    continue
                cand_u = route_u[:pu] + route_u[pu + 1 :]
                cand_u.insert(gap_u, v)
                pen_u = ctx.penalized_bounded(cand_u, cap_pen, tw_pen, old - _EPS)
                if pen_u is None:
                    continue
                cand_v = route_v[:pv] + route_v[pv + 1 :]
                cand_v.insert(gap_v, u)
                pen_v = ctx.penalized_bounded(cand_v, cap_pen, tw_pen, old - pen_u - _EPS)
                if pen_v is None:
                    continue
                work.commit({ru: cand_u, rv: cand_v})
                improved = True
                clean = False
                break
            if clean:
                seen[u] = work.counter
        return improved

    def _top3(self, work: _Work, ri: int, x: int) -> list[tuple[int, int]]:
        """The three cheapest arc insertions of x into route ri, as sorted
        (detour, gap) pairs; gap g inserts before ``route[g]``. Cached on
        ``work`` until the route is replaced."""
        cache = work.top3[ri]
        top = cache.get(x)
        if top is None:
            t = self.ctx.t
            route = work.routes[ri]
            xm = x + 1
            prev = 0
            opts = []
            for g in range(len(route) + 1):
                nxt = route[g] + 1 if g < len(route) else 0
                opts.append((t[prev][xm] + t[xm][nxt] - t[prev][nxt], g))
                prev = nxt
            opts.sort()
            top = cache[x] = opts[:3]
        return top

    def _insert_without(self, work: _Work, ri: int, p: int, x: int) -> tuple[int, int]:
        """Cheapest arc insertion of x into route ri minus its visit at p:
        (gap in the shortened route, detour), ties to the lowest gap.

        Removing the visit destroys gaps p and p + 1 and opens one merged gap,
        so the first surviving entry of the top-3 table is the best old gap.
        """
        route = work.routes[ri]
        t = self.ctx.t
        a = route[p - 1] + 1 if p > 0 else 0
        b = route[p + 1] + 1 if p + 1 < len(route) else 0
        xm = x + 1
        merged = t[a][xm] + t[xm][b] - t[a][b]
        for detour, g in self._top3(work, ri, x):
            if g < p:
                return (g, detour) if detour <= merged else (p, merged)
            if g > p + 1:
                return (g - 1, detour) if detour < merged else (p, merged)
        return p, merged

    def _request_set_sweep(self, work: _Work) -> bool:
        """serve-request / remove-request neighborhoods (prize-aware)."""
        changed = False
        for r in sorted(set(self.allowed) - work.served()):
            delta, ri, pi = self._best_insertion(work, r)
            if self.prizes[r] - delta > _EPS:
                work.insert(r, ri, pi)
                changed = True
        for r in sorted(work.served()):
            if r in self.forced_in:
                continue
            saving = self._removal_saving(work, r)
            if saving - self.prizes[r] > _EPS:
                work.remove(r)
                changed = True
        return changed

    # ------------------------------------------------------------- operators

    def srex_crossover(self, a: Individual, b: Individual) -> Individual:
        """Selective route exchange; parent a's served set is preserved."""
        rng = self.rng
        child_routes = [list(r) for r in a.routes]
        target = set(a.served) - self.forced_out
        if child_routes:
            k = int(rng.integers(1, max(2, len(child_routes) // 2 + 1)))
            drop = set(rng.permutation(len(child_routes))[:k].tolist())
            child_routes = [r for i, r in enumerate(child_routes) if i not in drop]
        present = {v for r in child_routes for v in r}
        if b.routes:
            k = int(rng.integers(1, max(2, len(b.routes) // 2 + 1)))
            for i in rng.permutation(len(b.routes))[:k].tolist():
                filtered = [
                    v for v in b.routes[i] if v not in present and v not in self.forced_out
                ]
                if filtered:
                    child_routes.append(filtered)
                    present.update(filtered)
        missing = sorted(target - present)
        self.rng.shuffle(missing)
        work = _Work(self.ctx, child_routes)
        for r in missing:
            self._apply_best_insertion(work, r)
        child = Individual(giant=[], routes=[])
        self._refresh(child, work)
        return child

    def mutate_random_remove_insert(self, ind: Individual) -> None:
        """Coin-toss mutation: drop a slice of served or insert a slice of unserved."""
        rng = self.rng
        if rng.random() >= P_MUT:
            return
        work = _Work(self.ctx, ind.routes)
        served = work.served()
        if rng.random() < 0.5:
            pool = sorted(served - self.forced_in)
            k = min(int(ALPHA_RM * len(served)), len(pool))
            for r in (rng.permutation(pool)[:k].tolist() if k > 0 else []):
                work.remove(r)
        else:
            pool = sorted(set(self.allowed) - served)
            k = min(int(ALPHA_INS * len(pool)), len(pool))
            for r in (rng.permutation(pool)[:k].tolist() if k > 0 else []):
                self._apply_best_insertion(work, r)
        self._refresh(ind, work)

    def optimize_request_set(self, ind: Individual, perturb: bool) -> bool:
        """Drop served requests whose removal saving beats their prize, then add
        unserved ones whose cheapest insertion detour is below their prize.

        With ``perturb`` each saving/detour is scaled by an independent uniform
        draw from [DELTA_LO, DELTA_HI] before the comparison.
        """
        rng = self.rng
        work = _Work(self.ctx, ind.routes)
        changed = False
        for r in sorted(work.served()):
            if r in self.forced_in:
                continue
            saving = self._removal_saving(work, r)
            factor = float(rng.uniform(DELTA_LO, DELTA_HI)) if perturb else 1.0
            if saving * factor > self.prizes[r] + _EPS:
                work.remove(r)
                changed = True
        for r in sorted(set(self.allowed) - work.served()):
            delta, ri, pi = self._best_insertion(work, r)
            factor = float(rng.uniform(DELTA_LO, DELTA_HI)) if perturb else 1.0
            if delta * factor < self.prizes[r] - _EPS:
                work.insert(r, ri, pi)
                changed = True
        if changed:
            self._refresh(ind, work)
        return changed

    # ------------------------------------------------------------ main loop

    def _random_individual(self) -> Individual:
        rng = self.rng
        perm = [int(x) for x in rng.permutation(self.allowed)] if self.allowed else []
        if perm and rng.random() < 0.5:
            keep_p = float(rng.uniform(0.2, 1.0))
            kept = [r for r in perm if r in self.forced_in or rng.random() < keep_p]
        else:
            kept = perm
        return self.make_individual(self.split(kept))

    @staticmethod
    def _as_incumbent(ind: Individual) -> _Incumbent:
        return _Incumbent(
            objective=ind.prize_sum - ind.cost,
            routes=tuple(sorted(tuple(r) for r in ind.routes)),
            served=tuple(sorted(ind.giant)),
        )

    def _consider_incumbent(self, ind: Individual) -> None:
        if not ind.feasible:
            return
        cand = self._as_incumbent(ind)
        if not cand.better_than(self.incumbent):
            return
        self.incumbent = cand
        # Intensify a copy around the new best; keep it only if it helps.
        copy = self.make_individual([list(r) for r in ind.routes])
        if self.optimize_request_set(copy, perturb=False):
            self.local_search(copy)
            if copy.feasible:
                cand2 = self._as_incumbent(copy)
                if cand2.better_than(self.incumbent):
                    self.incumbent = cand2

    def _adapt_penalties(self) -> None:
        cap_window = self._ls_cap_feas
        tw_window = self._ls_tw_feas
        if not cap_window:
            return
        frac_cap = sum(cap_window) / len(cap_window)
        frac_tw = sum(tw_window) / len(tw_window)
        if frac_cap < 0.2:
            self.cap_pen *= PENALTY_UP
        elif frac_cap > 0.6:
            self.cap_pen *= PENALTY_DOWN
        if frac_tw < 0.2:
            self.tw_pen *= PENALTY_UP
        elif frac_tw > 0.6:
            self.tw_pen *= PENALTY_DOWN
        self.cap_pen = min(max(self.cap_pen, PENALTY_LO), PENALTY_HI)
        self.tw_pen = min(max(self.tw_pen, PENALTY_LO), PENALTY_HI)

    def _insert_new(self, ind: Individual) -> None:
        self._consider_incumbent(ind)
        self.pop.update(ind, self.cap_pen, self.tw_pen)

    def _construction_order(self) -> list[int]:
        """Release-sorted nearest-neighbor chain over the allowed requests."""
        ctx = self.ctx
        groups: dict[int, list[int]] = {}
        for r in self.allowed:
            rel = ctx.release[r] if ctx.release is not None else 0
            groups.setdefault(rel, []).append(r)
        order: list[int] = []
        prev = 0
        for rel in sorted(groups):
            remaining = set(groups[rel])
            while remaining:
                nxt = min(remaining, key=lambda v: (ctx.t[prev][v + 1], v))
                order.append(nxt)
                remaining.remove(nxt)
                prev = nxt + 1
        return order

    def initialize(self, warm_start=None) -> None:
        if warm_start:
            for sol in warm_start:
                ind = self.make_individual(self._repair([list(r) for r in sol.routes]))
                self.optimize_request_set(ind, perturb=False)
                self._improve(ind)
                self._insert_new(ind)
        base = self.make_individual([[r] for r in sorted(self.forced_in)])
        self._consider_incumbent(base)
        self._improve(base)
        self._insert_new(base)
        seeded = self.make_individual(self.split(self._construction_order()))
        self._improve(seeded)
        self._insert_new(seeded)
        target = self.params.init_pool or (MU + LAM)
        while len(self.pop.members()) < target:
            ind = self._random_individual()
            self._improve(ind)
            self._insert_new(ind)

    def run(self, warm_start=None) -> PcSolution:
        p = self.params
        t0 = _time.perf_counter()
        if self.inst.n_requests == 0:
            return PcSolution(routes=(), served=frozenset(), objective=0.0)
        for r in sorted(self.forced_in):
            if self.ctx.eval_route([r])[1:] != (0, 0):
                raise PcInfeasibleError(
                    f"forced-in request {r} cannot be served even on its own route"
                )
        self.initialize(warm_start)
        budget_mode = "iterations" if p.budget_s is None else "wall_clock"
        stall = 0
        last_best = self.incumbent.objective if self.incumbent else -math.inf
        while True:
            if p.budget_s is not None and _time.perf_counter() - t0 >= p.budget_s:
                break
            if p.budget_iters is not None and self.iterations >= p.budget_iters:
                break
            if p.stall_iters is not None and stall >= p.stall_iters:
                break
            a = self.pop.tournament(self.rng, self.cap_pen, self.tw_pen)
            b = self.pop.tournament(self.rng, self.cap_pen, self.tw_pen)
            child = self.srex_crossover(a, b)
            self.mutate_random_remove_insert(child)
            self._improve(child)
            if self.rng.random() < P_OPT:
                if self.optimize_request_set(child, perturb=True):
                    self._improve(child)
            self._insert_new(child)
            self.iterations += 1
            if self.incumbent and self.incumbent.objective > last_best + _EPS:
                last_best = self.incumbent.objective
                stall = 0
            else:
                stall += 1
            if self.iterations % ADAPT_PERIOD == 0:
                self._adapt_penalties()
        if self.incumbent is None:
            raise PcInfeasibleError("no feasible solution found within budget")
        served = frozenset(v for r in self.incumbent.routes for v in r)
        cost = sum(self.ctx.route_cost(list(r)) for r in self.incumbent.routes)
        objective = float(sum(self.prizes[v] for v in sorted(served)) - cost)
        return PcSolution(
            routes=self.incumbent.routes,
            served=served,
            objective=objective,
            iterations=self.iterations,
            budget_mode=budget_mode,
        )


# ---------------------------------------------------------------- entry point


def solve(inst: PcInstance, params: HgsParams | None = None, warm_start=None) -> PcSolution:
    """Best feasible prize-collecting solution under the given budget."""
    return PcHgs(inst, params).run(warm_start=warm_start)
