"""Lazy Metropolis random walk over the parallelepiped partition of the normal fan.

Every normal cone of the (bounded) feasible polytope is tiled by translates
of the cell spanned by its basis rows scaled to length 1/n^2.  The walk moves
between facet-adjacent cells, weighting a cell P by

    f(P) = exp(-||z_P - alpha*c||_1) * (1/n^2)^n * |det(A_B)|

with z_P the cell center.  Crossing a cone facet is a simplex pivot, so the
walk drives the vertex bookkeeping for free.  As soon as the objective lies
in the current cone, the current basis is optimal and the walk stops.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from itertools import chain
from typing import IO, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConewalkError
from .geometry import det_abs
from .jsonio import json_line
from .lp import NormalizedLP
from .simplex import Basis, Vertex, basis_matrix, cone_membership, pivot_across_facet

Direction = tuple[int, int]  # (basis row, +1 outward / -1 toward the facet)


@dataclass(frozen=True)
class Parallelepiped:
    """One grid cell: a basis plus lattice coordinates along its rays."""

    basis: Basis
    index: tuple[int, ...]  # aligned with the sorted basis, entries >= 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis", tuple(sorted(self.basis)))
        object.__setattr__(self, "index", tuple(int(k) for k in self.index))
        if len(self.index) != len(self.basis):
            raise ValueError("index length must match basis size")
        if any(k < 0 for k in self.index):
            raise ValueError("index entries must be non-negative")

    def coordinate(self, row: int) -> int:
        return self.index[self.basis.index(row)]


@dataclass(frozen=True)
class WalkConfig:
    """Walk parameters.  alpha=None / steps=None resolve from (n, delta)."""

    alpha: float | None = None
    steps: int | None = None
    seed: int = 0
    trace: IO[str] | None = None

    def resolved(self, n: int, delta: float | None) -> "WalkConfig":
        """Fill in the auto fields; requires delta when any field is auto."""
        alpha, steps = self.alpha, self.steps
        if alpha is None or steps is None:
            if delta is None:
                raise ValueError("delta is required to resolve auto walk parameters")
            if alpha is None:
                alpha = default_alpha(n, delta)
            if steps is None:
                steps = default_steps(n, delta)
        if not alpha > 0.0:
            raise ValueError("alpha must be > 0")
        if steps < 0:
            raise ValueError("steps must be >= 0")
        if delta is not None and alpha < 2.0 * n**3 / delta:
            warnings.warn(
                f"alpha={alpha:g} is below 2*n^3/delta={2 * n**3 / delta:g}; "
                "the failure-probability guarantee degrades", stacklevel=2)
        return replace(self, alpha=float(alpha), steps=int(steps))


class WalkState(NamedTuple):
    vertex: Vertex
    cell: Parallelepiped


@dataclass
class WalkOutcome:
    final: Parallelepiped
    c_prime: np.ndarray
    current_vertex: Vertex
    stopped_with_c_in_cone: bool
    steps_taken: int = 0
    pivots: int = 0
    accepted_moves: int = 0
    rejected_moves: int = 0
    lazy_stays: int = 0

    def counters_consistent(self) -> bool:
        return self.accepted_moves + self.rejected_moves + self.lazy_stays \
            == self.steps_taken


@dataclass
class StepInfo:
    direction: Direction
    proposal: Parallelepiped
    accepted: bool
    pivoted: bool
    lazy: bool
    log_weight: float
    log_weight_proposal: float


def default_alpha(n: int, delta: float) -> float:
    """Objective scaling that makes the stationary failure mass negligible."""
    return 4.0 * n**3 / delta


def default_steps(n: int, delta: float) -> int:
    """Step budget ceil(n^5.5 / delta^3)."""
    if not (n >= 1 and 0.0 < delta <= 1.0):
        raise ValueError("need n >= 1, 0 < delta <= 1")
    return math.ceil(n**5.5 / delta**3)


def center(lp: NormalizedLP, cell: Parallelepiped) -> np.ndarray:
    """Cell center: sum over basis rows of (k_i + 1/2)/n^2 * a_i."""
    coeffs = (np.array(cell.index, dtype=float) + 0.5) / lp.n**2
    return basis_matrix(lp, cell.basis).T @ coeffs


def log_volume(lp: NormalizedLP, basis: Basis) -> float:
    det = det_abs(basis_matrix(lp, basis))
    if det <= 0.0:
        raise ConewalkError(f"basis {basis} is singular")
    return math.log(det) - 2.0 * lp.n * math.log(lp.n)


def _center_l1(lp: NormalizedLP, cell: Parallelepiped, ac: list[float]
               ) -> tuple[list[float], float]:
    """The cell center as a float list, and its l1 distance to ac = alpha*c."""
    z = center(lp, cell)
    return z.tolist(), float(np.sum(np.abs(z - ac)))


def log_weight(lp: NormalizedLP, alpha: float, cell: Parallelepiped) -> float:
    """log f(cell) from scratch: the reference for the walk's incremental values."""
    z = center(lp, cell)
    return -float(np.sum(np.abs(z - alpha * lp.c))) + log_volume(lp, cell.basis)


class _WalkCache:
    """Per-walk memo: basis-level quantities and pivot results."""

    def __init__(self, lp: NormalizedLP):
        self.lp = lp
        self.log_vol: dict[Basis, float] = {}
        self.c_inside: dict[Basis, bool] = {}
        self.pivots: dict[tuple[Basis, int], Vertex] = {}
        self.rows: dict[Basis, np.ndarray] = {}
        self.lists: dict[Basis, list[list[float]]] = {}

    def log_volume(self, basis: Basis) -> float:
        lv = self.log_vol.get(basis)
        if lv is None:
            lv = self.log_vol[basis] = log_volume(self.lp, basis)
        return lv

    def scaled_rows(self, basis: Basis) -> np.ndarray:
        """Cell edge vectors a_i / n^2, one per basis row (sorted order)."""
        rows = self.rows.get(basis)
        if rows is None:
            rows = self.rows[basis] = \
                np.ascontiguousarray(self.lp.A[list(basis)]) / self.lp.n**2
        return rows

    def row_lists(self, basis: Basis) -> list[list[float]]:
        """scaled_rows(basis) as Python float lists, for the in-cone moves."""
        rows = self.lists.get(basis)
        if rows is None:
            rows = self.lists[basis] = self.scaled_rows(basis).tolist()
        return rows

    def objective_in_cone(self, basis: Basis) -> bool:
        inside = self.c_inside.get(basis)
        if inside is None:
            inside = self.c_inside[basis] = cone_membership(
                self.lp, basis, self.lp.c).inside
        return inside

    def pivot(self, vertex: Vertex, leaving: int) -> Vertex:
        key = (vertex.basis, leaving)
        out = self.pivots.get(key)
        if out is None:
            out = self.pivots[key] = pivot_across_facet(self.lp, vertex, leaving)
        return out


def _propose(cache: _WalkCache, ac: list[float], vertex: Vertex, basis: Basis,
             index: Sequence[int], z: list[float], l1: float, log_vol: float,
             pos: int, sign: int) -> tuple:
    """The facet-adjacent cell of (basis, index) across coordinate pos, sign.

    Moving inward (-1) at lattice coordinate 0 crosses the cone facet: the
    vertex pivots, and the shared-facet grid identifies the new cell's
    coordinates (staying rows keep theirs, the entering row starts at 0).
    Returns (vertex, basis, index, z, l1, log_vol, dlog) of the proposal,
    where index is None when the move stays in the cone (the caller then
    adds sign to index[pos]) and dlog = log f(proposal) - log f(current).

    The center z and ac = alpha*c are float lists.  A move inside the cone
    adds or subtracts one scaled row elementwise and sums the n terms of the
    l1 distance left to right.  For n <= 7 that is np.sum's order (it adds
    fewer than 8 terms one by one), so the bits equal those of the numpy
    expressions used on a pivot and in _center_l1.
    """
    if sign > 0 or index[pos] > 0:
        row = cache.row_lists(basis)[pos]
        if sign > 0:
            z_new = [zi + ri for zi, ri in zip(z, row)]
        else:
            z_new = [zi - ri for zi, ri in zip(z, row)]
        l1_new = 0.0
        for zi, ai in zip(z_new, ac):
            l1_new += abs(zi - ai)
        return vertex, basis, None, z_new, l1_new, log_vol, l1 - l1_new
    new_vertex = cache.pivot(vertex, basis[pos])
    new_basis = new_vertex.basis
    coords = dict(zip(basis, index))
    new_index = [coords.get(r, 0) for r in new_basis]
    rows = cache.scaled_rows(new_basis)
    z_new = rows.T @ (np.array(new_index, dtype=float) + 0.5)
    l1_new = float(np.sum(np.abs(z_new - ac)))
    log_vol_new = cache.log_volume(new_basis)
    return (new_vertex, new_basis, new_index, z_new.tolist(), l1_new,
            log_vol_new, (l1 - l1_new) + (log_vol_new - log_vol))


def _accepts(u: float, dlog: float) -> bool:
    """Lazy Metropolis rule: move iff u < (1/2) * min(1, exp(dlog))."""
    return math.log(2.0 * u) < (dlog if dlog < 0.0 else 0.0)


def _draw(rng: np.random.Generator, n: int) -> tuple[int, int, float]:
    """One step's randomness: direction (pos, sign) over 2n choices, then the coin."""
    choice = int(rng.integers(0, 2 * n))
    u = float(rng.random())
    return choice // 2, +1 if choice % 2 == 0 else -1, u


_DRAW_BLOCK = 1024  # raw 64-bit words read from the bit generator at a time


def _draws(bitgen: np.random.BitGenerator, n: int
           ) -> Iterator[tuple[int, int, float]]:
    """_draw(np.random.Generator(bitgen), n), step after step (2n <= 2^32).

    Reads the raw 64-bit words in blocks and decodes them as the Generator
    does for PCG64:
    - integers(0, k), k = 2n, takes 32-bit halves of words: the low half of
      a new word first, its high half kept for the next integer.  Lemire's
      rule maps a half x to (x*k) >> 32 and takes the next half instead
      while (x*k) mod 2^32 < 2^32 mod k.
    - random() takes a whole new word w, returns (w >> 11) * 2^-53 and
      leaves a kept half for the next integer.
    """
    k = 2 * n
    threshold = (1 << 32) % k
    blocks = iter(lambda: bitgen.random_raw(_DRAW_BLOCK).tolist(), None)
    word = chain.from_iterable(blocks).__next__  # endless
    half = None
    while True:
        while True:
            if half is None:
                w = word()
                x, half = w & 0xFFFFFFFF, w >> 32
            else:
                x, half = half, None
            m = x * k
            if m & 0xFFFFFFFF >= threshold:
                break
        choice = m >> 32
        yield (choice // 2, +1 if choice % 2 == 0 else -1,
               (word() >> 11) * 2.0**-53)


def step(lp: NormalizedLP, cfg: WalkConfig, state: WalkState,
         rng: np.random.Generator, *, _cache: _WalkCache | None = None,
         ) -> tuple[WalkState, StepInfo]:
    """One lazy Metropolis step, through the proposal kernel run_walk uses.

    Picks one of the 2n facet neighbors uniformly, then moves there with
    probability (1/2) * min(1, f(P')/f(P)), evaluated in log space.  The
    center of the current cell is recomputed from scratch.  Unlike
    run_walk, the proposal is evaluated on lazy steps too, so that the
    returned StepInfo always describes it.
    """
    if cfg.alpha is None:
        raise ValueError("walk config must be resolved before stepping")
    cache = _cache if _cache is not None else _WalkCache(lp)
    v, cell = state
    pos, sign, u = _draw(rng, lp.n)
    ac = (cfg.alpha * lp.c).tolist()
    z, l1 = _center_l1(lp, cell, ac)
    log_vol = cache.log_volume(cell.basis)
    v_new, basis_new, index_new, _, l1_new, log_vol_new, dlog = _propose(
        cache, ac, v, cell.basis, cell.index, z, l1, log_vol, pos, sign)
    pivoted = index_new is not None
    if not pivoted:
        index_new = list(cell.index)
        index_new[pos] += sign
    proposal = Parallelepiped(basis_new, tuple(index_new))

    lazy = u >= 0.5
    accepted = not lazy and _accepts(u, dlog)
    info = StepInfo(direction=(cell.basis[pos], sign), proposal=proposal,
                    accepted=accepted, pivoted=pivoted and accepted, lazy=lazy,
                    log_weight=-l1 + log_vol,
                    log_weight_proposal=-l1_new + log_vol_new)
    if accepted:
        return WalkState(v_new, proposal), info
    return state, info


_RESYNC_INTERVAL = 4096  # exact center recomputation, bounds float drift


def run_walk(lp: NormalizedLP, cfg: WalkConfig, start: Vertex, *,
             delta: float | None = None) -> WalkOutcome:
    """Run the walk from the apex cell of the start vertex's cone.

    Each iteration first stops if the objective lies in the current cone
    (the current basis is then optimal); otherwise it performs one step.
    The membership test is applied once more after the final step.

    Each step takes a direction and a coin: the values step()'s _draw takes
    from np.random.default_rng(cfg.seed), which _draws reads from the same
    bit generator in blocks.  A lazy coin ends the step without evaluating
    the proposal; otherwise the proposal comes from the same kernel as
    step()'s, with the cell center and its l1 distance to alpha*c maintained
    incrementally and recomputed exactly every _RESYNC_INTERVAL-th step when
    that step is not lazy.  With cfg.trace set, one JSON record per step is
    written after the step; a lazy step's record has log_weight_proposal
    null.  Tracing never changes the walk.
    """
    cfg = cfg.resolved(lp.n, delta)
    if lp.n < 4:
        warnings.warn(f"n={lp.n} < 4: the neighboring-cell weight-ratio bound "
                      "degrades; the walk itself is unaffected", stacklevel=2)
    n = lp.n
    draws = _draws(np.random.PCG64(cfg.seed), n)
    cache = _WalkCache(lp)
    ac = (cfg.alpha * lp.c).tolist()
    trace = cfg.trace

    vertex = start
    basis = start.basis
    index = [0] * n
    z, l1 = _center_l1(lp, Parallelepiped(basis, tuple(index)), ac)
    log_vol = cache.log_volume(basis)
    steps = pivots = accepted_moves = rejected_moves = lazy_stays = 0

    in_cone = cache.objective_in_cone(basis)  # changes only when basis does
    while not in_cone and steps < cfg.steps:
        pos, sign, u = next(draws)
        steps += 1
        if trace is not None:
            row, lw = basis[pos], -l1 + log_vol
        accepted = pivoted = False

        if u >= 0.5:
            lazy_stays += 1
            lw_proposal = None
        else:
            (new_vertex, new_basis, new_index, z_new, l1_new, log_vol_new,
             dlog) = _propose(cache, ac, vertex, basis, index, z, l1, log_vol,
                              pos, sign)
            lw_proposal = -l1_new + log_vol_new
            accepted = _accepts(u, dlog)
            if accepted:
                if new_index is None:
                    index[pos] += sign
                else:
                    vertex, basis, index = new_vertex, new_basis, new_index
                    in_cone = cache.objective_in_cone(basis)
                    pivoted = True
                    pivots += 1
                z, l1, log_vol = z_new, l1_new, log_vol_new
                accepted_moves += 1
            else:
                rejected_moves += 1
            if steps % _RESYNC_INTERVAL == 0:
                z, l1 = _center_l1(lp, Parallelepiped(basis, tuple(index)), ac)

        if trace is not None:
            trace.write(json_line({
                "step": steps,
                "basis": list(basis),
                "k": list(index),
                "direction": [row, sign],
                "log_weight": lw,
                "log_weight_proposal": lw_proposal,
                "accepted": accepted,
                "pivoted": pivoted,
            }))

    final = Parallelepiped(basis, tuple(index))
    return WalkOutcome(final=final, c_prime=center(lp, final) / cfg.alpha,
                       current_vertex=vertex, stopped_with_c_in_cone=in_cone,
                       steps_taken=steps, pivots=pivots,
                       accepted_moves=accepted_moves,
                       rejected_moves=rejected_moves, lazy_stays=lazy_stays)
