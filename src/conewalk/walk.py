"""Lazy Metropolis random walk over the parallelepiped partition of the normal fan.

Every normal cone of the (bounded) feasible polytope is tiled by translates
of the cell spanned by its basis rows scaled to length 1/n^2.  The walk moves
between facet-adjacent cells, weighting a cell P by

    f(P) = exp(-||z_P - alpha*c||_1) * (1/n^2)^n * |det(A_B)|

with z_P the cell center.  The walk's state is a cell: its basis fixes the
vertex, so crossing a cone facet is a simplex pivot from that vertex.  As
soon as the objective lies in the current cone, the current basis is
optimal and the walk stops.  A walk that runs out of steps first returns
its final cell, whose scaled center c' = z_P/alpha (reduction.scaled_center)
is the input of the paper's identification step; solve does not run that
step and counts such a walk as a failed attempt.

step() maps a cell and one draw (pos, sign, u) to a cell by the kernel
run_walk iterates.  Draw i of a walk reads raw words w[2i] and w[2i + 1]
of its PCG64 stream (_draws): choice = w[2i] mod 2n picks basis position
choice // 2, outward (+1) if choice is even, else inward (-1), and the
coin is u = (w[2i + 1] >> 11) * 2^-53.  The kernel has one arithmetic at
every n: a center is taken by _center, rows^T (k + 1/2) with rows =
A_B / n^2, or by adding one scaled row to a neighbor's center; an l1
distance is taken by _l1, left to right.
center() and log_weight() are from-scratch references for tests.

The program keeps, in lp.walk_memo, one record per basis a walk enters
(_record): the scaled rows A_B / n^2, the cell volume (log |det A_B|), the
in-cone stop (A_B^T mu = c), and the basis across every facet a walk has
pivoted over (_pivot, from the basis's vertex along A_B d = -e_k).  All
read the program's LU factors of A_B and the vertex A_B x = b_B kept
beside them (simplex.basis_factors), shared with phase 1.  They depend
only on the program, so every walk of it shares them, and sharing
changes no step.
log_volume() takes the volume from scratch, through np.linalg.det, for tests.

The stop is an exact certificate, so the walk is sound under any weight;
the weight only decides how fast it gets there.  The solver's short restart
terms therefore walk with the l1 term scaled by beta = n^2,

    f_beta(P) = exp(-beta * ||z_P - alpha*c||_1) * (1/n^2)^n * |det(A_B)|,

which is f, up to a constant factor, on cells of edge 1 (centers n^2 z_P)
with target n^2 alpha*c: near the apex one step then moves the l1 term by
up to about sqrt(n) instead of sqrt(n)/n^2, so the pull toward alpha*c is
felt.  run_walk takes beta through a private keyword; step(), run_walk's
default and the solver's full-budget terms walk f itself, beta = 1.
"""
from __future__ import annotations

import json
import math
import numbers
import operator
import warnings
from dataclasses import dataclass, replace
from operator import add, sub
from typing import IO, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConewalkError, TooLarge
from .geometry import det_abs, log_abs_det
from .lp import NormalizedLP
from .simplex import (
    Basis,
    basis_factors,
    basis_matrix,
    cone_membership,
    pivot_across_facet,
)

Direction = tuple[int, int]  # (basis row, +1 outward / -1 toward the facet)
Draw = tuple[int, int, float]  # (basis position, sign, coin u in [0, 1))


class Parallelepiped(NamedTuple):
    """One grid cell: a basis plus lattice coordinates along its rays."""

    basis: Basis            # sorted
    index: tuple[int, ...]  # coordinates >= 0, aligned with the sorted basis


def _integer(value, message: str) -> int:
    """operator.index(value); a bool, or a value that is no integer, raises
    TypeError with the message."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{message}, got {value!r}")


@dataclass(frozen=True)
class WalkConfig:
    """The caller's walk settings.  alpha=None / steps=None resolve from
    (n, delta).

    A bad alpha, steps, seed or trace raises TypeError or ValueError,
    naming the field, when the config is built, so no solve starts with
    one.
    """

    # a number > 0 (NaN and bools are not); inf passes here and resolved
    # raises TooLarge for it
    alpha: float | None = None
    # an integer >= 0 (operator.index: numpy integers pass, 2.5 and bools
    # do not)
    steps: int | None = None
    # an integer >= 0, as steps, kept as its int (a numpy integer's report
    # is its int's); solve walks term t of retry r on the raw words of
    # PCG64(SeedSequence([seed, r, t])) (_draws)
    seed: int = 0
    # None or a text stream (an object with a callable write)
    trace: IO[str] | None = None

    def __post_init__(self) -> None:
        if self.alpha is not None:
            if (isinstance(self.alpha, (bool, np.bool_))
                    or not isinstance(self.alpha, numbers.Real)):
                raise TypeError(f"WalkConfig.alpha must be None or a number, "
                                f"got {self.alpha!r}")
            if not self.alpha > 0.0:
                raise ValueError(f"WalkConfig.alpha must be > 0, "
                                 f"got {self.alpha!r}")
        if self.steps is not None:
            steps = _integer(self.steps,
                             "WalkConfig.steps must be None or an integer")
            if steps < 0:
                raise ValueError(f"WalkConfig.steps must be >= 0, "
                                 f"got {self.steps!r}")
        seed = _integer(self.seed, "WalkConfig.seed must be a non-negative integer")
        if seed < 0:
            raise ValueError(f"WalkConfig.seed must be a non-negative integer, "
                             f"got {self.seed!r}")
        object.__setattr__(self, "seed", seed)
        if self.trace is not None and not callable(
                getattr(self.trace, "write", None)):
            raise TypeError(f"WalkConfig.trace must be None or a text stream "
                            f"with a write method, got {self.trace!r}")

    def resolved(self, n: int, delta: float) -> "WalkConfig":
        """Fill in the auto fields from (n, delta).

        A delta so small that alpha or the step budget leaves the float
        range raises TooLarge.
        """
        alpha, steps = self.alpha, self.steps
        if alpha is None:
            alpha = default_alpha(n, delta)
        if steps is None:
            steps = default_steps(n, delta)
        if not math.isfinite(alpha):
            raise TooLarge(f"alpha is not a finite float: n={n}, delta={delta!r}")
        if alpha < 2.0 * n**3 / delta:
            warnings.warn(
                f"alpha={alpha:g} is below 2*n^3/delta={2 * n**3 / delta:g}; "
                "the failure-probability guarantee degrades", stacklevel=2)
        return replace(self, alpha=float(alpha), steps=int(steps))


@dataclass
class WalkOutcome:
    """How a walk ended: its final cell, whether c lies in that cell's
    cone, and its step counters.  Each step counted is accepted, rejected
    or lazy: accepted_moves + rejected_moves + lazy_stays == steps_taken."""

    final: Parallelepiped
    stopped_with_c_in_cone: bool
    steps_taken: int = 0
    pivots: int = 0
    accepted_moves: int = 0
    rejected_moves: int = 0
    lazy_stays: int = 0


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
    """Step budget ceil(n^5.5 / delta^3); TooLarge past the float range."""
    if not (n >= 1 and 0.0 < delta <= 1.0):
        raise ValueError("need n >= 1, 0 < delta <= 1")
    budget = n**5.5 / delta**3 if delta**3 > 0.0 else math.inf
    if budget == math.inf:
        raise TooLarge(f"step budget n^5.5/delta^3 is not a finite float: "
                       f"n={n}, delta={delta!r}")
    return math.ceil(budget)


def center(lp: NormalizedLP, cell: Parallelepiped) -> np.ndarray:
    """Cell center from scratch: sum over basis rows of (k_i + 1/2)/n^2 * a_i."""
    coeffs = (np.array(cell.index, dtype=float) + 0.5) / lp.n**2
    return basis_matrix(lp, cell.basis).T @ coeffs


def log_volume(lp: NormalizedLP, basis: Basis) -> float:
    """log of the cell volume (1/n^2)^n |det A_B| from scratch, through
    np.linalg.det: the reference for the walk's records, which read it
    from their LU factors."""
    det = det_abs(basis_matrix(lp, basis))
    if det <= 0.0:
        raise ConewalkError(f"basis {basis} is singular")
    return math.log(det) - 2.0 * lp.n * math.log(lp.n)


def log_weight(lp: NormalizedLP, alpha: float, cell: Parallelepiped) -> float:
    """log f(cell) from scratch: the reference for the walk's incremental values."""
    z = center(lp, cell)
    return -float(np.sum(np.abs(z - alpha * lp.c))) + log_volume(lp, cell.basis)


class _BasisRecord(NamedTuple):
    """What the walk uses of one basis, computed the first time it needs it."""

    basis: Basis
    rows: np.ndarray              # cell edges a_i / n^2, in sorted basis order
    row_lists: list[list[float]]  # rows as float lists, for in-cone moves
    log_vol: float                # log of the cell volume
    in_cone: bool                 # c lies in the basis cone: the basis is optimal
    across: dict[int, Basis]      # leaving row -> the basis across its facet


def _record(lp: NormalizedLP, basis: Basis) -> _BasisRecord:
    """The record of a sorted basis: read from lp.walk_memo, or made and
    kept there."""
    rec = lp.walk_memo.get(basis)
    if rec is None:
        rows = basis_matrix(lp, basis) / lp.n**2
        rec = lp.walk_memo[basis] = _BasisRecord(
            basis, rows, rows.tolist(),
            log_abs_det(basis_factors(lp, basis)[0])
            - 2.0 * lp.n * math.log(lp.n),
            cone_membership(lp, basis, lp.c).inside, {})
    return rec


def _pivot(lp: NormalizedLP, rec: _BasisRecord, leaving: int) -> Basis:
    """The basis across the facet of row leaving: read from rec.across, or
    pivoted from the record's basis and kept there."""
    out = rec.across.get(leaving)
    if out is None:
        out = rec.across[leaving] = pivot_across_facet(lp, rec.basis, leaving)
    return out


def _center(rec: _BasisRecord, index: Sequence[int]) -> list[float]:
    """The walk's one center rule: rows^T (k + 1/2), as a float list."""
    return (rec.rows.T @ (np.array(index, dtype=float) + 0.5)).tolist()


def _l1(z: list[float], ac: list[float]) -> float:
    """The walk's one l1 rule: sum of |z_i - ac_i|, left to right."""
    total = 0.0
    for zi, ai in zip(z, ac):
        total += abs(zi - ai)
    return total


def _propose(lp: NormalizedLP, ac: list[float], rec: _BasisRecord,
             index: Sequence[int], z: list[float], l1: float, pos: int,
             sign: int, beta: float = 1.0) -> tuple:
    """The facet-adjacent cell of (rec.basis, index) across coordinate pos, sign.

    Moving inward (-1) at lattice coordinate 0 crosses the cone facet: the
    basis pivots (_pivot), and the shared-facet grid identifies the new
    cell's coordinates (staying rows keep theirs, the entering row starts
    at 0).  Any other move keeps the record and adds sign to index[pos].
    Returns (rec, index, z, l1, dlog) of the proposal, with index a new
    list, so the move pivoted iff the record returned is not rec, and
    dlog = log f_beta(proposal) - log f_beta(current)
    = beta * (l1 - l1_new) + (log_vol_new - log_vol); beta = 1 is f.

    The center z and ac = alpha*c are float lists.  A move inside the cone
    adds or subtracts one scaled row elementwise; a pivot takes the new
    cell's center by _center.  Both take the l1 distance by _l1.
    """
    if sign > 0 or index[pos] > 0:
        new_index = list(index)
        new_index[pos] += sign
        z_new = list(map(add if sign > 0 else sub, z, rec.row_lists[pos]))
        l1_new = _l1(z_new, ac)
        return rec, new_index, z_new, l1_new, beta * (l1 - l1_new)
    new_rec = _record(lp, _pivot(lp, rec, rec.basis[pos]))
    coords = dict(zip(rec.basis, index))
    new_index = [coords.get(r, 0) for r in new_rec.basis]
    z_new = _center(new_rec, new_index)
    l1_new = _l1(z_new, ac)
    return (new_rec, new_index, z_new, l1_new,
            beta * (l1 - l1_new) + (new_rec.log_vol - rec.log_vol))


def _accepts(u: float, dlog: float) -> bool:
    """Lazy Metropolis rule: move iff u < (1/2) * min(1, exp(dlog)); a zero
    coin moves, as exp(dlog) > 0."""
    return u == 0.0 or math.log(2.0 * u) < (dlog if dlog < 0.0 else 0.0)


_DRAW_BLOCK = 64  # draws decoded at once: one restart unit


def _draws(bitgen: np.random.BitGenerator, n: int) -> Iterator[Draw]:
    """One draw (pos, sign, u) per step, draw i decoded from raw words
    w[2i] and w[2i + 1] of bitgen by the module docstring's rule; u is
    numpy's double rule, (w >> 11) * 2^-53.

    Words are read and decoded _DRAW_BLOCK draws at a time, in uint64 with
    uint64 operands only (numpy 1.24 then gives the same integers), and
    none before the first draw; the block size never changes a draw.
    """
    k, one, shift = np.uint64(2 * n), np.uint64(1), np.uint64(11)
    while True:
        words = bitgen.random_raw(2 * _DRAW_BLOCK)
        choice = words[0::2] % k
        yield from zip((choice >> one).tolist(),
                       np.where(choice & one, -1, 1).tolist(),
                       ((words[1::2] >> shift) * 2.0**-53).tolist())


def step(lp: NormalizedLP, alpha: float, cell: Parallelepiped,
         draw: Draw) -> tuple[Parallelepiped, StepInfo]:
    """One lazy Metropolis step from cell, by run_walk's proposal kernel.

    draw = (pos, sign, u), as _draws yields it, names the facet neighbor
    across basis position pos (sign +1 outward, -1 inward) and the coin:
    the step moves there iff u < (1/2) * min(1, f(P')/f(P)), in log space.
    The center of the current cell is taken afresh by _center, and its l1
    distance by _l1, as in run_walk.  Unlike run_walk, the proposal is
    evaluated on lazy steps too, so the returned StepInfo always describes
    it.  The weight is the paper's f (beta = 1).
    """
    pos, sign, u = draw
    ac = (alpha * lp.c).tolist()
    rec = _record(lp, cell.basis)
    z = _center(rec, cell.index)
    l1 = _l1(z, ac)
    rec_new, index_new, _, l1_new, dlog = _propose(
        lp, ac, rec, cell.index, z, l1, pos, sign)
    proposal = Parallelepiped(rec_new.basis, tuple(index_new))

    lazy = u >= 0.5
    accepted = not lazy and _accepts(u, dlog)
    info = StepInfo(direction=(cell.basis[pos], sign), proposal=proposal,
                    accepted=accepted, pivoted=accepted and rec_new is not rec,
                    lazy=lazy,
                    log_weight=-l1 + rec.log_vol,
                    log_weight_proposal=-l1_new + rec_new.log_vol)
    return (proposal if accepted else cell), info


_RESYNC_INTERVAL = 4096  # exact center recomputation, bounds float drift


def run_walk(lp: NormalizedLP, start: Basis, *, alpha: float, steps: int,
             seed: int | np.random.SeedSequence, trace: IO[str] | None = None,
             _beta: float = 1.0) -> WalkOutcome:
    """Run the walk from the apex cell of the sorted start basis's cone.

    Each iteration first stops if the objective lies in the current cone
    (the current basis is then optimal); otherwise it performs one step.
    The membership test is applied once more after the final step.

    The walk takes at most steps steps toward alpha*c.  Step i takes draw
    i of _draws(np.random.PCG64(seed), n), decoded from raw words 2i and
    2i + 1; a walk of no steps reads no word.  A lazy coin ends the step
    without evaluating the proposal; otherwise the proposal comes from
    step()'s kernel.  The cell center is kept incrementally, and taken
    afresh by _center at the start, on a pivot and every
    _RESYNC_INTERVAL-th step that is not lazy; every l1 distance to
    alpha*c is taken by _l1.  With trace set, one JSON record per step is
    written to it after the step; a lazy step's record has
    log_weight_proposal null.  Tracing never changes the walk.

    _beta scales the l1 term of the weight the walk follows, f_beta (see
    the module docstring); the default 1 is the paper's f.  The trace's
    log_weight and log_weight_proposal are those of f_beta,
    -beta * l1 + log_vol, the weights the accept rule compared.
    """
    n = lp.n
    draws = _draws(np.random.PCG64(seed), n)
    ac = (alpha * lp.c).tolist()

    rec = _record(lp, start)
    index = [0] * n
    z = _center(rec, index)
    l1 = _l1(z, ac)
    taken = pivots = accepted_moves = rejected_moves = lazy_stays = 0

    while not rec.in_cone and taken < steps:
        pos, sign, u = next(draws)
        taken += 1
        if trace is not None:
            row, lw = rec.basis[pos], -_beta * l1 + rec.log_vol
        accepted = pivoted = False

        if u >= 0.5:
            lazy_stays += 1
            lw_proposal = None
        else:
            new_rec, new_index, z_new, l1_new, dlog = _propose(
                lp, ac, rec, index, z, l1, pos, sign, _beta)
            lw_proposal = -_beta * l1_new + new_rec.log_vol
            accepted = _accepts(u, dlog)
            if accepted:
                pivoted = new_rec is not rec
                pivots += pivoted
                rec, index, z, l1 = new_rec, new_index, z_new, l1_new
                accepted_moves += 1
            else:
                rejected_moves += 1
            if taken % _RESYNC_INTERVAL == 0:
                z = _center(rec, index)
                l1 = _l1(z, ac)

        if trace is not None:
            trace.write(json.dumps({
                "step": taken,
                "basis": list(rec.basis),
                "k": index,
                "direction": [row, sign],
                "log_weight": lw,
                "log_weight_proposal": lw_proposal,
                "accepted": accepted,
                "pivoted": pivoted,
            }, allow_nan=False) + "\n")

    return WalkOutcome(final=Parallelepiped(rec.basis, tuple(index)),
                       stopped_with_c_in_cone=rec.in_cone,
                       steps_taken=taken, pivots=pivots,
                       accepted_moves=accepted_moves,
                       rejected_moves=rejected_moves, lazy_stays=lazy_stays)
