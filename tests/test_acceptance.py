"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -rP tests/test_acceptance.py` to see the summary lines for
passing criteria as well.
"""
import math
import time

import numpy as np
import pytest

import conewalk.phase1 as phase1_module
import conewalk.reduction as reduction_module
from conewalk.cli import main, write_lp_file
from conewalk.errors import Infeasible, Unbounded
from conewalk.lp import (
    LinearProgram,
    delta_bruteforce,
    normalize,
)
from conewalk.oracle import (
    check_lemma4,
    check_nondegenerate,
    default_radius,
    enumerate_vertices,
    laplace_tail_check,
    max_subdeterminant,
    pad_redundant,
    tu_instance_generator,
)
from conewalk.phase1 import bounding_box, phase1_vertex
from conewalk.reduction import reduce_lp, solve
from conewalk.simplex import basis_matrix, vertex_of_basis
from conewalk.walk import Parallelepiped, WalkConfig, _draws, step

from conftest import bounded_random_lp, rotate_instance

# n in {2,3,4}, m <= 20, all three unimodular families; every fourth
# instance is rotated into non-integral coordinates.
SUITE_STRATA = [
    ("box", 2, 8), ("box", 2, 10), ("box", 2, 12), ("box", 3, 14),
    ("box", 3, 18), ("box", 4, 16), ("box", 4, 20),
    ("interval", 2, 10), ("interval", 2, 14), ("interval", 3, 12),
    ("interval", 3, 16), ("interval", 4, 14), ("interval", 4, 18),
    ("network", 2, 10), ("network", 2, 14), ("network", 3, 12),
    ("network", 3, 16), ("network", 4, 14), ("network", 4, 18),
]
SUITE_SIZE = 200
UNIQUENESS_MARGIN = 1e-5


def _screened_instances(kind: str, n: int, m: int, want: int, base_seed: int):
    """Deterministic scan for nondegenerate instances with a unique optimum."""
    out = []
    seed = base_seed
    while len(out) < want:
        seed += 1
        if seed - base_seed > 500:
            raise RuntimeError(f"screening stalled for {kind} n={n} m={m}")
        lp = tu_instance_generator(kind, n, m, seed)
        integral = True
        if len(out) % 4 == 3:
            lp = rotate_instance(lp, seed + 99991)
            integral = False
        nlp = normalize(lp)
        try:
            if not check_nondegenerate(nlp):
                continue
            res = enumerate_vertices(nlp)
        except Exception:
            continue
        values = sorted((float(nlp.c @ v.point) for v in res.vertices),
                        reverse=True)
        if len(values) >= 2 and values[0] - values[1] < UNIQUENESS_MARGIN:
            continue
        out.append({"kind": kind, "n": n, "m": m, "lp": lp, "nlp": nlp,
                    "integral": integral, "optimal_basis": res.optimal_basis,
                    "optimal_value": res.optimal_value})
    return out


@pytest.fixture(scope="module")
def suite():
    per = math.ceil(SUITE_SIZE / len(SUITE_STRATA))
    out = []
    for idx, (kind, n, m) in enumerate(SUITE_STRATA):
        out.extend(_screened_instances(kind, n, m, per, base_seed=1000 * idx))
    return out[:SUITE_SIZE]


@pytest.fixture(scope="module")
def solve_results(suite):
    """Criterion 1 runs, shared with criteria 3 and 8-adjacent checks.

    Every reduction performed inside solve is recorded via a wrapper so
    criterion 3 can re-certify the separation of each reduced instance.
    """
    recorded_reductions = []
    original = reduction_module.reduce_lp

    def recording_reduce(lp, fixed, v):
        result = original(lp, fixed, v)
        recorded_reductions.append((lp, result[0]))
        return result

    reduction_module.reduce_lp = recording_reduce
    t0 = time.time()
    results = []
    try:
        for idx, inst in enumerate(suite):
            report = solve(inst["lp"], WalkConfig(seed=idx))
            results.append(report)
    finally:
        reduction_module.reduce_lp = original
    return {"reports": results, "elapsed": time.time() - t0,
            "reductions": recorded_reductions}


def test_criterion_1_oracle_equivalence(suite, solve_results):
    reports = solve_results["reports"]
    assert len(reports) == SUITE_SIZE
    correct = sum(rep.basis == inst["optimal_basis"]
                  for inst, rep in zip(suite, reports))
    first_attempt = sum(rep.basis == inst["optimal_basis"] and rep.retries == 0
                        for inst, rep in zip(suite, reports))
    elapsed = solve_results["elapsed"]
    # solve (with its default retry policy) must be right in >= 95% of
    # pairs and in all of them once retries are accounted for
    assert correct >= 0.95 * SUITE_SIZE
    assert correct == SUITE_SIZE
    assert elapsed < 600.0
    print(f"ACCEPTANCE 1 PASS: oracle equivalence on {SUITE_SIZE} instances: "
          f"{correct}/{SUITE_SIZE} correct (first attempt {first_attempt}, "
          f"rest via retries), {elapsed:.1f}s")


def test_criterion_2_lemma4_quadruples():
    rng = np.random.default_rng(20240)
    checked = 0
    violations = 0
    sources = []
    for seed in range(8):
        sources.append(bounded_random_lp(3, 4, 7000 + seed))
        sources.append(bounded_random_lp(2, 3, 7100 + seed))
    for kind in ("box", "interval", "network"):
        for seed in range(2):
            sources.append(normalize(tu_instance_generator(kind, 3, 12,
                                                           7200 + seed)))
    per_instance = math.ceil(1000 / len(sources))
    for nlp in sources:
        delta = delta_bruteforce(nlp).delta
        vertices = enumerate_vertices(nlp).vertices
        points = np.array([v.point for v in vertices])
        for _ in range(per_instance):
            c1 = rng.standard_normal(nlp.n)
            c1 /= np.linalg.norm(c1)
            c2 = rng.standard_normal(nlp.n)
            c2 /= np.linalg.norm(c2)
            basis1 = vertices[int(np.argmax(points @ c1))].basis
            basis2 = vertices[int(np.argmax(points @ c2))].basis
            if not check_lemma4(nlp, basis1, basis2, c1, c2, delta):
                violations += 1
            checked += 1
    assert checked >= 1000
    assert violations == 0
    print(f"ACCEPTANCE 2 PASS: gap >= delta*mu_k on {checked} "
          f"objective-pair quadruples, zero violations")


def test_criterion_3_reduction_preserves_separation(suite, solve_results):
    pairs = list(solve_results["reductions"])
    organic = len(pairs)
    # force extra reductions so the check cannot pass vacuously
    for inst in suite[::5]:
        nlp = inst["nlp"]
        v = vertex_of_basis(nlp, inst["optimal_basis"])
        for fixed in v.basis[:2]:
            try:
                reduced, _, _ = reduce_lp(nlp, fixed, v)
            except Exception:
                continue
            pairs.append((nlp, reduced))
    violations = 0
    for parent, reduced in pairs:
        before = delta_bruteforce(parent).delta
        after = delta_bruteforce(reduced).delta
        if after < before - 1e-7:
            violations += 1
    assert len(pairs) > 0
    assert violations == 0
    print(f"ACCEPTANCE 3 PASS: separation preserved across {len(pairs)} "
          f"reductions ({organic} from criterion 1 runs), zero violations")


@pytest.fixture(scope="module")
def walk_samples():
    """Neighbor pairs observed on an n=4 instance, for criteria 4-6."""
    lp = tu_instance_generator("interval", 4, 14, seed=77)
    nlp = normalize(lp)
    aug = bounding_box(nlp, default_radius(nlp))
    start = phase1_vertex(nlp, aug)
    delta = delta_bruteforce(aug).delta
    alpha = 4.0 * aug.n**3 / delta

    samples = []
    draws = _draws(np.random.PCG64(4242), aug.n)
    apex = cell = Parallelepiped(start, (0,) * aug.n)
    while len(samples) < 10_000:
        cell, info = step(aug, alpha, cell, next(draws))
        samples.append((cell, info))
        if len(samples) % 2500 == 0:  # restart to diversify the region
            cell = apex
    return {"lp": aug, "alpha": alpha, "delta": delta, "samples": samples}


def _cell_corner_distances(lp, alpha, cell):
    rows = basis_matrix(lp, cell.basis) / lp.n**2
    base = rows.T @ np.array(cell.index, dtype=float)
    n = lp.n
    bits = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(float)
    corners = base + bits @ rows
    return np.sum(np.abs(corners - alpha * lp.c), axis=1)


def test_criterion_4_neighbor_cell_ratio(walk_samples):
    lp = walk_samples["lp"]
    alpha = walk_samples["alpha"]
    worst = 0.0
    for cell, info in walk_samples["samples"]:
        d_here = _cell_corner_distances(lp, alpha, cell)
        d_prop = _cell_corner_distances(lp, alpha, info.proposal)
        both = np.concatenate([d_here, d_prop])
        worst = max(worst, float(both.max() - both.min()))
    assert math.exp(worst) <= math.e * (1.0 + 1e-9)
    print(f"ACCEPTANCE 4 PASS: corner-point density ratio over "
          f"{len(walk_samples['samples'])} neighbor pairs: max "
          f"{math.exp(worst):.6f} <= e")


def test_criterion_5_detailed_balance(walk_samples):
    n = walk_samples["lp"].n
    worst = 0.0
    for cell, info in walk_samples["samples"]:
        lw, lw_prop = info.log_weight, info.log_weight_proposal
        log_flow_fwd = lw + math.log(1 / (4 * n)) + min(0.0, lw_prop - lw)
        log_flow_rev = lw_prop + math.log(1 / (4 * n)) + min(0.0, lw - lw_prop)
        worst = max(worst, abs(log_flow_fwd - log_flow_rev))
    assert worst <= 1e-9
    print(f"ACCEPTANCE 5 PASS: detailed balance on "
          f"{len(walk_samples['samples'])} neighbor pairs, max relative "
          f"flow mismatch {worst:.2e}")


def test_criterion_6_transition_lower_bound(walk_samples):
    delta = walk_samples["delta"]
    n = walk_samples["lp"].n
    pivoted = 0
    worst_ratio = math.inf
    for cell, info in walk_samples["samples"]:
        if info.proposal.basis == cell.basis:
            continue
        pivoted += 1
        ratio = math.exp(info.log_weight_proposal - info.log_weight)
        prob = (1.0 / (2 * n)) * 0.5 * min(1.0, ratio)
        assert ratio >= delta / math.e - 1e-9
        assert prob >= delta / (4 * math.e * n) - 1e-9
        worst_ratio = min(worst_ratio, ratio)
    assert pivoted > 100
    print(f"ACCEPTANCE 6 PASS: {pivoted} cone-crossing proposals, worst "
          f"acceptance ratio {worst_ratio:.4f} >= delta/e = "
          f"{delta / math.e:.4f}")


def test_criterion_7_laplace_tail_grid():
    t0 = time.time()
    checked = []
    for n in (2, 3, 4):
        for delta in (1.0, 0.5, 0.25):
            alpha = 4.0 * n**3 / delta
            res = laplace_tail_check(n, alpha, delta, samples=10**6,
                                     seed=n * 100 + int(1 / delta))
            assert res.ok, (n, delta, res)
            checked.append(res)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"ACCEPTANCE 7 PASS: tail bound grid (9 cells, 1e6 samples each) "
          f"in {elapsed:.1f}s; all empirical <= bound + 3 sigma")


def test_criterion_8_m_independence():
    base = tu_instance_generator("box", 2, 8, seed=11)
    medians = {}
    for target_m in (8, 16, 32):
        lp = base if target_m == 8 else pad_redundant(base, target_m, seed=5)
        pivots = []
        for seed in range(40):
            rep = solve(lp, WalkConfig(seed=seed))
            pivots.append(rep.pivots)
        medians[target_m] = float(np.median(pivots))
    low = min(medians.values())
    high = max(medians.values())
    assert low > 0.0, medians
    assert high / low < 3.0, medians
    print(f"ACCEPTANCE 8 PASS: median walk pivots across m=8/16/32 "
          f"paddings: {medians} (ratio {high / low:.2f} < 3)")


def _infeasible_instances():
    out = []
    rng = np.random.default_rng(88)
    for i in range(20):
        n = 2 + i % 2
        axis = i % n
        rows = list(np.eye(n)) + list(-np.eye(n))
        rhs = [1.0 + 0.01 * k for k in range(n)] + [0.25 + 0.01 * k
                                                    for k in range(n)]
        t = float(rng.integers(0, 8)) / 16.0
        rows.append(np.eye(n)[axis].copy())
        rhs.append(t)          # x_axis <= t
        rows.append(-np.eye(n)[axis])
        rhs.append(-(t + 0.5))  # x_axis >= t + 1/2
        lp = LinearProgram(A=np.array(rows), b=np.array(rhs),
                           c=np.ones(n) / math.sqrt(n))
        if i % 3 == 2:
            lp = rotate_instance(lp, 500 + i)
        out.append(lp)
    return out


def _unbounded_instances():
    out = []
    for i in range(10):
        n = 2 + i % 2
        axis = i % n
        rows = [np.eye(n)[k] for k in range(n) if k != axis] \
            + list(-np.eye(n))
        rhs = [1.0 + 0.01 * k for k in range(n - 1)] \
            + [0.5 + 0.01 * k for k in range(n)]
        c = np.full(n, 0.05)
        c[axis] = 1.0  # improves along the missing direction
        lp = LinearProgram(A=np.array(rows), b=np.array(rhs), c=c)
        if i % 3 == 2:
            lp = rotate_instance(lp, 900 + i)
        out.append(lp)
    return out


def test_criterion_9_phase1_certificates(suite):
    infeasible_hits = 0
    for i, lp in enumerate(_infeasible_instances()):
        with pytest.raises(Infeasible) as exc_info:
            solve(lp, WalkConfig(seed=i))
        assert exc_info.value.iteration is not None
        assert exc_info.value.value is not None
        infeasible_hits += 1

    unbounded_hits = 0
    for i, lp in enumerate(_unbounded_instances()):
        with pytest.raises(Unbounded):
            solve(lp, WalkConfig(seed=i))
        unbounded_hits += 1

    false_positives = 0
    for inst in suite[:50]:
        try:
            solve(inst["lp"], WalkConfig(seed=13))
        except (Infeasible, Unbounded):
            false_positives += 1
    assert infeasible_hits == 20
    assert unbounded_hits == 10
    assert false_positives == 0
    print(f"ACCEPTANCE 9 PASS: {infeasible_hits}/20 infeasible certified "
          f"with witness, {unbounded_hits}/10 unbounded certified, 0/50 "
          f"false positives on feasible bounded systems")


def _infeasible_without_a_crossed_pair(n: int, seed: int) -> LinearProgram:
    """x_k >= 3/4 for every k and sum(x) <= 1, rotated: no two rows are
    negations, so no crossed pair certifies it, and phase 1 must."""
    A = np.vstack([-np.eye(n), np.ones(n)])
    b = np.append(np.full(n, -0.75), 1.0)
    return rotate_instance(LinearProgram(A=A, b=b, c=np.ones(n)), seed)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_phase1_certifies_infeasibility_without_a_crossed_pair(
        monkeypatch, n):
    # criterion 9's infeasible programs are all crossed pairs, which solve
    # certifies before phase 1; these reach phase 1, and its witness is the
    # row's minimum over the region before it, by enumeration
    raised = []

    def vertex(walked, boxed, real=phase1_module.phase1_vertex):
        try:
            return real(walked, boxed)
        except Infeasible as exc:
            raised.append((walked, boxed, exc))
            raise

    monkeypatch.setattr(phase1_module, "phase1_vertex", vertex)
    for seed in range(5):
        with pytest.raises(Infeasible) as info:
            solve(_infeasible_without_a_crossed_pair(n, 800 + seed),
                  WalkConfig(seed=seed))
        assert len(raised) == 1
        walked, boxed, exc = raised.pop()
        assert info.value.iteration == n + 1  # the walked rows are the input
        i = exc.iteration - 1
        region = normalize(LinearProgram(A=boxed.A[:2 * n + i],
                                         b=boxed.b[:2 * n + i], c=walked.c))
        least = min(float(walked.A[i] @ v.point)
                    for v in enumerate_vertices(region).vertices)
        assert info.value.value == pytest.approx(least, abs=1e-9)
        assert least > walked.b[i]


def test_criterion_10_separation_bound_chain(suite):
    checked = 0
    for inst in suite:
        if not inst["integral"]:
            continue
        nlp = inst["nlp"]
        Delta = max_subdeterminant(inst["lp"].A)
        bound = 1.0 / (nlp.n * Delta**2)
        assert delta_bruteforce(nlp).delta >= bound - 1e-9, inst["kind"]
        checked += 1
    assert checked >= 100
    print(f"ACCEPTANCE 10 PASS: brute-force separation >= 1/(n*Delta^2) on "
          f"all {checked} integral instances")


def test_criterion_11_determinism(suite, tmp_path, capsys):
    instances = suite[::20][:10]
    assert len(instances) == 10
    for idx, inst in enumerate(instances):
        path = tmp_path / f"det_{idx}.json"
        write_lp_file(str(path), inst["lp"], name=f"det-{idx}")
        outputs = set()
        for _ in range(10):
            code = main(["solve", "--input", str(path), "--seed", str(idx)])
            outputs.add(capsys.readouterr().out)
            assert code == 0
        assert len(outputs) == 1, f"instance {idx} produced varying bytes"
    print("ACCEPTANCE 11 PASS: byte-identical reports over 10 repeats x 10 "
          "instances")
