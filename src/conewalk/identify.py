"""Turning a successful walk into one certified element of the optimal basis.

When a vector c' close to the objective (gap below delta/(2n)) lies in the
cone of a basis B', at least one conic coefficient of c' over B' exceeds
(1/n)(1 - delta/(2n)), and every row achieving that belongs to the true
optimal basis.  verify_problem1 and extract_element read those coefficients
from one solve with the program's factors of A_B (simplex.cone_membership).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoLargeCoefficient
from .lp import NormalizedLP
from .simplex import Basis, cone_membership
from .walk import Parallelepiped, center


@dataclass(frozen=True)
class IdentifiedElement:
    row: int                      # row position certified optimal
    mu: np.ndarray                # conic coefficients over the basis (sorted order)
    c_prime: np.ndarray
    gap: float                    # ||c - c'||_2
    qualifying: tuple[int, ...]   # every row clearing the threshold


def scaled_center(lp: NormalizedLP, cell: Parallelepiped,
                  alpha: float) -> np.ndarray:
    """c' = z_P / alpha for a walk's final cell P: its input to Problem 1."""
    return center(lp, cell) / alpha


def coefficient_threshold(n: int, delta: float) -> float:
    return (1.0 / n) * (1.0 - delta / (2.0 * n))


def verify_problem1(lp: NormalizedLP, basis: Basis, c_prime: np.ndarray,
                    delta: float) -> bool:
    """Both success conditions: c' in the cone of the basis, and gap < delta/(2n)."""
    gap = float(np.linalg.norm(lp.c - c_prime))
    if gap >= delta / (2.0 * lp.n):
        return False
    return cone_membership(lp, basis, c_prime).inside


def extract_element(lp: NormalizedLP, basis: Basis, c_prime: np.ndarray,
                    delta: float) -> IdentifiedElement:
    """Pick the certified optimal row: largest coefficient, ties to smallest index."""
    basis = tuple(sorted(basis))
    mu = cone_membership(lp, basis, np.asarray(c_prime, dtype=float)).coeffs
    threshold = coefficient_threshold(lp.n, delta)
    qualifying = tuple(row for row, m in zip(basis, mu) if m > threshold)
    if not qualifying:
        raise NoLargeCoefficient(
            f"no coefficient exceeds {threshold:g}; verification tolerances "
            "were likely breached")
    best = max(qualifying, key=lambda row: (mu[basis.index(row)], -row))
    gap = float(np.linalg.norm(lp.c - c_prime))
    return IdentifiedElement(row=best, mu=mu, c_prime=np.asarray(c_prime, float),
                             gap=gap, qualifying=qualifying)
