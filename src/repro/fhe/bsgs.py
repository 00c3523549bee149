"""Baby-step giant-step plaintext matrix-vector multiplication.

Implements Algorithm 1 of the paper: for an ``n x n`` plaintext matrix
acting on the slot vector of a ciphertext, with ``n = n1 * n2``, the
rotation count drops from ``O(n)`` to ``O(n1 + n2)``:

* ``n1 - 1`` *baby-step* rotations of the input ciphertext, produced by
  any of the three rotation strategies (Min-KS / Hoisting / Hybrid);
* ``n2 - 1`` *giant-step* rotations of partial sums by ``n1 * j``.

Diagonal ``k`` of the matrix is ``diag_k(M)[i] = M[i][(i + k) mod n]``
(the Halevi-Shoup diagonal order), and the plaintext diagonals feeding
baby step ``i`` of giant step ``j`` are pre-rotated by ``-n1*j`` slots.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.fhe import ops
from repro.fhe.ciphertext import Ciphertext
from repro.fhe.context import CKKSContext
from repro.resilience.errors import InvariantViolation
from repro.fhe.rotation import (
    RotationCounts,
    hoisted_rotations,
    hybrid_rotations,
    min_ks_rotations,
)

RotationStrategy = Callable[
    [CKKSContext, Ciphertext, int], Tuple[List[Ciphertext], RotationCounts]
]


def matrix_diagonal(matrix: np.ndarray, k: int) -> np.ndarray:
    """Generalized diagonal ``diag_k(M)[i] = M[i][(i + k) mod n]``."""
    n = matrix.shape[0]
    rows = np.arange(n)
    return matrix[rows, (rows + k) % n]


def split_bsgs(n: int) -> Tuple[int, int]:
    """Default BSGS split ``n = n1 * n2`` with ``n1 ~ sqrt(n)``."""
    n1 = 1 << (max(n.bit_length() - 1, 0) // 2)
    while n % n1:
        n1 //= 2
    return n1, n // n1


def pt_mat_vec_mult(
    ctx: CKKSContext,
    ct: Ciphertext,
    matrix: np.ndarray,
    n1: Optional[int] = None,
    rotation_strategy: str = "hoisting",
    r_hyb: int = 4,
) -> Ciphertext:
    """Homomorphically compute ``M @ slots(ct)`` via BSGS (Algorithm 1).

    Args:
        ctx: the CKKS context.
        ct: input ciphertext whose slot vector has length ``n``.
        matrix: ``(n, n)`` real or complex matrix; ``n`` must equal the
            slot count so the packing is full.
        n1: baby-step count (defaults to ``~sqrt(n)``); must divide ``n``.
        rotation_strategy: ``"min-ks"``, ``"hoisting"``, or ``"hybrid"``.
        r_hyb: the hybrid coarse-step distance (ignored otherwise).

    Returns:
        Ciphertext encrypting ``M @ v``, rescaled once (one level down).
    """
    n = ctx.params.slots
    if matrix.shape != (n, n):
        raise ValueError(f"matrix must be ({n}, {n}), got {matrix.shape}")
    if n1 is None:
        n1, n2 = split_bsgs(n)
    else:
        if n % n1:
            raise ValueError(f"n1={n1} must divide n={n}")
        n2 = n // n1

    if rotation_strategy == "min-ks":
        baby, _ = min_ks_rotations(ctx, ct, n1)
    elif rotation_strategy == "hoisting":
        baby, _ = hoisted_rotations(ctx, ct, n1)
    elif rotation_strategy == "hybrid":
        baby, _ = hybrid_rotations(ctx, ct, n1, r_hyb)
    else:
        raise ValueError(f"unknown rotation strategy {rotation_strategy!r}")

    result: Optional[Ciphertext] = None
    for j in range(n2):
        partial: Optional[Ciphertext] = None
        for i in range(n1):
            diag = matrix_diagonal(matrix, n1 * j + i)
            rotated_diag = np.roll(diag, n1 * j)  # Rot_{-n1*j} of the diagonal
            # Encode at the last-prime scale so the final rescale restores
            # the input ciphertext scale (standard RNS-CKKS practice).
            pt_scale = float(ct.moduli[-1])
            pt = ctx.encode(rotated_diag, level=ct.level, scale=pt_scale)
            term = ops.mul_plain(baby[i], pt)
            partial = term if partial is None else ops.add(partial, term)
        if partial is None:
            raise InvariantViolation(
                "repro.fhe.bsgs.pt_mat_vec_mult",
                f"giant step {j} accumulated no diagonal terms",
            )
        if j:
            partial = _rotate_psum(ctx, partial, n1 * j)
        result = partial if result is None else ops.add(result, partial)
    if result is None:
        raise InvariantViolation(
            "repro.fhe.bsgs.pt_mat_vec_mult",
            "no giant-step partials were produced (empty matrix?)",
        )
    return ops.rescale(ctx, result)


def _rotate_psum(ctx: CKKSContext, ct: Ciphertext, amount: int) -> Ciphertext:
    """Giant-step rotation of an accumulated partial sum."""
    return ops.rotate(ctx, ct, amount)


def plaintext_mat_vec_reference(
    matrix: np.ndarray, vector: np.ndarray
) -> np.ndarray:
    """Cleartext oracle for tests."""
    return matrix @ vector
