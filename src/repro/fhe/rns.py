"""Residue number system (RNS) arithmetic kernels.

All residues are stored as numpy ``int64`` arrays with moduli kept below
2**30, so every intermediate product fits in an int64 without overflow.
This file provides the vectorized modular primitives plus the two RNS
algorithms that CKKS key-switching is built from:

* :class:`BaseConverter` — the approximate base conversion (``BConv``)
  that maps residues from one RNS basis to another.  In hardware this is
  the small-constant-matrix multiply discussed in Section III-A of the
  paper.
* CRT reconstruction helpers used by tests to check RNS round trips.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

INT = np.int64


def mod_add(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Element-wise modular addition."""
    return np.mod(a + b, q)


def mod_sub(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Element-wise modular subtraction."""
    return np.mod(a - b, q)


def mod_mul(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Element-wise modular multiplication (inputs must be < 2**31)."""
    return np.mod(a * b, q)


def mod_neg(a: np.ndarray, q: int) -> np.ndarray:
    """Element-wise modular negation."""
    return np.mod(-a, q)


def mod_inverse(a: int, q: int) -> int:
    """Modular inverse of a scalar (``a`` must be coprime to ``q``)."""
    return pow(int(a) % q, -1, q)


def centered(residues: np.ndarray, q: int) -> np.ndarray:
    """Map residues in [0, q) to the centered representation (-q/2, q/2]."""
    half = q // 2
    out = residues.astype(np.int64).copy()
    out[out > half] -= q
    return out


def crt_reconstruct(limbs: Sequence[np.ndarray], moduli: Sequence[int]) -> List[int]:
    """Reconstruct big integers from their RNS limbs (exact CRT).

    Returns the *centered* representatives in ``(-Q/2, Q/2]`` as Python
    ints, which is what signed polynomial coefficients require.
    """
    if len(limbs) != len(moduli):
        raise ValueError("limb/modulus count mismatch")
    big_q = 1
    for q in moduli:
        big_q *= int(q)
    n = len(limbs[0])
    garner: List[int] = []
    for i, q in enumerate(moduli):
        q_hat = big_q // int(q)
        garner.append(q_hat * mod_inverse(q_hat, int(q)))
    out = []
    for j in range(n):
        acc = 0
        for i in range(len(moduli)):
            acc += int(limbs[i][j]) * garner[i]
        acc %= big_q
        if acc > big_q // 2:
            acc -= big_q
        out.append(acc)
    return out


def to_rns(values: Sequence[int], moduli: Sequence[int]) -> List[np.ndarray]:
    """Decompose (possibly negative) big integers into RNS limbs."""
    return [
        np.array([int(v) % int(q) for v in values], dtype=INT) for q in moduli
    ]


class BaseConverter:
    """Approximate RNS base conversion (the ``BConv`` operator).

    Converts residues from a source basis ``{q_i}`` to a target basis
    ``{p_j}`` using the standard approximate technique of
    Bajard et al. / Cheon et al.:

        x mod p_j  ~=  sum_i [ (x_i * qhat_inv_i) mod q_i ] * qhat_i  mod p_j

    The approximation may add a small multiple ``e * Q`` (``0 <= e < len(q)``)
    to the result; CKKS tolerates this as additional noise.  In hardware
    terms this is a matrix multiply of the ``len(q) x N`` limb matrix with
    a constant ``len(p) x len(q)`` matrix, exactly the shape the paper's
    Section III-A analyses.
    """

    def __init__(self, source: Sequence[int], target: Sequence[int]):
        if not source or not target:
            raise ValueError("source and target bases must be non-empty")
        if len(set(source) & set(target)):
            raise ValueError("source and target bases must be disjoint")
        self.source: Tuple[int, ...] = tuple(int(q) for q in source)
        self.target: Tuple[int, ...] = tuple(int(p) for p in target)
        big_q = 1
        for q in self.source:
            big_q *= q
        self.source_product = big_q
        # qhat_inv_i = (Q / q_i)^{-1} mod q_i  — applied element-wise per limb.
        self._qhat_inv = np.array(
            [mod_inverse(big_q // q, q) for q in self.source], dtype=INT
        )
        # conversion_matrix[j][i] = (Q / q_i) mod p_j  — the BConv constant.
        self.matrix = np.array(
            [[(big_q // q) % p for q in self.source] for p in self.target],
            dtype=INT,
        )
        # Q mod p_j, used by the optional correction step.
        self._q_mod_p = np.array([big_q % p for p in self.target], dtype=INT)

    @property
    def matrix_elements(self) -> int:
        """Number of constants in the BConv matrix (cost-model input)."""
        return self.matrix.size

    def convert(self, limbs: np.ndarray) -> np.ndarray:
        """Convert a ``(len(source), n)`` limb matrix to the target basis.

        Returns a ``(len(target), n)`` limb matrix.  Vectorized over slots;
        the inner reduction over source limbs is done in python-int space
        per target modulus to avoid overflow for larger bases.
        """
        limbs = np.asarray(limbs, dtype=INT)
        if limbs.ndim != 2 or limbs.shape[0] != len(self.source):
            raise ValueError(
                f"expected ({len(self.source)}, n) limb matrix, got {limbs.shape}"
            )
        # y_i = x_i * qhat_inv_i mod q_i
        y = np.empty_like(limbs)
        for i, q in enumerate(self.source):
            y[i] = mod_mul(limbs[i], np.int64(self._qhat_inv[i]), q)
        out = np.empty((len(self.target), limbs.shape[1]), dtype=INT)
        for j, p in enumerate(self.target):
            # Accumulate sum_i y_i * (Q/q_i mod p_j) mod p_j with periodic
            # reduction so the int64 accumulator never overflows.
            acc = np.zeros(limbs.shape[1], dtype=INT)
            for i in range(len(self.source)):
                acc = np.mod(acc + y[i] * self.matrix[j, i], p)
            out[j] = acc
        return out

    def convert_exact_small(self, limbs: np.ndarray) -> np.ndarray:
        """Exact conversion via CRT (slow; used as a test oracle)."""
        values = crt_reconstruct(list(limbs), list(self.source))
        target_limbs = to_rns(values, list(self.target))
        return np.stack(target_limbs)


def flooring_scale(
    limbs: np.ndarray, moduli: Sequence[int], last: int
) -> np.ndarray:
    """Divide by the dropped modulus during rescale: (x - x_last) / q_last.

    Given limbs over ``q_0..q_l``, returns limbs over ``q_0..q_{l-1}`` of
    ``round(x / q_l)`` (up to rounding in the RNS-approximate sense).  This
    is the core of ``HRescale`` and of ``ModDown``'s final step.
    """
    moduli = [int(q) for q in moduli]
    if limbs.shape[0] != len(moduli):
        raise ValueError("limb count does not match basis size")
    if moduli[-1] != int(last):
        raise ValueError("`last` must be the final modulus of the basis")
    x_last = limbs[-1]
    out = np.empty((len(moduli) - 1, limbs.shape[1]), dtype=INT)
    for i, q in enumerate(moduli[:-1]):
        inv = mod_inverse(last, q)
        out[i] = mod_mul(mod_sub(limbs[i], x_last, q), np.int64(inv), q)
    return out
