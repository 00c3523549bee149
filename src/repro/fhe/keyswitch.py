"""The digit-decomposed key-switching pipeline (paper Figure 1).

Key-switching converts a polynomial ``d`` that is "encrypted" under some
key ``s'`` into a ciphertext decryptable under ``s``.  With the
Han-Ki digit decomposition it runs in four explicit steps, each of which
is a first-class operator in the CROPHE IR:

1. ``Decomp``  — split the ``(l+1) x N`` limb matrix into ``beta`` digits
   of ``alpha`` limbs each (pure data routing).
2. ``ModUp``   — per digit, base-convert from the digit basis ``Q_j`` to
   the extended basis ``P * Q`` (iNTT -> BConv -> NTT around the matrix
   multiply, since BConv needs the coefficient representation).
3. ``KSKInP``  — inner product with the evaluation key along the digit
   dimension ``beta`` (element-wise multiply-accumulate in NTT domain).
4. ``ModDown`` — divide by the special modulus ``P`` and return to the
   ``Q`` basis (again iNTT -> BConv -> NTT plus a correction).

The functions here are deliberately step-by-step rather than fused so
that tests can probe each stage and so the operator-count accounting
matches the IR builders one-to-one.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.fhe.context import CKKSContext
from repro.fhe.keys import EvaluationKey
from repro.fhe.poly import Domain, RnsPoly
from repro.fhe.rns import BaseConverter, mod_inverse, mod_mul, mod_sub
from repro.resilience.errors import InvariantViolation


def decompose(d: RnsPoly, alpha: int) -> List[RnsPoly]:
    """``Decomp``: split limbs into digits of at most ``alpha`` limbs."""
    digits = []
    start = 0
    while start < d.num_limbs:
        end = min(start + alpha, d.num_limbs)
        digits.append(
            RnsPoly(d.data[start:end].copy(), d.moduli[start:end], d.domain)
        )
        start = end
    return digits


def mod_up(
    digit: RnsPoly, q_moduli: Sequence[int], p_moduli: Sequence[int]
) -> RnsPoly:
    """``ModUp``: extend a digit from its own basis to ``P * Q``.

    The digit's own limbs are carried over verbatim; the missing limbs of
    ``Q`` and all limbs of ``P`` are produced by base conversion in the
    coefficient domain (the iNTT -> BConv -> NTT sequence of Figure 1).
    The returned polynomial is in NTT domain over ``q_moduli + p_moduli``.
    """
    q_moduli = tuple(int(q) for q in q_moduli)
    p_moduli = tuple(int(p) for p in p_moduli)
    target_basis = q_moduli + p_moduli
    own = set(digit.moduli)
    missing = tuple(m for m in target_basis if m not in own)
    coeff_digit = digit.to_coeff()
    converter = BaseConverter(digit.moduli, missing)
    converted = converter.convert(coeff_digit.data)
    ext_coeff = RnsPoly(converted, missing, Domain.COEFF)
    ext_ntt = ext_coeff.to_ntt()
    own_ntt = digit.to_ntt()
    # Assemble rows in target basis order.
    n = digit.n
    rows = np.empty((len(target_basis), n), dtype=own_ntt.data.dtype)
    own_index = {q: i for i, q in enumerate(own_ntt.moduli)}
    ext_index = {q: i for i, q in enumerate(ext_ntt.moduli)}
    for row, q in enumerate(target_basis):
        if q in own_index:
            rows[row] = own_ntt.data[own_index[q]]
        else:
            rows[row] = ext_ntt.data[ext_index[q]]
    return RnsPoly(rows, target_basis, Domain.NTT)


def ksk_inner_product(
    digits_ext: Sequence[RnsPoly], evk: EvaluationKey
) -> Tuple[RnsPoly, RnsPoly]:
    """``KSKInP``: ``(sum_j d_j * evk_b_j, sum_j d_j * evk_a_j)``.

    Element-wise multiply-accumulate reducing along the digit dimension
    ``beta``; all operands live on the extended ``P * Q`` basis in NTT
    domain.
    """
    if len(digits_ext) != evk.num_digits:
        raise ValueError(
            f"{len(digits_ext)} digits vs evk with {evk.num_digits}"
        )
    acc_b = None
    acc_a = None
    for d_j, (b_j, a_j) in zip(digits_ext, evk.digits):
        term_b = d_j * b_j
        term_a = d_j * a_j
        acc_b = term_b if acc_b is None else acc_b + term_b
        acc_a = term_a if acc_a is None else acc_a + term_a
    if acc_b is None or acc_a is None:
        raise InvariantViolation(
            "repro.fhe.keyswitch.ksk_inner_product",
            "no digits accumulated (empty decomposition)",
        )
    return acc_b, acc_a


def mod_down(
    poly: RnsPoly, q_moduli: Sequence[int], p_moduli: Sequence[int]
) -> RnsPoly:
    """``ModDown``: divide by ``P`` and drop the special limbs.

    ``out = (x - BConv_{P->Q}([x]_P)) * P^{-1} mod Q``; the subtraction
    cancels ``x mod P`` so the difference is divisible by ``P`` up to the
    small base-conversion error.
    """
    q_moduli = tuple(int(q) for q in q_moduli)
    p_moduli = tuple(int(p) for p in p_moduli)
    if poly.moduli != q_moduli + p_moduli:
        raise ValueError("polynomial basis must be Q followed by P")
    coeff = poly.to_coeff()
    p_part = RnsPoly(
        coeff.data[len(q_moduli):].copy(), p_moduli, Domain.COEFF
    )
    converter = BaseConverter(p_moduli, q_moduli)
    p_in_q = converter.convert(p_part.data)
    big_p = 1
    for p in p_moduli:
        big_p *= p
    out = np.empty((len(q_moduli), poly.n), dtype=coeff.data.dtype)
    for i, q in enumerate(q_moduli):
        inv_p = mod_inverse(big_p, q)
        diff = mod_sub(coeff.data[i], p_in_q[i], q)
        out[i] = mod_mul(diff, np.int64(inv_p), q)
    return RnsPoly(out, q_moduli, Domain.COEFF).to_ntt()


def key_switch(
    ctx: CKKSContext, d: RnsPoly, evk: EvaluationKey
) -> Tuple[RnsPoly, RnsPoly]:
    """Full key-switch of a single polynomial ``d`` (NTT domain, Q basis).

    Returns the pair ``(ks_b, ks_a)`` over the same ``Q`` basis such that
    ``ks_b + ks_a * s ~= d * s'`` where ``s'`` is the key the ``evk``
    switches from.
    """
    level = d.num_limbs - 1
    if evk.level != level:
        raise ValueError(
            f"evk generated for level {evk.level}, data at level {level}"
        )
    q_moduli = ctx.params.moduli[: level + 1]
    p_moduli = ctx.params.special_moduli
    digits = decompose(d, ctx.params.alpha)
    digits_ext = [mod_up(dig, q_moduli, p_moduli) for dig in digits]
    acc_b, acc_a = ksk_inner_product(digits_ext, evk)
    ks_b = mod_down(acc_b, q_moduli, p_moduli)
    ks_a = mod_down(acc_a, q_moduli, p_moduli)
    return ks_b, ks_a
