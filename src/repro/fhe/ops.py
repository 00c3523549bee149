"""Homomorphic operators on CKKS ciphertexts.

Implements the operator set from Section II-A of the paper: HAdd, HSub,
HMult (tensor product + relinearization), CAdd/CMult (scalar), PAdd/PMult
(plaintext), HRescale, HRot (automorphism + key-switch), and HConj.  All
operators validate scale/level compatibility so misuse fails loudly.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.fhe import keyswitch
from repro.fhe.ciphertext import Ciphertext, Plaintext
from repro.fhe.context import CKKSContext
from repro.fhe.encoding import (
    conjugation_galois_element,
    rotation_galois_element,
)
from repro.fhe.poly import Domain, RnsPoly
from repro.fhe.rns import flooring_scale

# Rescaling leaves the scale at Delta**2 / q_l, which differs from Delta by
# the (prime - 2**scale_bits) / prime ratio; treat scales this close as equal
# the way production CKKS libraries do.
_SCALE_RTOL = 1e-3


def _check_same_shape(ct0: Ciphertext, ct1: Ciphertext) -> None:
    if ct0.level != ct1.level:
        raise ValueError(f"level mismatch: {ct0.level} vs {ct1.level}")
    if not math.isclose(ct0.scale, ct1.scale, rel_tol=_SCALE_RTOL):
        raise ValueError(f"scale mismatch: {ct0.scale} vs {ct1.scale}")


def add(ct0: Ciphertext, ct1: Ciphertext) -> Ciphertext:
    """HAdd: component-wise polynomial addition."""
    _check_same_shape(ct0, ct1)
    if ct0.size != ct1.size:
        raise ValueError("ciphertext sizes differ")
    polys = [p0 + p1 for p0, p1 in zip(ct0.polys, ct1.polys)]
    return Ciphertext(polys, ct0.scale, ct0.level)


def sub(ct0: Ciphertext, ct1: Ciphertext) -> Ciphertext:
    """HSub: component-wise polynomial subtraction."""
    _check_same_shape(ct0, ct1)
    if ct0.size != ct1.size:
        raise ValueError("ciphertext sizes differ")
    polys = [p0 - p1 for p0, p1 in zip(ct0.polys, ct1.polys)]
    return Ciphertext(polys, ct0.scale, ct0.level)


def negate(ct: Ciphertext) -> Ciphertext:
    """Negation of every component."""
    return Ciphertext([-p for p in ct.polys], ct.scale, ct.level)


def add_plain(ct: Ciphertext, pt: Plaintext) -> Ciphertext:
    """PAdd: add an encoded plaintext to the ``b`` component."""
    if pt.level != ct.level:
        raise ValueError(f"level mismatch: ct {ct.level} vs pt {pt.level}")
    if not math.isclose(pt.scale, ct.scale, rel_tol=_SCALE_RTOL):
        raise ValueError(f"scale mismatch: ct {ct.scale} vs pt {pt.scale}")
    polys = [ct.polys[0] + pt.poly.to_ntt()] + [p.copy() for p in ct.polys[1:]]
    return Ciphertext(polys, ct.scale, ct.level)


def mul_plain(ct: Ciphertext, pt: Plaintext) -> Ciphertext:
    """PMult: multiply every component by an encoded plaintext.

    The result's scale is the product of the operand scales; a rescale is
    usually required afterwards.
    """
    if pt.level != ct.level:
        raise ValueError(f"level mismatch: ct {ct.level} vs pt {pt.level}")
    pt_ntt = pt.poly.to_ntt()
    polys = [p * pt_ntt for p in ct.polys]
    return Ciphertext(polys, ct.scale * pt.scale, ct.level)


def add_scalar(ctx: CKKSContext, ct: Ciphertext, value: complex) -> Ciphertext:
    """CAdd: add a constant to all slots."""
    pt = ctx.encode([value] * ctx.params.slots, level=ct.level, scale=ct.scale)
    return add_plain(ct, pt)


def mul_scalar(
    ctx: CKKSContext,
    ct: Ciphertext,
    value: complex,
    pt_scale: Optional[float] = None,
) -> Ciphertext:
    """CMult: multiply all slots by a constant.

    The constant is encoded at ``pt_scale`` (default: the last prime of
    the current basis, so that a following rescale restores the input
    scale exactly in the RNS-CKKS style).
    """
    if pt_scale is None:
        pt_scale = float(ct.moduli[-1])
    pt = ctx.encode([value] * ctx.params.slots, level=ct.level, scale=pt_scale)
    return mul_plain(ct, pt)


def mul_scalar_integer(ct: Ciphertext, value: int) -> Ciphertext:
    """Multiply by a small integer without consuming scale."""
    polys = [p.scalar_mul(value) for p in ct.polys]
    return Ciphertext(polys, ct.scale, ct.level)


def tensor(ct0: Ciphertext, ct1: Ciphertext) -> Ciphertext:
    """The tensor product step of HMult: ``(d0, d1, d2)``.

    Operand scales need not match — the product's scale is tracked
    exactly as their product, which is what keeps deep circuits (e.g.
    EvalMod's Horner/squaring chain) numerically faithful.
    """
    if ct0.level != ct1.level:
        raise ValueError(f"level mismatch: {ct0.level} vs {ct1.level}")
    if ct0.size != 2 or ct1.size != 2:
        raise ValueError("tensor product requires size-2 ciphertexts")
    b0, a0 = ct0.polys
    b1, a1 = ct1.polys
    d0 = b0 * b1
    d1 = a0 * b1 + b0 * a1
    d2 = a0 * a1
    return Ciphertext([d0, d1, d2], ct0.scale * ct1.scale, ct0.level)


def relinearize(ctx: CKKSContext, ct: Ciphertext) -> Ciphertext:
    """KeySwitch the ``d2`` component back onto ``(b, a)``."""
    if ct.size != 3:
        raise ValueError("relinearization expects a size-3 ciphertext")
    evk = ctx.relin_key(ct.level)
    ks_b, ks_a = keyswitch.key_switch(ctx, ct.polys[2], evk)
    return Ciphertext(
        [ct.polys[0] + ks_b, ct.polys[1] + ks_a], ct.scale, ct.level
    )


def multiply(ctx: CKKSContext, ct0: Ciphertext, ct1: Ciphertext) -> Ciphertext:
    """HMult: tensor product followed by relinearization (no rescale)."""
    return relinearize(ctx, tensor(ct0, ct1))


def square(ctx: CKKSContext, ct: Ciphertext) -> Ciphertext:
    """Homomorphic squaring (same pipeline as HMult)."""
    return multiply(ctx, ct, ct)


def rescale(ctx: CKKSContext, ct: Ciphertext) -> Ciphertext:
    """HRescale: divide by the last prime modulus and drop a level."""
    if ct.level == 0:
        raise ValueError("cannot rescale at level 0")
    last = ct.moduli[-1]
    new_polys = []
    for p in ct.polys:
        coeff = p.to_coeff()
        scaled = flooring_scale(coeff.data, list(coeff.moduli), last)
        new_polys.append(
            RnsPoly(scaled, coeff.moduli[:-1], Domain.COEFF).to_ntt()
        )
    return Ciphertext(new_polys, ct.scale / last, ct.level - 1)


def level_down(ct: Ciphertext, target_level: int) -> Ciphertext:
    """Drop limbs (without dividing) to reach a lower level."""
    if target_level > ct.level:
        raise ValueError("cannot raise the level by dropping limbs")
    polys = ct.polys
    level = ct.level
    while level > target_level:
        polys = [p.drop_last_limb() for p in polys]
        level -= 1
    return Ciphertext([p.copy() for p in polys], ct.scale, level)


def automorphism(ct: Ciphertext, t: int) -> Ciphertext:
    """Apply the Galois map to every component (no key-switch)."""
    return Ciphertext(
        [p.automorphism(t) for p in ct.polys], ct.scale, ct.level
    )


def rotate(ctx: CKKSContext, ct: Ciphertext, r: int) -> Ciphertext:
    """HRot: rotate slot contents left by ``r`` positions.

    Implements ``ct_rot = (sigma(b), 0) + KeySwitch(sigma(a))`` with
    ``sigma = X -> X^{5^r}``, per Section II-A.
    """
    if ct.size != 2:
        raise ValueError("rotation expects a size-2 ciphertext")
    r = r % ctx.params.slots
    if r == 0:
        return ct.copy()
    t = rotation_galois_element(ctx.params.n, r)
    b_rot = ct.polys[0].automorphism(t)
    a_rot = ct.polys[1].automorphism(t)
    evk = ctx.rotation_key(r, ct.level)
    ks_b, ks_a = keyswitch.key_switch(ctx, a_rot, evk)
    return Ciphertext([b_rot + ks_b, ks_a], ct.scale, ct.level)


def conjugate(ctx: CKKSContext, ct: Ciphertext) -> Ciphertext:
    """HConj: complex-conjugate all slots (Galois element ``-1``)."""
    if ct.size != 2:
        raise ValueError("conjugation expects a size-2 ciphertext")
    t = conjugation_galois_element(ctx.params.n)
    b_c = ct.polys[0].automorphism(t)
    a_c = ct.polys[1].automorphism(t)
    evk = ctx.conjugation_key(ct.level)
    ks_b, ks_a = keyswitch.key_switch(ctx, a_c, evk)
    return Ciphertext([b_c + ks_b, ks_a], ct.scale, ct.level)
