"""Serialization of CKKS objects (npz-based).

Ciphertexts and evaluation keys are large (MBs at realistic parameters);
this module stores them as compressed numpy archives with a small JSON
header, so a client/server pair built on ``repro.fhe`` can exchange
encrypted payloads through files or sockets.

Only *public* material serializes: attempting to write a secret key
raises unless explicitly forced (guarding against the classic key-leak
accident).
"""

from __future__ import annotations

import io
import json
from typing import BinaryIO, Union

import numpy as np

from repro.fhe.ciphertext import Ciphertext
from repro.fhe.keys import EvaluationKey, SecretKey
from repro.fhe.poly import Domain, RnsPoly

_MAGIC = "repro-fhe-v1"


def _poly_arrays(prefix: str, poly: RnsPoly, arrays: dict, meta: dict) -> None:
    arrays[f"{prefix}.data"] = poly.data
    meta[prefix] = {
        "moduli": list(poly.moduli),
        "domain": poly.domain.value,
    }


def _poly_from(prefix: str, arrays, meta: dict) -> RnsPoly:
    info = meta[prefix]
    return RnsPoly(
        arrays[f"{prefix}.data"],
        tuple(info["moduli"]),
        Domain(info["domain"]),
    )


def dump_ciphertext(ct: Ciphertext, fp: Union[str, BinaryIO]) -> None:
    """Write a ciphertext to a file path or binary stream."""
    arrays: dict = {}
    meta: dict = {
        "magic": _MAGIC,
        "type": "ciphertext",
        "scale": ct.scale,
        "level": ct.level,
        "size": ct.size,
    }
    for i, poly in enumerate(ct.polys):
        _poly_arrays(f"poly{i}", poly, arrays, meta)
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8
    )
    np.savez_compressed(fp, **arrays)


def load_ciphertext(fp: Union[str, BinaryIO]) -> Ciphertext:
    """Read a ciphertext written by :func:`dump_ciphertext`."""
    with np.load(fp) as data:
        meta = json.loads(bytes(data["__meta__"]).decode())
        if meta.get("magic") != _MAGIC or meta.get("type") != "ciphertext":
            raise ValueError("not a serialized ciphertext")
        polys = [
            _poly_from(f"poly{i}", data, meta) for i in range(meta["size"])
        ]
    return Ciphertext(polys, meta["scale"], meta["level"])


def dump_evaluation_key(key: EvaluationKey, fp: Union[str, BinaryIO]) -> None:
    """Write an evaluation key (public material)."""
    arrays: dict = {}
    meta: dict = {
        "magic": _MAGIC,
        "type": "evk",
        "level": key.level,
        "kind": key.kind,
        "digits": key.num_digits,
    }
    for j, (b, a) in enumerate(key.digits):
        _poly_arrays(f"d{j}.b", b, arrays, meta)
        _poly_arrays(f"d{j}.a", a, arrays, meta)
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8
    )
    np.savez_compressed(fp, **arrays)


def load_evaluation_key(fp: Union[str, BinaryIO]) -> EvaluationKey:
    """Read an evaluation key written by :func:`dump_evaluation_key`."""
    with np.load(fp) as data:
        meta = json.loads(bytes(data["__meta__"]).decode())
        if meta.get("magic") != _MAGIC or meta.get("type") != "evk":
            raise ValueError("not a serialized evaluation key")
        digits = [
            (
                _poly_from(f"d{j}.b", data, meta),
                _poly_from(f"d{j}.a", data, meta),
            )
            for j in range(meta["digits"])
        ]
    return EvaluationKey(digits=digits, level=meta["level"], kind=meta["kind"])


def dump_secret_key(
    key: SecretKey, fp: Union[str, BinaryIO], i_know_what_i_am_doing: bool = False
) -> None:
    """Write a secret key.  Refuses unless explicitly forced."""
    if not i_know_what_i_am_doing:
        raise PermissionError(
            "refusing to serialize a secret key; pass "
            "i_know_what_i_am_doing=True if this is intentional"
        )
    arrays: dict = {}
    meta: dict = {"magic": _MAGIC, "type": "secret"}
    _poly_arrays("s", key.poly, arrays, meta)
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8
    )
    np.savez_compressed(fp, **arrays)


def load_secret_key(fp: Union[str, BinaryIO]) -> SecretKey:
    """Read a secret key written by :func:`dump_secret_key`."""
    with np.load(fp) as data:
        meta = json.loads(bytes(data["__meta__"]).decode())
        if meta.get("magic") != _MAGIC or meta.get("type") != "secret":
            raise ValueError("not a serialized secret key")
        return SecretKey(poly=_poly_from("s", data, meta))


def ciphertext_bytes(ct: Ciphertext) -> bytes:
    """Serialize a ciphertext to bytes (wire format)."""
    buf = io.BytesIO()
    dump_ciphertext(ct, buf)
    return buf.getvalue()


def ciphertext_from_bytes(blob: bytes) -> Ciphertext:
    """Deserialize a ciphertext from its wire format."""
    return load_ciphertext(io.BytesIO(blob))
