"""On-disk formats for design tables, policy tables, and test rules.

Binary containers carry a JSON header (length-prefixed) followed by raw
little-endian payloads in canonical state order; rule files are plain
JSON.  Byte-identical reproduction across runs is part of the contract,
so all floats are written with full round-trip precision.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .engine import PathWeightTable
from .exact_tests import (
    BoschlooRule,
    ConditionalRule,
    RegionCertificate,
    UnconditionalRule,
)
from .numerics import check_alpha
from .operating import AsymptoticRule
from .policies import PolicyTable
from .states import layer as make_layer

WEIGHT_MAGIC = b"RXGW1\n"
POLICY_MAGIC = b"RXPT1\n"


def _write_container(path, magic: bytes, header: dict, payload: bytes):
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(payload)


def _require(d, keys, what: str) -> None:
    """Raise ``ValueError`` naming the first of ``keys`` missing from ``d``."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(d).__name__}")
    for key in keys:
        if key not in d:
            raise ValueError(f"{what} lacks the required key {key!r}")


def _read_container(path, magic: bytes) -> tuple[dict, bytes]:
    with open(path, "rb") as fh:
        if fh.read(len(magic)) != magic:
            raise ValueError(f"{path}: not a {magic!r} container")
        (hlen,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        return header, fh.read()


def write_weight_table(path, table: PathWeightTable):
    header = {
        "n": table.n,
        "burn_in": table.burn_in,
        "policy": table.meta,
        "size": int(table.log_g.size),
    }
    payload = np.ascontiguousarray(table.log_g, dtype="<f8").tobytes()
    _write_container(path, WEIGHT_MAGIC, header, payload)


def read_weight_table(path) -> PathWeightTable:
    header, payload = _read_container(path, WEIGHT_MAGIC)
    lay = make_layer(header["n"], header["burn_in"])
    log_g = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if log_g.size != lay.size:
        raise ValueError(f"{path}: payload size does not match the layer")
    return PathWeightTable(lay, log_g, meta=header.get("policy", {}))


def write_policy_table(path, table: PolicyTable, extra: dict | None = None):
    header = {
        "n": table.n,
        "burn_in": table.burn_in,
        "p": table.p,
        "codes": {"-1": "burn-in", "0": "1-p", "1": "1/2", "2": "p"},
        "sizes": [int(c.size) for c in table.codes],
    }
    if extra:
        header["extra"] = extra
    payload = b"".join(np.ascontiguousarray(c, dtype=np.int8).tobytes() for c in table.codes)
    _write_container(path, POLICY_MAGIC, header, payload)


def read_policy_table(path) -> PolicyTable:
    header, payload = _read_container(path, POLICY_MAGIC)
    raw = np.frombuffer(payload, dtype=np.int8)
    codes = []
    pos = 0
    for size in header["sizes"]:
        codes.append(raw[pos:pos + size].copy())
        pos += size
    return PolicyTable(header["n"], header["burn_in"], header["p"], tuple(codes))


def _cert_dict(cert: RegionCertificate | None):
    if cert is None:
        return None
    return {
        "level": cert.level,
        "accepted": cert.accepted,
        "certified_upper": cert.certified_upper,
        "lower_bound": cert.lower_bound,
    }


def _cert_from(d):
    if d is None:
        return None
    _require(d, ("level", "accepted", "certified_upper", "lower_bound"), "certificate")
    return RegionCertificate(d["level"], d["accepted"], d["certified_upper"], d["lower_bound"])


def rule_to_dict(rule) -> dict:
    if isinstance(rule, ConditionalRule):
        return {
            "kind": rule.kind, "alpha": rule.alpha, "n": rule.n,
            "upper": rule.upper.tolist(), "upper_closed": rule.upper_closed.tolist(),
            "lower": rule.lower.tolist(), "lower_closed": rule.lower_closed.tolist(),
            "certificate": _cert_dict(rule.certificate),
        }
    if isinstance(rule, UnconditionalRule):
        return {
            "kind": rule.kind, "alpha": rule.alpha, "n": rule.n,
            "upper": rule.upper, "upper_closed": rule.upper_closed,
            "lower": rule.lower, "lower_closed": rule.lower_closed,
            "certificate": _cert_dict(rule.certificate),
            "upper_certificate": _cert_dict(rule.upper_certificate),
            "lower_certificate": _cert_dict(rule.lower_certificate),
        }
    if isinstance(rule, BoschlooRule):
        return {
            "kind": rule.kind, "alpha": rule.alpha, "n": rule.n,
            "threshold": rule.threshold, "largest_included": rule.largest_included,
            "certificate": _cert_dict(rule.certificate),
        }
    if isinstance(rule, AsymptoticRule):
        return {"kind": rule.kind, "alpha": rule.alpha}
    raise TypeError(f"cannot serialize rule {rule!r}")


# keys each rule kind needs besides "kind" and "alpha"; certificates and
# Boschloo's "largest_included" are optional
RULE_KEYS = {
    "conditional": ("n", "upper", "upper_closed", "lower", "lower_closed"),
    "unconditional": ("n", "upper", "upper_closed", "lower", "lower_closed"),
    "boschloo": ("n", "threshold"),
    "asymptotic": (),
}


def rule_from_dict(d: dict):
    _require(d, ("kind", "alpha"), "rule")
    alpha = d["alpha"]
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float)):
        raise ValueError(f"alpha = {alpha!r} is not a number")
    check_alpha(alpha)
    kind = d["kind"]
    if not isinstance(kind, str) or kind not in RULE_KEYS:
        raise ValueError(f"unknown rule kind {kind!r}")
    _require(d, RULE_KEYS[kind], f"{kind} rule")
    if kind == "conditional":
        return ConditionalRule(
            d["alpha"], d["n"],
            np.asarray(d["upper"], dtype=np.float64),
            np.asarray(d["upper_closed"], dtype=bool),
            np.asarray(d["lower"], dtype=np.float64),
            np.asarray(d["lower_closed"], dtype=bool),
            _cert_from(d.get("certificate")),
        )
    if kind == "unconditional":
        return UnconditionalRule(
            d["alpha"], d["n"], d["upper"], d["upper_closed"],
            d["lower"], d["lower_closed"],
            _cert_from(d.get("upper_certificate")),
            _cert_from(d.get("lower_certificate")),
            _cert_from(d.get("certificate")),
        )
    if kind == "boschloo":
        return BoschlooRule(
            d["alpha"], d["n"], d["threshold"], d.get("largest_included"),
            stat=None, certificate=_cert_from(d.get("certificate")),
        )
    return AsymptoticRule(d["alpha"])


def write_rule(path, rule):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(rule_to_dict(rule), fh, sort_keys=True, indent=1)
        fh.write("\n")


def read_rule(path):
    with open(path, "r", encoding="utf-8") as fh:
        return rule_from_dict(json.load(fh))
