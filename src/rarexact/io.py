"""On-disk formats for design tables, policy tables, and test rules.

Binary containers carry a JSON header (length-prefixed) followed by raw
little-endian payloads in canonical state order; rule files are plain
JSON.  Byte-identical reproduction across runs is part of the contract,
so all floats are written with full round-trip precision.  A rule file
carries its ``format``; one without it, or with another, is refused
rather than read under rules it was not built for, such as a Boschloo
threshold whose tie groups moved.

A policy table (``RXPT2``) has the header keys ``n``, ``burn_in``, ``p``
and ``sizes``, the layer sizes of epochs ``2b .. n - 1``, and then their
control probabilities as float64.  ``RXPT1`` (action codes) is refused.
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
POLICY_MAGIC = b"RXPT2\n"
RULE_FORMAT = 1


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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require_types(d: dict, checks: dict, what: str) -> None:
    """Raise ``ValueError`` naming the first key of ``checks`` whose value in
    ``d`` fails its test; ``checks`` maps a key to ``(test, description)``."""
    for key, (test, kind) in checks.items():
        if not test(d[key]):
            raise ValueError(f"{what} key {key!r} = {d[key]!r} is not {kind}")


_INT = (_is_int, "an integer")
_NUMBER = (lambda v: _is_int(v) or isinstance(v, float), "a number")
_SIZES = (
    lambda v: isinstance(v, list) and all(_is_int(x) and x >= 0 for x in v),
    "a list of non-negative integers",
)


def _read_container(path, magic: bytes) -> tuple[dict, bytes]:
    with open(path, "rb") as fh:
        head = fh.read(len(magic))
        if head == b"RXPT1\n":
            raise ValueError(f"{path}: a retired RXPT1 policy table; re-run `cmdp solve`")
        if head != magic:
            raise ValueError(f"{path}: not a {magic!r} container")
        prefix = fh.read(8)
        if len(prefix) != 8:
            raise ValueError(f"{path}: truncated {magic!r} container")
        (hlen,) = struct.unpack("<Q", prefix)
        header = json.loads(fh.read(hlen).decode("utf-8"))
        return header, fh.read()


def write_weight_table(path, table: PathWeightTable):
    """Write ``table`` with its numeric health in the header: the
    normalization error and the count of states of weight zero."""
    header = {
        "n": table.n,
        "burn_in": table.burn_in,
        "policy": table.meta,
        "size": int(table.log_g.size),
        "normalization_error": table.normalization_error(),
        "neg_inf_states": int(np.count_nonzero(table.log_g == -np.inf)),
    }
    payload = np.ascontiguousarray(table.log_g, dtype="<f8").tobytes()
    _write_container(path, WEIGHT_MAGIC, header, payload)


def read_weight_table(path) -> PathWeightTable:
    """Read a table written by :func:`write_weight_table`; header keys it
    does not need, such as the numeric health, are ignored."""
    header, payload = _read_container(path, WEIGHT_MAGIC)
    _require(header, ("n", "burn_in"), f"{path} header")
    _require_types(header, {"n": _INT, "burn_in": _INT}, f"{path} header")
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
        "sizes": [int(q.size) for q in table.probs],
    }
    if extra:
        header["extra"] = extra
    payload = b"".join(np.ascontiguousarray(q, dtype="<f8").tobytes() for q in table.probs)
    _write_container(path, POLICY_MAGIC, header, payload)


def read_policy_table(path) -> PolicyTable:
    header, payload = _read_container(path, POLICY_MAGIC)
    _require(header, ("n", "burn_in", "p", "sizes"), f"{path} header")
    _require_types(header, {"n": _INT, "burn_in": _INT, "p": _NUMBER, "sizes": _SIZES},
                   f"{path} header")
    total = sum(header["sizes"])
    if len(payload) != 8 * total:
        raise ValueError(f"{path}: payload holds {len(payload)} bytes, not 8 for each of "
                         f"the {total} states of 'sizes'")
    # views of one buffer: per-epoch copies would double the transient memory
    raw = np.frombuffer(payload, dtype="<f8").astype(np.float64, copy=False)
    bounds = np.cumsum([0] + header["sizes"]).tolist()
    probs = tuple(raw[lo:hi] for lo, hi in zip(bounds, bounds[1:]))
    return PolicyTable(header["n"], header["burn_in"], header["p"], probs)


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
    return {"format": RULE_FORMAT, **_rule_fields(rule)}


def _rule_fields(rule) -> dict:
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
    if "format" not in d:
        raise ValueError(
            f"rule lacks the required key 'format' (format {RULE_FORMAT}): it was saved "
            "by an older rarexact; rebuild the rule file with crit")
    if not (_is_int(d["format"]) and d["format"] == RULE_FORMAT):
        raise ValueError(
            f"rule key 'format' = {d['format']!r} is not {RULE_FORMAT}; "
            "rebuild the rule file with crit")
    alpha = d["alpha"]
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float)):
        raise ValueError(f"alpha = {alpha!r} is not a number")
    check_alpha(alpha)
    kind = d["kind"]
    if not isinstance(kind, str) or kind not in RULE_KEYS:
        raise ValueError(f"unknown rule kind {kind!r}")
    _require(d, RULE_KEYS[kind], f"{kind} rule")
    if kind == "conditional":
        _require_types(d, {"n": _INT}, "conditional rule")
        for key in RULE_KEYS[kind][1:]:
            if not (isinstance(d[key], list) and len(d[key]) == d["n"] + 1):
                raise ValueError(f"conditional rule key {key!r} must hold n + 1 = {d['n'] + 1} "
                                 "entries, one per success count")
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
            _cert_from(d.get("certificate")),
        )
    return AsymptoticRule(d["alpha"])


def write_rule(path, rule):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(rule_to_dict(rule), fh, sort_keys=True, indent=1)
        fh.write("\n")


def read_rule(path):
    with open(path, "r", encoding="utf-8") as fh:
        return rule_from_dict(json.load(fh))
