"""On-disk formats for design tables, policy tables, and test rules.

Binary containers carry a JSON header (length-prefixed) followed by raw
little-endian payloads in canonical state order; rule files are plain
JSON.  Byte-identical reproduction across runs is part of the contract,
so all floats are written with full round-trip precision.

A rule file (format 2) holds ``format``, ``kind`` and the fields of the
rule's dataclass, which are the single statement of its keys: arrays as
lists and certificates as objects.  An exact rule's ``design`` is the
digest of the design it was built and certified for
(:meth:`~rarexact.engine.PathWeightTable.digest`); the rule refuses any
other.  A file without ``format``, or with another, is refused rather
than read under rules it was not built for, such as a format-1 rule that
names no design.

A policy table (``RXPT2``) has the header keys ``n``, ``burn_in``, ``p``
and ``sizes``, the layer sizes of epochs ``2b .. n - 1``, and then their
control probabilities as float64.  ``RXPT1`` (action codes) is refused.
"""

from __future__ import annotations

import json
import struct
from dataclasses import MISSING, asdict, fields

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
RULE_FORMAT = 2


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


def _is_number(value) -> bool:
    """An int or a float other than NaN; +-inf are the rules' sentinels."""
    return _is_int(value) or isinstance(value, float) and value == value


def _or_null(check):
    test, kind = check
    return (lambda v: v is None or test(v), f"{kind} or null")


def _list_of(test, kind: str):
    return (lambda v: isinstance(v, list) and all(map(test, v)), f"a list of {kind}")


_INT = (_is_int, "an integer")
_NUMBER = (_is_number, "a number")
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
    # -inf is a weight of zero; NaN and +inf are no weight.  The maximum
    # propagates NaN, and needs no layer-sized temporary.
    with np.errstate(invalid="ignore"):
        top = log_g.max()
    if not top < np.inf:
        raise ValueError(f"{path}: log g holds NaN or +inf")
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


RULES = {cls.kind: cls
         for cls in (ConditionalRule, UnconditionalRule, BoschlooRule, AsymptoticRule)}
# the keys each rule kind needs besides "kind" and "format": its fields
# without a default
RULE_KEYS = {kind: tuple(f.name for f in fields(cls) if f.default is MISSING)
             for kind, cls in RULES.items()}
_CERT_KEYS = tuple(f.name for f in fields(RegionCertificate))
_CERTIFICATE = (lambda v: isinstance(v, dict), "a certificate object")
# the test of a rule or certificate field's JSON value, by the field's
# annotation
_FIELD_CHECKS = {
    "int": _INT,
    "float": _NUMBER,
    "float | None": _or_null(_NUMBER),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "npt.NDArray[np.float64]": _list_of(_is_number, "numbers"),
    "npt.NDArray[np.bool_]": _list_of(lambda v: isinstance(v, bool), "booleans"),
    "RegionCertificate": _CERTIFICATE,
    "RegionCertificate | None": _or_null(_CERTIFICATE),
}

_CHECKS_OF = {cls: {f.name: _FIELD_CHECKS[f.type] for f in fields(cls)}
              for cls in (*RULES.values(), RegionCertificate)}


def _require_fields(d: dict, cls, what: str) -> None:
    """Raise ``ValueError`` naming the first field of dataclass ``cls``
    present in ``d`` whose value does not fit the field's annotation."""
    _require_types(d, {key: check for key, check in _CHECKS_OF[cls].items() if key in d}, what)


def _to_json(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, RegionCertificate):
        return asdict(value)
    return value


def rule_to_dict(rule) -> dict:
    """``format``, ``kind`` and every field of ``rule``."""
    if RULES.get(getattr(rule, "kind", None)) is not type(rule):
        raise TypeError(f"cannot serialize rule {rule!r}")
    return {"format": RULE_FORMAT, "kind": rule.kind,
            **{f.name: _to_json(getattr(rule, f.name)) for f in fields(rule)}}


def _from_json(key: str, value):
    """A rule field read back; the fields named ``*certificate`` hold a
    :class:`RegionCertificate` or ``None``."""
    if key.endswith("certificate") and value is not None:
        _require(value, _CERT_KEYS, "certificate")
        _require_fields(value, RegionCertificate, "certificate")
        return RegionCertificate(**{k: value[k] for k in _CERT_KEYS})
    return value


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
    if not _is_number(alpha):
        raise ValueError(f"alpha = {alpha!r} is not a number")
    check_alpha(alpha)
    kind = d["kind"]
    if not isinstance(kind, str) or kind not in RULES:
        raise ValueError(f"unknown rule kind {kind!r}")
    cls = RULES[kind]
    _require(d, RULE_KEYS[kind], f"{kind} rule")
    _require_fields(d, cls, f"{kind} rule")
    # an array field holds one entry per success count
    for f in fields(cls):
        if f.type.startswith("npt.NDArray") and len(d[f.name]) != d["n"] + 1:
            raise ValueError(f"{kind} rule key {f.name!r} must hold n + 1 = {d['n'] + 1} "
                             "entries, one per success count")
    return cls(**{f.name: _from_json(f.name, d[f.name]) for f in fields(cls) if f.name in d})


def write_rule(path, rule):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(rule_to_dict(rule), fh, sort_keys=True, indent=1)
        fh.write("\n")


def read_rule(path):
    with open(path, "r", encoding="utf-8") as fh:
        return rule_from_dict(json.load(fh))
