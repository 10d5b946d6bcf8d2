"""JSON configuration documents.

Sections: domain, coefficients (with the builtin field grammar and the
declared vanishing order k), and optional experiment / mc sections that the
CLI forwards.  The field grammar:

    1.5                               constant
    {"poly": {"2": 30.0, "3": -60.0}}           exponent keys "i" or "i,j"
    {"trig": {"fn": "sin", "freq": [3.14], "phase": 0.0, "amp": 1.0}}
    {"dist_power": {"m": 2, "factor": <field>}}  dist(x, boundary)^m * factor
    {"sum": [<field>, ...]}
    {"scale": {"by": 2.0, "field": <field>}}
"""
from __future__ import annotations

import json

import numpy as np

from .errors import ConfigError
from .fields import (CoefficientSet, DistPowerField, LinearCombo, MatrixField,
                     PolyField, TrigWave, VectorField, const)
from .geometry import Domain
from .presets import ProblemSpec


def parse_domain(node) -> Domain:
    try:
        kind = node["kind"]
        if kind == "interval":
            return Domain.interval(node["a"], node["b"])
        if kind == "rectangle":
            return Domain.rectangle(node["x0"], node["y0"], node["x1"], node["y1"])
        if kind == "disk":
            cx, cy = node.get("center", (0.0, 0.0))
            return Domain.disk(cx, cy, node["radius"])
        if kind == "annulus":
            cx, cy = node.get("center", (0.0, 0.0))
            return Domain.annulus(cx, cy, node["r_inner"], node["r_outer"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad domain section: {exc}") from exc
    raise ConfigError(f"unknown domain kind {node.get('kind')!r}")


def _parse_exponent_key(key, dim):
    parts = [p.strip() for p in str(key).split(",")]
    if len(parts) != dim:
        raise ConfigError(f"exponent key {key!r} has {len(parts)} entries, expected {dim}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"exponent key {key!r} is not integer") from exc


def parse_field(node, dim, domain=None):
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return const(dim, float(node))
    if not isinstance(node, dict) or len(node) != 1:
        raise ConfigError(f"field spec must be a number or a one-key object, got {node!r}")
    (tag, body), = node.items()
    try:
        if tag == "const":
            return const(dim, float(body))
        if tag == "poly":
            coeffs = {_parse_exponent_key(k, dim): float(v) for k, v in body.items()}
            return PolyField.from_dict(dim, coeffs)
        if tag == "trig":
            return TrigWave.make(dim, body.get("fn", "cos"), body["freq"],
                                 phase=body.get("phase", 0.0), amp=body.get("amp", 1.0))
        if tag == "dist_power":
            if domain is None:
                raise ConfigError("dist_power fields need a domain")
            m = body["m"]
            if type(m) is not int or m < 0:
                raise ConfigError(f"dist_power needs an integer power m >= 0, got {m!r}")
            return DistPowerField(domain, m, parse_field(body.get("factor", 1.0), dim, domain))
        if tag == "sum":
            if not body:
                raise ConfigError("a sum field needs at least one term")
            return LinearCombo(tuple((1.0, parse_field(t, dim, domain)) for t in body))
        if tag == "scale":
            return LinearCombo(((float(body["by"]), parse_field(body["field"], dim, domain)),))
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {tag!r} field {body!r}: {exc!r}") from exc
    raise ConfigError(f"unknown field tag {tag!r}")


def parse_coefficients(node, domain: Domain, k=None) -> CoefficientSet:
    d = domain.dim
    if not isinstance(node, dict):
        raise ConfigError(f"coefficients section must be an object, got {node!r}")
    try:
        k = node["k"] if k is None else k
    except KeyError as exc:
        raise ConfigError("an integer vanishing order 'k' is required "
                          "(top level or in the coefficients section)") from exc
    if isinstance(k, float) and k.is_integer():
        k = int(k)
    if isinstance(k, bool) or not isinstance(k, int):
        raise ConfigError(f"the vanishing order 'k' must be an integer, got {k!r}")

    diff = node.get("diffusion", 1.0)
    if isinstance(diff, list):
        if len(diff) != d or any(not isinstance(row, list) or len(row) != d for row in diff):
            raise ConfigError(f"diffusion matrix must be {d}x{d}")
        rows = [[parse_field(e, d, domain) for e in row] for row in diff]
        diffusion = MatrixField.from_entries(rows)
    else:
        diffusion = MatrixField.isotropic(d, parse_field(diff, d, domain))

    drift_node = node.get("drift")
    if drift_node is None:
        drift = VectorField.zero(d)
    else:
        if not isinstance(drift_node, list) or len(drift_node) != d:
            raise ConfigError(f"drift must be a list of {d} field specs")
        drift = VectorField(tuple(parse_field(c, d, domain) for c in drift_node))

    def need(key):
        if key not in node:
            raise ConfigError(f"coefficients section is missing {key!r}")
        return parse_field(node[key], d, domain)

    boundary_node = node.get("boundary_data")
    if boundary_node is None:
        boundary_data = PolyField.from_dict(d, {tuple(1 if i == 0 else 0 for i in range(d)): 1.0})
    else:
        boundary_data = parse_field(boundary_node, d, domain)

    return CoefficientSet(
        diffusion=diffusion, drift=drift, intensity=need("intensity"),
        redistribution=need("redistribution"), boundary_data=boundary_data,
        vanishing_order=k,
        allow_vanishing_intensity=bool(node.get("allow_vanishing_intensity", False)))


def build_problem(doc) -> ProblemSpec:
    if not isinstance(doc, dict) or "domain" not in doc or "coefficients" not in doc:
        raise ConfigError("config needs 'domain' and 'coefficients' sections")
    domain = parse_domain(doc["domain"])
    coeffs = parse_coefficients(doc["coefficients"], domain, k=doc.get("k"))
    try:
        x0 = np.asarray(doc["x0"], dtype=float) if "x0" in doc else None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"x0 must be a list of numbers: {exc}") from exc
    return ProblemSpec(domain=domain, coeffs=coeffs,
                       name=doc.get("name"), x0=x0)


def load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
