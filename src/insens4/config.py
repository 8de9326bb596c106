"""Run configuration: key = value sections with a hard schema.

Unknown sections or keys are errors, not warnings, so a typo cannot
silently fall back to a default.  Box-valued keys use ``lo:hi`` per
axis, axes joined by ``,`` and unions by ``|``; vector and matrix
coefficients are comma-separated floats (row-major for matrices).
"""

from __future__ import annotations

import configparser
import copy
import math
from pathlib import Path

import numpy as np

from .errors import SetupError
from .hum_synthesis import VARIANTS
from .nonlinearity import make_nonlinearity
from .problem_setup import (
    ROLE_AXES,
    CoefficientField,
    ProblemConfig,
    ValidatedProblem,
    build_grid,
    build_mask,
    validate_problem,
)

__all__ = ["SCHEMA", "default_config", "parse_config", "parse_boxes",
           "apply_quick", "coefficients_from_config", "problem_from_config"]

# (type, default); types: int, float, str, bool, floats, boxes
SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "grid": {
        "dimension": ("int", 1),
        "extent": ("float", 2.0),
        "cells": ("int", 64),
        "t_final": ("float", 1.0),
        "steps": ("int", 200),
    },
    "domains": {
        "omega": ("boxes", "0.6:1.4"),
        "obs": ("boxes", "1.0:1.8"),
        "omega0": ("boxes", ""),  # empty: inset the omega/obs overlap
        "smooth": ("bool", False),
    },
    "coefficients": {
        "a0": ("float", 0.0),
        "b0": ("floats", "0"),
        "b": ("floats", "0"),
        "a1": ("float", 0.0),
    },
    "force": {
        "amplitude": ("float", 5.0),
        "onset": ("float", 0.25),
        "mode": ("int", 1),
    },
    "weights": {
        "lambda": ("float", 1.0),
        "s": ("float", 0.0),  # 0: threshold * s_factor
        "s_factor": ("float", 1.0),
        "c_proxy": ("float", 1.0),
        "eta_peak": ("floats", "0"),  # one entry per axis; 0: automatic peak
    },
    "penalty": {
        "epsilon": ("float", 1e-3),
        "variant": ("str", "exact"),
        "tol": ("float", 1e-8),
        "max_iter": ("int", 2000),
    },
    "nonlinearity": {
        "kind": ("str", "zero"),
        "scale": ("float", 0.1),
    },
    "picard": {
        "tol": ("float", 1e-8),
        "max_iter": ("int", 25),
    },
    "sampling": {
        "samples": ("int", 50),
        "mode_cap": ("int", 0),  # 0: all resolvable modes
        "tau_probe": ("float", 0.03),
        "directions": ("int", 5),
        "gap_tol": ("float", 1e-3),
    },
    "run": {
        "seed": ("int", 0),
        "threads": ("int", 0),  # 0: library default
        "out": ("str", "insens4_out"),
    },
}

# Smallest admissible value of integer keys that have one.
_MINIMUM = {("sampling", "samples"): 1, ("sampling", "mode_cap"): 0,
            ("sampling", "directions"): 1,
            ("penalty", "max_iter"): 1, ("picard", "max_iter"): 1}
# Float keys that must be positive.
_POSITIVE = {("sampling", "tau_probe"), ("sampling", "gap_tol"),
             ("penalty", "tol"), ("picard", "tol")}
# String keys with a fixed set of values.
_CHOICES = {("penalty", "variant"): VARIANTS}

_BOOL = {"true": True, "1": True, "yes": True, "on": True,
         "false": False, "0": False, "no": False, "off": False}


def default_config() -> dict:
    cfg: dict = {}
    for section, keys in SCHEMA.items():
        cfg[section] = {}
        for key, (kind, default) in keys.items():
            cfg[section][key] = _coerce(section, key, kind, default)
    return cfg


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {value}")
    return value


def _coerce(section: str, key: str, kind: str, raw):
    where = f"[{section}] {key}"
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return _finite(float(raw))
        if kind == "str":
            return str(raw).strip()
        if kind == "bool":
            if isinstance(raw, bool):
                return raw
            token = str(raw).strip().lower()
            if token not in _BOOL:
                raise ValueError(f"not a boolean: {raw!r}")
            return _BOOL[token]
        if kind == "floats":
            return tuple(_finite(float(tok)) for tok in str(raw).split(","))
        if kind == "boxes":
            return str(raw).strip()
    except (TypeError, ValueError) as exc:
        raise SetupError("config-value", f"{where}: {exc}") from None
    raise SetupError("config-value", f"{where}: unknown schema kind {kind!r}")


def parse_config(path: str | Path | None = None) -> dict:
    """Defaults overlaid with the file at ``path``, schema-checked.

    Raises
    ------
    SetupError
        ``config-missing`` for an unreadable path, ``config-parse`` for
        malformed syntax, ``config-unknown-key`` for keys or sections
        outside the schema, ``config-value`` for uncoercible or
        non-finite values, for sample counts and iteration budgets below
        one or negative mode caps and direction counts, for a probe step
        or tolerance that is not positive, and for a penalty variant
        outside ``hum_synthesis.VARIANTS``.
    """
    cfg = default_config()
    if path is None:
        return cfg
    path = Path(path)
    if not path.is_file():
        raise SetupError("config-missing", f"cannot read config file {path}")
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise SetupError("config-parse", f"{path}: {exc}") from None
    for section in parser.sections():
        if section not in SCHEMA:
            raise SetupError("config-unknown-key",
                             f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise SetupError(
                    "config-unknown-key",
                    f"{path}: unknown key {key!r} in section [{section}]")
            kind = SCHEMA[section][key][0]
            cfg[section][key] = _coerce(section, key, kind, raw)
            floor = _MINIMUM.get((section, key))
            if floor is not None and cfg[section][key] < floor:
                raise SetupError(
                    "config-value",
                    f"{path}: [{section}] {key} must be >= {floor}, "
                    f"got {cfg[section][key]}")
            if (section, key) in _POSITIVE and not cfg[section][key] > 0.0:
                raise SetupError(
                    "config-value",
                    f"{path}: [{section}] {key} must be > 0, "
                    f"got {cfg[section][key]}")
            choices = _CHOICES.get((section, key))
            if choices is not None and cfg[section][key] not in choices:
                raise SetupError(
                    "config-value",
                    f"{path}: [{section}] {key} must be one of "
                    f"{', '.join(choices)}, got {cfg[section][key]!r}")
    return cfg


def parse_boxes(spec: str, dim: int, label: str = "") -> list:
    """``lo:hi`` intervals, axes joined by ``,``, unions by ``|``."""
    boxes = []
    for part in spec.split("|"):
        part = part.strip()
        if not part:
            continue
        axes = part.split(",")
        if len(axes) != dim:
            raise SetupError(
                "config-value",
                f"box {label!r}: {part!r} has {len(axes)} axes, grid has {dim}")
        intervals = []
        for token in axes:
            pieces = token.split(":")
            if len(pieces) != 2:
                raise SetupError("config-value",
                                 f"box {label!r}: bad interval {token!r}")
            try:
                lo, hi = float(pieces[0]), float(pieces[1])
            except ValueError:
                raise SetupError("config-value",
                                 f"box {label!r}: bad interval {token!r}") from None
            intervals.append((lo, hi))
        boxes.append(tuple(intervals) if dim > 1 else intervals[0])
    if not boxes:
        raise SetupError("config-value", f"box {label!r}: empty specification")
    return boxes


def apply_quick(cfg: dict) -> dict:
    """Shrunk copy of the configuration for smoke-level runs."""
    cfg = copy.deepcopy(cfg)
    cfg["grid"]["cells"] = min(cfg["grid"]["cells"], 32)
    cfg["grid"]["steps"] = min(cfg["grid"]["steps"], 64)
    cfg["sampling"]["samples"] = min(cfg["sampling"]["samples"], 8)
    cfg["sampling"]["directions"] = min(cfg["sampling"]["directions"], 2)
    cfg["picard"]["max_iter"] = min(cfg["picard"]["max_iter"], 12)
    return cfg


def _auto_omega0(omega_boxes, obs_boxes, grid):
    """Overlap of the first omega and obs boxes, inset by two cells."""
    dim = grid.dim
    first_omega = omega_boxes[0] if dim > 1 else (omega_boxes[0],)
    first_obs = obs_boxes[0] if dim > 1 else (obs_boxes[0],)
    intervals = []
    for ax in range(dim):
        h = grid.basis.extents[ax] / grid.basis.n_cells
        lo = max(first_omega[ax][0], first_obs[ax][0]) + 2 * h
        hi = min(first_omega[ax][1], first_obs[ax][1]) - 2 * h
        if not lo < hi:
            raise SetupError(
                "config-value",
                "omega and obs do not overlap enough for an automatic inner "
                "subdomain; set [domains] omega0 explicitly")
        intervals.append((lo, hi))
    return [tuple(intervals) if dim > 1 else intervals[0]]


def _coefficient(role: str, cfg: dict, dim: int) -> CoefficientField | None:
    axes = ROLE_AXES[role]
    if axes == 0:
        value = cfg["coefficients"][role]
        if value == 0.0:
            return None
        return CoefficientField.constant(role, value, dim)
    values = cfg["coefficients"][role]
    expected = dim ** axes
    if len(values) == 1 and values[0] == 0.0:
        return None
    if len(values) != expected:
        raise SetupError(
            "config-value",
            f"[coefficients] {role}: expected {expected} entries, "
            f"got {len(values)}")
    arr = np.asarray(values, dtype=float)
    if not np.any(arr):
        return None
    return CoefficientField.constant(role, arr.reshape((dim,) * axes), dim)


def coefficients_from_config(cfg: dict, dim: int) -> dict[str, CoefficientField | None]:
    """Lower-order coefficient fields for the configured operator."""
    return {role: _coefficient(role, cfg, dim) for role in ROLE_AXES}


def _force_fields(cfg: dict, grid) -> tuple[np.ndarray | None, float]:
    """The configured force at the midpoint nodes, read-only, and its onset."""
    amp = cfg["force"]["amplitude"]
    if amp == 0.0:
        return None, 0.0
    onset = cfg["force"]["onset"]
    mode = cfg["force"]["mode"]
    basis = grid.basis
    profile = np.ones(basis.shape)
    mesh = basis.mesh()
    for ax in range(grid.dim):
        profile = profile * np.sin(mode * np.pi * mesh[ax] / basis.extents[ax])
    fields = np.zeros((grid.n_steps,) + basis.shape)
    for j, t in enumerate(grid.times):
        if t > onset:
            fields[j] = amp * profile
    fields.flags.writeable = False
    return fields, onset


def problem_from_config(cfg: dict) -> ValidatedProblem:
    """Build and validate the problem the configuration describes."""
    g = cfg["grid"]
    grid = build_grid(g["dimension"], g["extent"], g["cells"], g["t_final"],
                      g["steps"])
    dim = grid.dim
    smooth = cfg["domains"]["smooth"]
    omega_boxes = parse_boxes(cfg["domains"]["omega"], dim, "omega")
    obs_boxes = parse_boxes(cfg["domains"]["obs"], dim, "obs")
    omega = build_mask(grid, omega_boxes, "omega", smooth=smooth)
    obs = build_mask(grid, obs_boxes, "obs", smooth=smooth)
    if cfg["domains"]["omega0"]:
        omega0_boxes = parse_boxes(cfg["domains"]["omega0"], dim, "omega0")
    else:
        omega0_boxes = _auto_omega0(omega_boxes, obs_boxes, grid)
    omega0 = build_mask(grid, omega0_boxes, "omega0", smooth=False)

    force, onset = _force_fields(cfg, grid)
    kind = cfg["nonlinearity"]["kind"]
    nl = make_nonlinearity(kind, cfg["nonlinearity"]["scale"], dim=dim)

    w = cfg["weights"]
    problem = ProblemConfig(
        grid=grid, omega=omega, obs=obs, omega0=omega0,
        **coefficients_from_config(cfg, dim),
        force=force, force_onset=onset,
        epsilon=cfg["penalty"]["epsilon"],
        lam=w["lambda"],
        s=None if w["s"] == 0.0 else w["s"],
        s_factor=w["s_factor"],
        c_proxy=w["c_proxy"],
        eta_peak=w["eta_peak"] if np.any(w["eta_peak"]) else None,
        nonlinearity=nl,
    )
    return validate_problem(problem)
