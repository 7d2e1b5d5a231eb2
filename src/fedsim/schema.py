"""The config schema: every key of a fedsim config, declared once.

:data:`LEAVES` maps each dotted key to its default, its JSON type and at
most one bound. The CLI takes its defaults from the table, aligns JSON
values with their types (:func:`coerce`) and checks each resolved leaf
(:func:`check_config`); ``LocalConfig``, ``ServerHyper``, ``ModelSpec``
and ``RunConfig`` check their fields through it too (:func:`check`). A
value outside its bound is reported as ``<key> must <bound>, got <value>``.
"""

from __future__ import annotations

import math
from dataclasses import fields
from numbers import Integral, Real
from typing import NamedTuple

from .errors import ConfigError, StructuralError


# The update rules by name: fedsim.algorithms fills this dict as its
# REGISTRY, so a rule added there alone is admitted.
RULES: dict = {}


class Leaf(NamedTuple):
    default: object        # None: the key may also be null
    type: type             # bool, int, float, str, or list[int] / list[float]
    # An interval as text, "(0, 1]", whose brackets close their ends (a closed
    # inf end admits infinity); an int, the least integer; or the names allowed.
    bound: object = None


LEAVES = {
    "algorithm": Leaf("fedavg", str, RULES),
    "seed": Leaf(0, int, 0),
    "rounds": Leaf(50, int, 0),
    "clients": Leaf(10, int, 1),
    "participation": Leaf(1.0, float, "(0, 1]"),
    "eval_every": Leaf(1, int, 1),
    "targets": Leaf([], list[float], "(0, 1)"),
    "model.kind": Leaf("softmax_classifier", str,
                       ("linear_regression", "softmax_classifier", "mlp")),
    "model.input_dim": Leaf(20, int, 1),
    "model.output_dim": Leaf(10, int, 1),
    "model.hidden_dims": Leaf([], list[int], 1),
    "model.l2_weight_decay": Leaf(0.001, float, "[0, inf)"),
    "data.kind": Leaf("synthetic", str, ("synthetic", "csv")),
    "data.classes": Leaf(10, int, 1),
    "data.train_per_class": Leaf(50, int, 1),
    "data.test_per_class": Leaf(20, int, 1),
    "data.input_dim": Leaf(20, int, 1),
    "data.spread": Leaf(1.0, float, "[0, inf)"),
    "data.path": Leaf(None, str),
    "data.label_column": Leaf(None, str),
    "data.test_fraction": Leaf(0.2, float, "(0, 1)"),
    "data.normalize": Leaf(True, bool),
    "partition.kind": Leaf("iid", str, ("iid", "dirichlet")),
    "partition.concentration": Leaf(0.3, float, "(0, inf)"),
    "local.k": Leaf(50, int, 1),
    "local.batch_size": Leaf(None, int, 1),
    "local.epochs": Leaf(5, int, 1),
    "local.lr0": Leaf(0.1, float, "[0, inf)"),
    "local.lr_decay": Leaf(1.0, float, "(0, 1]"),
    "local.clip_norm": Leaf(10.0, float, "(0, inf]"),  # inf: no clipping
    "local.alpha": Leaf(1.0, float, "(-inf, inf)"),
    "local.beta": Leaf(0.01, float, "[0, inf)"),
    "local.prox_mu": Leaf(0.0, float, "[0, inf)"),
    "local.cm_alpha": Leaf(0.1, float, "[0, 1]"),
    "local.dyn_alpha": Leaf(0.01, float, "[0, inf)"),
    "server.tau": Leaf(1.0, float, "(0, 1]"),
    "server.lam": Leaf(0.85, float, "[0, 1)"),
    # null: the CLI fills in the rule's own default
    "server.global_lr": Leaf(None, float, "(0, inf)"),
    "server.avgm_beta": Leaf(0.6, float, "[0, 1)"),
    "server.adam_tau": Leaf(0.001, float, "(0, inf)"),
}


def _defaults() -> dict:
    tree = {}
    for key, leaf in LEAVES.items():
        section, _, name = key.rpartition(".")
        (tree.setdefault(section, {}) if section else tree)[name] = leaf.default
    return tree


# Every key at its default, nested by section.
DEFAULT_CONFIG = _defaults()

_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _align(kind, value, key: str, path: str | None):
    if getattr(kind, "__origin__", None) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list", path=path)
        return [_align(kind.__args__[0], v, f"{key}[{i}]", path) for i, v in enumerate(value)]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an int beyond the float range is infinite, as 1e999 is
            return math.inf if value > 0 else -math.inf
    if isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    raise ConfigError(f"{key} must be {_TYPE_NAMES[kind]}", path=path)


def coerce(key: str, value, path: str | None = None):
    """A JSON ``value`` for the leaf ``key``, aligned with its type (an int
    becomes a float where a float goes; a list item by item); null passes only
    where the default is null. Raises ConfigError, naming ``path``, otherwise."""
    if value is None and LEAVES[key].default is None:
        return None
    return _align(LEAVES[key].type, value, key, path)


def interval(text: str) -> tuple[float, float, bool, bool]:
    """An interval bound such as ``"(0, 1]"`` as ``(lo, hi, lo_closed, hi_closed)``."""
    lo, hi = (float(end) for end in text[1:-1].split(","))
    return lo, hi, text[0] == "[", text[-1] == "]"


def _admits(bound, x) -> bool:
    if isinstance(bound, str):
        lo, hi, lo_closed, hi_closed = interval(bound)
        return (isinstance(x, Real) and not isinstance(x, bool)
                and (lo < x or lo_closed and x == lo) and (x < hi or hi_closed and x == hi))
    if isinstance(bound, int):
        return isinstance(x, Integral) and not isinstance(x, bool) and x >= bound
    return x in bound


def _phrase(bound) -> str:
    if isinstance(bound, str):
        return "be a finite number" if bound == "(-inf, inf)" else f"lie in {bound}"
    if isinstance(bound, int):
        return {0: "be a nonnegative integer", 1: "be a positive integer"}.get(
            bound, f"be an integer of at least {bound}")
    return "be one of " + ", ".join(bound)


def check(key: str, value, error: type[Exception] = StructuralError) -> None:
    """Raise ``error`` unless ``value``, or each item of a list leaf, lies
    within the bound of the leaf ``key``."""
    leaf = LEAVES[key]
    items = ({f"{key}[{i}]": v for i, v in enumerate(value)}
             if isinstance(leaf.default, list) else {key: value})
    for name, v in items.items():
        if leaf.bound is not None and not _admits(leaf.bound, v):
            raise error(f"{name} must {_phrase(leaf.bound)}, got {v!r}")


def check_fields(section: str, obj) -> None:
    """Check each field of the dataclass ``obj`` as the leaf
    ``<section>.<field>``; None passes where the field's default is None."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if value is not None or f.default is not None:
            check(f"{section}.{f.name}", value)


def check_config(cfg: dict) -> None:
    """Check every leaf of a resolved config, where :func:`coerce` let
    null through only for a leaf whose default is null; raises ConfigError."""
    for key in LEAVES:
        section, _, name = key.rpartition(".")
        value = (cfg[section] if section else cfg)[name]
        if value is not None:
            check(key, value, ConfigError)
