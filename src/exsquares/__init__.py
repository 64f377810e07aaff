"""Sets of n distinct perfect squares whose sum, after removing any
one member, is again a perfect square.

Two constructions are provided: seed a short solution family and grow
it with a norm-preserving linear transform until all entries are
distinct (method 1), or assign two-squares chain products to the
entries and solve the resulting quadratic conditions exactly
(method 2).  Everything is exact integer arithmetic, and every
produced system carries certificates checkable by verify.validate_system.

The names in __all__ are resolved on first access (PEP 562), so
importing the package loads none of its modules.
"""

__version__ = "0.1.0"

# home module -> the names it exports
_EXPORTS = {
    "exactmath": ("DomainError", "isqrt"),
    "seeds": ("SquareSystem", "seed_n5_simple"),
    "evolve": ("coefficients", "distinctify", "generate_method1",
               "reduce_chain", "transform"),
    "derive": ("ASSIGN_N5", "derive_n5", "derive_n6", "derive_n7",
               "derive_n8", "discriminant", "fermat_square", "pipeline_n5",
               "pipeline_n6", "pipeline_n7", "pipeline_n8", "residual"),
    "verify": ("validate_chain", "validate_system"),
    "catalog": ("cross_check", "eval_family", "get_family", "list_families"),
}
_HOMES = {name: home for home, names in _EXPORTS.items() for name in names}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
