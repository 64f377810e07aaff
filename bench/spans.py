"""Span wrappers for the traced run, and the per-layer metrics they give.

``Tracer.install`` wraps every public function of every exsquares
module, a few private ones named in ``_PRIVATE``, and the methods of
``Poly``, ``RatFunc`` and ``HomogPoly``.  It then rebinds each wrapper
wherever the original is reachable: in every ``exsquares.*`` module that
imported it by name, and in module-level dicts such as
``cli._PIPELINES`` and ``evolve._SEEDS``.  A function missing from the
package is skipped, and the metrics built on it read 0.

Spans stay in memory, aggregated per span name as [calls, total ns,
self ns]; a span's self time is its duration minus the time its child
spans cover.  ``dump`` writes them out at the end of a process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

_MODULES = ("exactmath", "identities", "polyfield", "seeds", "evolve",
            "derive", "verify", "catalog", "cli")
_CLASSES = {"polyfield": ("Poly", "RatFunc", "HomogPoly")}
# private functions that mark a layer boundary the metrics need
_PRIVATE = {"evolve": ("_round",), "catalog": ("_parse_blocks",)}
# Self time in derive is split by the outermost derive span around it:
# the fixed-substitution pipelines, or the solvers that re-derive them.
_SOLVERS = {"derive_n5", "derive_n6", "derive_n7", "derive_n8", "residual",
            "discriminant", "fermat_square", "solve_quadratic",
            "vieta_second_root", "normalize_projective"}
_COUNTERS = ("gcd_bits_removed", "family_builds", "family_build_ns",
             "json_encodes", "json_bytes", "exclusion_bits_max")

TRACE_ENV = "EXSQUARES_BENCH_TRACE"


class Tracer:
    def __init__(self):
        self.stats = {}  # span name -> [calls, total ns, self ns]
        self.derive_ns = {"pipeline": 0, "solver": 0}
        self.counters = dict.fromkeys(_COUNTERS, 0)
        self._stack = []  # open spans as [name, child ns]
        self._ctx = []  # derive context of the open derive spans
        self._wrappers = {}  # id(original) -> (original, wrapper)

    def reset(self):
        """Zero every figure in place; wrappers keep their references."""
        for entry in self.stats.values():
            entry[:] = [0, 0, 0]
        for key in self.derive_ns:
            self.derive_ns[key] = 0
        for key in self.counters:
            self.counters[key] = 0
        self._stack.clear()
        self._ctx.clear()

    # -- wrapping -----------------------------------------------------

    def _wrap(self, fn, module):
        known = self._wrappers.get(id(fn))
        if known is not None and known[0] is fn:
            return known[1]
        name = f"{module}.{fn.__qualname__}"
        entry = self.stats.setdefault(name, [0, 0, 0])
        stack, ctxs, derive_ns = self._stack, self._ctx, self.derive_ns
        clock = time.perf_counter_ns
        post = _HOOKS.get(name)
        in_derive = module == "derive"
        tag = "solver" if fn.__name__ in _SOLVERS else "pipeline"
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            if in_derive:
                ctx = ctxs[-1] if ctxs else tag
                ctxs.append(ctx)
            done = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                d = clock() - t0
                stack.pop()
                own = d - frame[1]
                entry[0] += 1
                entry[1] += d
                entry[2] += own
                if in_derive:
                    derive_ns[ctxs.pop()] += own
                if done and post is not None:
                    post(counters, args, result, d,
                         stack[-1][0] if stack else None)
                if stack:
                    # the hook's own time is charged to no span
                    stack[-1][1] += clock() - t0

        self._wrappers[id(fn)] = (fn, wrapper)
        return wrapper

    def install(self):
        """Wrap and rebind; returns the number of wrapped callables."""
        for short in _MODULES:
            try:
                mod = importlib.import_module(f"exsquares.{short}")
            except ImportError:
                continue
            for attr, val in list(vars(mod).items()):
                if (inspect.isfunction(val) and val.__module__ == mod.__name__
                        and (not attr.startswith("_")
                             or attr in _PRIVATE.get(short, ()))):
                    self._wrap(val, short)
            for cls_name in _CLASSES.get(short, ()):
                cls = getattr(mod, cls_name, None)
                if cls is not None:
                    self._wrap_class(cls, short)
        for modname, mod in list(sys.modules.items()):
            if modname == "exsquares" or modname.startswith("exsquares."):
                self._rebind(mod)
        return len(self._wrappers)

    def _wrap_class(self, cls, short):
        for attr, val in list(vars(cls).items()):
            if attr == "__setattr__":
                continue
            if isinstance(val, classmethod):
                setattr(cls, attr, classmethod(self._wrap(val.__func__, short)))
            elif isinstance(val, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(val.__func__, short)))
            elif isinstance(val, property) and val.fget is not None:
                setattr(cls, attr, property(self._wrap(val.fget, short),
                                            val.fset, val.fdel, val.__doc__))
            elif inspect.isfunction(val):
                setattr(cls, attr, self._wrap(val, short))

    def _lookup(self, val):
        known = self._wrappers.get(id(val))
        return known[1] if known is not None and known[0] is val else None

    def _rebind(self, mod):
        for attr, val in list(vars(mod).items()):
            wrapper = self._lookup(val)
            if wrapper is not None:
                setattr(mod, attr, wrapper)
            elif isinstance(val, dict) and not attr.startswith("__"):
                for key, item in list(val.items()):
                    wrapper = self._lookup(item)
                    if wrapper is not None:
                        val[key] = wrapper

    # -- output -------------------------------------------------------

    def snapshot(self):
        return {"stats": {k: list(v) for k, v in self.stats.items() if v[0]},
                "derive_ns": dict(self.derive_ns),
                "counters": dict(self.counters)}

    def dump(self, prefix):
        path = f"{prefix}-{os.getpid()}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)

    def dump_forked_children(self, prefix):
        """Reset in each multiprocessing child (the sweep pool) and dump
        there at exit, where multiprocessing runs its finalizers."""
        import multiprocessing.util as mpu

        def start_child(tracer):
            tracer.reset()
            mpu.Finalize(tracer, tracer.dump, args=(prefix,), exitpriority=0)

        mpu.register_after_fork(self, start_child)


def merge(snapshots):
    """Sum snapshots; the *_max counters take the maximum."""
    out = {"stats": {}, "derive_ns": {"pipeline": 0, "solver": 0},
           "counters": dict.fromkeys(_COUNTERS, 0)}
    for snap in snapshots:
        for name, vals in snap["stats"].items():
            acc = out["stats"].setdefault(name, [0, 0, 0])
            for i, v in enumerate(vals):
                acc[i] += v
        for key, v in snap["derive_ns"].items():
            out["derive_ns"][key] += v
        for key, v in snap["counters"].items():
            if key.endswith("_max"):
                out["counters"][key] = max(out["counters"][key], v)
            else:
                out["counters"][key] += v
    return out


def load_dumps(directory):
    snaps = []
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            snaps.append(json.load(fh))
    return snaps


# -- hooks: counts taken where the work happens -------------------------

def _gcd_hook(counters, args, result, d, parent):
    # vec_gcd's result is the factor the caller divides out
    if parent is not None and parent.startswith("evolve."):
        counters["gcd_bits_removed"] += result.bit_length() - 1


def _family_hook(counters, args, result, d, parent):
    if parent == "evolve.method1_family":
        counters["family_builds"] += 1
        counters["family_build_ns"] += d


def _validate_hook(counters, args, result, d, parent):
    system = args[0] if args else None
    roots = getattr(system, "roots", None)
    if roots:
        low = min(abs(r) for r in roots)
        bits = (system.s - low * low).bit_length()
        if bits > counters["exclusion_bits_max"]:
            counters["exclusion_bits_max"] = bits


def _json_hook(counters, args, result, d, parent):
    counters["json_encodes"] += 1
    counters["json_bytes"] += len(result)


_HOOKS = {
    "exactmath.vec_gcd": _gcd_hook,
    "evolve.distinctify": _family_hook,
    "verify.validate_system": _validate_hook,
    "cli.system_to_json": _json_hook,
}


# -- per-layer metrics --------------------------------------------------

def layer_metrics(snap, ops):
    """Per-layer figures per attempted op (see README for each unit)."""
    stats, counters = snap["stats"], snap["counters"]

    def calls(*names):
        return sum(stats.get(n, (0, 0, 0))[0] for n in names)

    def total_ms(*names):
        return sum(stats.get(n, (0, 0, 0))[1] for n in names) / 1e6

    def module_self_ms(module):
        return sum(v[2] for k, v in stats.items()
                   if k.startswith(module + ".")) / 1e6

    def module_calls(module):
        return sum(v[0] for k, v in stats.items()
                   if k.startswith(module + "."))

    per_op = {
        "cli.encode_ms": total_ms("cli.system_to_json"),
        "cli.decode_ms": total_ms("cli.system_from_json"),
        "evolve.family_builds": counters["family_builds"],
        "evolve.family_build_ms": counters["family_build_ns"] / 1e6,
        "evolve.rounds": calls("evolve._round"),
        "evolve.transform_ms": total_ms("evolve.transform"),
        "evolve.reduce_ms": total_ms("evolve.reduce_chain",
                                     "evolve.finalize_system"),
        "evolve.gcd_bits_removed": counters["gcd_bits_removed"],
        "evolve.self_ms": module_self_ms("evolve"),
        "seeds.calls": module_calls("seeds"),
        "seeds.self_ms": module_self_ms("seeds"),
        "identities.chain_calls": calls("identities.chain4",
                                        "identities.chain8"),
        "identities.self_ms": module_self_ms("identities"),
        "derive.pipeline_calls": calls(*(f"derive.pipeline_n{n}"
                                         for n in range(5, 9))),
        "derive.pipeline_self_ms": snap["derive_ns"]["pipeline"] / 1e6,
        "derive.solver_self_ms": snap["derive_ns"]["solver"] / 1e6,
        "derive.residual_calls": calls("derive.residual"),
        "derive.fermat_calls": calls("derive.fermat_square"),
        "derive.solve_calls": calls("derive.solve_quadratic"),
        "derive.vieta_calls": calls("derive.vieta_second_root"),
        "polyfield.calls": module_calls("polyfield"),
        "polyfield.mul_calls": calls("polyfield.Poly.__mul__",
                                     "polyfield.RatFunc.__mul__"),
        "polyfield.self_ms": module_self_ms("polyfield"),
        "verify.validate_calls": calls("verify.validate_system"),
        "verify.self_ms": module_self_ms("verify"),
        "exactmath.isqrt_calls": calls("exactmath.isqrt",
                                       "exactmath.is_perfect_square",
                                       "exactmath.sqrt_exact",
                                       "exactmath.rational_sqrt"),
        "exactmath.gcd_calls": calls("exactmath.vec_gcd"),
        "exactmath.self_ms": module_self_ms("exactmath"),
        "catalog.parse_ms": total_ms("catalog._parse_blocks"),
        "catalog.eval_self_ms": stats.get("catalog.eval_family",
                                          (0, 0, 0))[2] / 1e6,
        "catalog.cross_check_ms": total_ms("catalog.cross_check"),
    }
    out = {k: v / ops for k, v in per_op.items()}
    encodes = counters["json_encodes"]
    out["cli.json_bytes"] = counters["json_bytes"] / encodes if encodes else 0
    out["verify.exclusion_bits_max"] = counters["exclusion_bits_max"]
    return out
