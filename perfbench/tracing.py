"""Per-layer tracing of qbeckner from outside the library.

``Tracer.install`` replaces public functions of the library's modules, and
the numpy/scipy decompositions they call, with wrappers that record a span
per call; ``Tracer.remove`` puts the originals back. Nothing under ``src/``
is edited: the wrappers are set on the module, class or function attributes
that the library's code looks up at call time.

A span's self time is its duration minus the durations of the spans called
directly inside it. Spans live in compact in-memory arrays and are written
out once, by ``Tracer.dump``, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

import numpy as np

# (span name, defining module, attribute). Every qbeckner module that holds a
# reference to the same function object gets the wrapper, so a name imported
# with ``from .x import f`` is traced like a call through ``x.f``.
LIBRARY_SPANS: List[Tuple[str, str, str]] = [
    ("linalg.herm_eigh", "qbeckner.linalg", "herm_eigh"),
    ("linalg.partial_dd_tensor", "qbeckner.linalg", "partial_dd_tensor"),
    ("kernels.stable_powdiff", "qbeckner.kernels", "stable_powdiff"),
    ("semigroup.DbcLindbladian.apply", "qbeckner.semigroup", "DbcLindbladian.apply"),
    ("semigroup.evolve", "qbeckner.semigroup", "evolve"),
    ("entropy.weighted_p_norm", "qbeckner.entropy", "weighted_p_norm"),
    ("entropy.entropy_functional", "qbeckner.entropy", "entropy_functional"),
    ("entropy.q_variance", "qbeckner.entropy", "q_variance"),
    ("entropy.p_divergence", "qbeckner.entropy", "p_divergence"),
    ("dirichlet.dirichlet_form", "qbeckner.dirichlet", "dirichlet_form"),
    ("constants.estimate_constant", "qbeckner.constants", "estimate_constant"),
    ("transport.w2p_solve", "qbeckner.transport", "w2p_solve"),
    ("transport.onsager_matrix", "qbeckner.transport", "onsager_matrix"),
    ("transport.geodesic_shoot", "qbeckner.transport", "geodesic_shoot"),
    ("ricci.ricci_estimate", "qbeckner.ricci", "ricci_estimate"),
    ("ricci.hessian_matrix", "qbeckner.ricci", "hessian_matrix"),
    ("ricci.hessian_form", "qbeckner.ricci", "hessian_form"),
    ("cli.run", "qbeckner.cli", "run"),
    ("config.build_generator", "qbeckner.config", "build_generator"),
]

# Dense decompositions, counted wherever they are called from.
LAPACK_SPANS: List[Tuple[str, str, str]] = [
    ("linalg.lapack.eigh", "numpy.linalg", "eigh"),
    ("linalg.lapack.eigh", "scipy.linalg", "eigh"),
    ("linalg.lapack.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("linalg.lapack.svd", "numpy.linalg", "svd"),
    ("linalg.lapack.expm", "scipy.linalg", "expm"),
]

# scipy's minimize as each solver module sees it; fun and jac get spans too.
MINIMIZE_SITES = {"constants": "qbeckner.constants", "transport": "qbeckner.transport"}


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, int] = defaultdict(int)
        self.recording = False
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.parent.append(stack[-1][0] if stack else -1)
            tracer.name_id.append(nid)
            tracer.end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            tracer.start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.end[idx] = t1
                dur = t1 - t0
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return traced

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, name: str, module: str, attr: str) -> None:
        owner, leaf = _resolve(module, attr)
        original = getattr(owner, leaf)
        wrapped = self.wrap(name, self._count_optimized(original)
                            if name == "constants.estimate_constant" else original)
        if isinstance(owner, type):
            self._set(owner, leaf, wrapped)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qbeckner" or mod_name.startswith("qbeckner.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)
        if getattr(owner, leaf) is original:  # numpy/scipy modules
            self._set(owner, leaf, wrapped)

    def _minimize_wrapper(self, site: str, original: Callable) -> Callable:
        tracer = self
        objective_name = f"{site}.objective"
        gradient_name = f"{site}.gradient"

        def minimize(fun, x0, *args, **kwargs):
            if not tracer.recording:
                return original(fun, x0, *args, **kwargs)
            fun = tracer.wrap(objective_name, fun)
            if callable(kwargs.get("jac")):
                kwargs["jac"] = tracer.wrap(gradient_name, kwargs["jac"])
            res = tracer.wrap(f"{site}.minimize", original)(fun, x0, *args, **kwargs)
            tracer.counters[f"{site}.minimize.runs"] += 1
            tracer.counters[f"{site}.minimize.nit"] += int(res.nit)
            tracer.counters[f"{site}.minimize.nfev"] += int(res.nfev)
            return res

        return minimize

    def _count_optimized(self, original: Callable) -> Callable:
        """Count the estimates that minimize a ratio: every kind but
        'poincare', which is read off the spectrum."""
        tracer = self

        def estimate_constant(L, kind, *args, **kwargs):
            if tracer.recording and kind != "poincare":
                tracer.counters["constants.optimized_estimates"] += 1
            return original(L, kind, *args, **kwargs)

        return estimate_constant

    def install(self) -> None:
        for name, module, attr in LIBRARY_SPANS + LAPACK_SPANS:
            self._patch_everywhere(name, module, attr)
        for site, module in MINIMIZE_SITES.items():
            mod = importlib.import_module(module)
            self._set(mod, "minimize", self._minimize_wrapper(site, mod.minimize))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def reset_counts(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counters.clear()

    def snapshot(self) -> Dict[str, float]:
        """Counts and self times accumulated since the last reset."""
        out: Dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        out.update(self.counters)
        return out

    def dump(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start, dtype=float), end=np.array(self.end, dtype=float))
