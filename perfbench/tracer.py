"""Per-layer timing of zbrng by wrapping, from outside the program, every
public function and method of its modules.

A layer is one module of the package; `cycnum` is the CycNum class on its
own, kept apart from the rest of `exact`.  Each wrapped call adds to its
layer's call count and self time (its duration minus the time of the wrapped
calls it made), and to the inclusive time of its kernel group when it is the
outermost call of that group.  Calls outside the CycNum layer are also kept
as spans (function, command, start, duration, parent span) in memory and
written out at the end; CycNum calls are too many to keep one by one.
"""

import inspect
import json
import time

LAYERS = ("cli", "rng_core", "spectra", "hadamard", "quotients", "exact",
          "generators", "cycnum")

KERNELS = {
    "split_s": ("spectra.smatrix_from_tensor", "hadamard.reconstruct_exact",
                "hadamard.reconstruct_mod3"),
    "decompose_s": ("spectra.verlinde_tensor",),
    "closed_s": ("spectra.closed_subset_heuristic", "spectra.subring_smatrix",
                 "hadamard.had_closed_subsets"),
    "involution_s": ("spectra.involution_from_smatrix",
                     "rng_core.search_involution"),
    "axioms_s": ("rng_core.verify_axioms", "rng_core.identity_coefficients",
                 "hadamard.f2_algebra_check"),
    "invariants_s": ("hadamard.profile", "hadamard.multiset_census",
                     "hadamard.wmatrix", "hadamard.v_rank",
                     "hadamard.equiv_screen"),
    "lift_s": ("quotients.fannsc_lift", "quotients.order2_quotient"),
    "text_read_s": "_from_text",
    "text_write_s": "_to_text",
}

# how many closed sets a call returned
SET_COUNTS = {
    "spectra.closed_subset_heuristic": lambda res: len(res.sets),
    "hadamard.had_closed_subsets": len,
}

# operator methods that are CycNum's public arithmetic
DUNDERS = {"__add__", "__sub__", "__rsub__", "__mul__", "__neg__", "__pow__",
           "__truediv__", "__eq__", "__hash__"}

MAX_SPANS = 2_000_000


def _kernel_of(qualname):
    for group, members in KERNELS.items():
        if isinstance(members, str):
            if qualname.split(".")[-1].endswith(members):
                return group
        elif qualname in members:
            return group
    return None


class Tracer:
    def __init__(self, package):
        self.modules = {name: getattr(package, name) for name in LAYERS
                        if name != "cycnum"}
        self.names = []
        self.spans = []
        self.dropped = 0
        self.request = None
        self._installed = []
        self._targets = self._discover()
        self.reset()

    # -- discovery and (un)installation

    def _discover(self):
        """(owner, attribute, original, wrapper) for every public function
        and method defined in a layer module."""
        targets = []
        for layer, mod in self.modules.items():
            for name, obj in sorted(vars(mod).items()):
                if name.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    cls_layer = "cycnum" if name == "CycNum" else layer
                    for mname, mobj in sorted(vars(obj).items()):
                        if mname.startswith("_") and mname not in DUNDERS:
                            continue
                        qual = "%s.%s.%s" % (layer, name, mname)
                        if isinstance(mobj, classmethod):
                            w = classmethod(self._wrap(mobj.__func__, qual,
                                                       cls_layer))
                        elif inspect.isfunction(mobj):
                            w = self._wrap(mobj, qual, cls_layer)
                        else:
                            continue
                        targets.append((obj, mname, mobj, w))
                elif callable(obj):
                    w = self._wrap(obj, "%s.%s" % (layer, name), layer)
                    for mod2 in self.modules.values():
                        for alias, val in vars(mod2).items():
                            if val is obj:
                                targets.append((mod2, alias, obj, w))
        return targets

    def install(self):
        for owner, attr, orig, wrapper in self._targets:
            setattr(owner, attr, wrapper)
        self._installed = self._targets

    def uninstall(self):
        for owner, attr, orig, wrapper in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed = []

    # -- accounting

    def reset(self):
        """Start a new pass: zero the counters (spans are kept)."""
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.kernel_s = dict.fromkeys(KERNELS, 0.0)
        self.closed_sets = 0
        self._depth = dict.fromkeys(KERNELS, 0)
        self._child = []         # child-time accumulator per open call
        self._open_spans = []    # span index per open non-CycNum call
        self._in_cycnum = 0

    def _wrap(self, fn, qual, layer):
        fid = len(self.names)
        self.names.append(qual)
        group = _kernel_of(qual)
        counter = SET_COUNTS.get(qual)
        clock = time.perf_counter
        tr = self

        if layer == "cycnum":
            def wrapper(*args, **kwargs):
                tr._child.append(0.0)
                tr._in_cycnum += 1
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    tr._in_cycnum -= 1
                    tr.self_s["cycnum"] += dt - tr._child.pop()
                    tr.calls["cycnum"] += 1
                    if tr._child:
                        tr._child[-1] += dt
            return wrapper

        def wrapper(*args, **kwargs):
            span = None
            if not tr._in_cycnum:
                if len(tr.spans) < MAX_SPANS:
                    parent = tr._open_spans[-1] if tr._open_spans else -1
                    span = len(tr.spans)
                    tr.spans.append([fid, tr.request, 0.0, 0.0, parent])
                else:
                    tr.dropped += 1
            tr._open_spans.append(span)
            tr._child.append(0.0)
            if group:
                tr._depth[group] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if counter:
                    tr.closed_sets += counter(result)
                return result
            finally:
                dt = clock() - t0
                tr.self_s[layer] += dt - tr._child.pop()
                tr.calls[layer] += 1
                if tr._child:
                    tr._child[-1] += dt
                if group:
                    tr._depth[group] -= 1
                    if not tr._depth[group]:
                        tr.kernel_s[group] += dt
                tr._open_spans.pop()
                if span is not None:
                    tr.spans[span][2:4] = [t0, dt]
        return wrapper

    def snapshot(self):
        """Per-layer metrics of the pass since the last reset."""
        out = {}
        for layer in LAYERS:
            out[layer + ".self_s"] = self.self_s[layer]
            out[layer + ".calls"] = self.calls[layer]
        out.update(self.kernel_s)
        out["closed.sets"] = self.closed_sets
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["function", "command", "start_s",
                                  "duration_s", "parent"],
                       "dropped": self.dropped,
                       "spans": self.spans}, fh)
