"""Spans around the calls into each gammares layer, for the traced run.

``Tracer.install`` replaces module attributes of gammares with wrappers:
the names a gammares module binds and calls internally
(``borelplane.lambert_w_array``, ``realmajor.rho_continue``, ...) and the
public entry points the benchmark calls itself.  Each call records one
span: name, start, end, parent span, op id, an amount (elements, panels,
points or Q-path nodes) and whether it raised.  Spans are kept in flat
arrays in memory and written out by ``save``; ``uninstall`` restores
every attribute.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from gammares import borelplane, laplace, realmajor


def _size(args, out):
    return int(np.size(out))


def _panels(args, out):
    return out.panels


def _qpath_nodes(args, out):
    return len(out.qpath.nodes)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.amount = array("q")
        self.error = array("b")
        self.op_id = -1
        self._stack = []
        self._saved = []

    def wrap(self, name: str, fn, amount=None):
        """fn, recording a span named `name` per call."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, amounts, errors = self.start, self.end, self.amount, self.error
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(ends)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            amounts.append(0)
            errors.append(0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                errors[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if amount is not None:
                amounts[idx] = amount(args, out)
            return out

        return wrapper

    def _ray_builder(self, build):
        def traced(*args, **kwargs):
            return self.wrap("borelplane.ray_sample", build(*args, **kwargs), _size)

        return traced

    def install(self):
        plan = [
            # names gammares modules bind and call internally
            (borelplane, "lambert_w_array",
             lambda f: self.wrap("lambertw.lambert_w_array", f, _size)),
            (realmajor, "lambert_w", lambda f: self.wrap("lambertw.lambert_w", f)),
            (laplace, "adaptive_quad",
             lambda f: self.wrap("quadrature.adaptive_quad", f, _panels)),
            (realmajor, "adaptive_quad",
             lambda f: self.wrap("quadrature.adaptive_quad", f, _panels)),
            (realmajor, "rho_continue", lambda f: self.wrap("realmajor.rho_continue", f)),
            (realmajor, "rho_lambda_c", lambda f: self.wrap("realmajor.rho_lambda_c", f)),
            # entry points the benchmark calls, and the samplers it builds
            (realmajor, "rho_on_sheet",
             lambda f: self.wrap("realmajor.rho_on_sheet", f, _qpath_nodes)),
            (laplace, "laplace_ray", lambda f: self.wrap("laplace.laplace_ray", f)),
            (laplace, "laplace_real_major",
             lambda f: self.wrap("laplace.laplace_real_major", f)),
            (borelplane, "ray_sampler", self._ray_builder),
        ]
        missing = [f"{m.__name__}.{attr}" for m, attr, _ in plan
                   if not callable(getattr(m, attr, None))]
        if missing:
            raise RuntimeError("cannot trace, missing: " + ", ".join(missing))
        for module, attr, make in plan:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, make(original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- aggregation --------------------------------------------------------

    def _arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64),
                np.frombuffer(self.amount, dtype=np.int64),
                np.frombuffer(self.error, dtype=np.int8).astype(bool))

    def summary(self) -> dict:
        """Per span name: calls, self seconds, amount total and maximum,
        and errors that originated there (raised by no traced child)."""
        name, parent, start, end, amount, error = self._arrays()
        n_names = len(self.names)
        dur = end - start
        nested = parent >= 0
        child_ns = np.zeros(len(dur), dtype=np.int64)
        np.add.at(child_ns, parent[nested], dur[nested])
        child_err = np.zeros(len(dur), dtype=bool)
        np.logical_or.at(child_err, parent[nested], error[nested])
        self_ns = dur - child_ns
        amount_max = np.zeros(n_names, dtype=np.int64)
        np.maximum.at(amount_max, name, amount)
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=self_ns, minlength=n_names) / 1e9
        amounts = np.bincount(name, weights=amount, minlength=n_names)
        errors = np.bincount(name, weights=(error & ~child_err).astype(float),
                             minlength=n_names)
        return {label: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                        "amount": int(amounts[i]), "amount_max": int(amount_max[i]),
                        "errors": int(errors[i])}
                for i, label in enumerate(self.names)}

    def save(self, path):
        name, parent, start, end, amount, error = self._arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 op=np.frombuffer(self.op, dtype=np.int32), start_ns=start,
                 end_ns=end, amount=amount, error=error)


_EMPTY = {"calls": 0, "self_s": 0.0, "amount": 0, "amount_max": 0, "errors": 0}


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of a traced run, as name -> (value, unit)."""
    spans = tracer.summary()

    def get(name):
        return spans.get(name, _EMPTY)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    out = {}
    for name in ("lambertw.lambert_w_array", "lambertw.lambert_w",
                 "borelplane.ray_sample", "quadrature.adaptive_quad", "laplace.laplace_ray",
                 "laplace.laplace_real_major", "realmajor.rho_continue",
                 "realmajor.rho_on_sheet", "realmajor.rho_lambda_c"):
        out[f"{name}.calls"] = (get(name)["calls"], "count")
        out[f"{name}.self_s"] = (get(name)["self_s"], "s")
    w = get("lambertw.lambert_w_array")
    out["lambertw.lambert_w_array.elements"] = (w["amount"], "count")
    out["lambertw.lambert_w_array.us_per_element"] = (
        per(w["self_s"], w["amount"], 1e6), "us")
    out["borelplane.ray_sample.points"] = (get("borelplane.ray_sample")["amount"], "count")
    q = get("quadrature.adaptive_quad")
    out["quadrature.adaptive_quad.panels"] = (q["amount"], "count")
    out["quadrature.adaptive_quad.panels_max"] = (q["amount_max"], "count")
    out["quadrature.adaptive_quad.us_per_panel"] = (
        per(q["self_s"], q["amount"], 1e6), "us")
    out["realmajor.qpath_nodes"] = (get("realmajor.rho_on_sheet")["amount"], "count")
    for key, prefix in (("lambertw.errors", "lambertw."),
                        ("quadrature.adaptive_quad.errors", "quadrature."),
                        ("realmajor.errors", "realmajor.")):
        out[key] = (sum(s["errors"] for n, s in spans.items() if n.startswith(prefix)),
                    "count")
    out["trace.spans"] = (len(tracer.end), "count")
    return out
