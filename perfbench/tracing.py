"""Layer-boundary tracing for the benchmark's traced run.

The tracer rebinds neckflow's public functions at module level while it is
installed, so nothing in the package changes and nothing is paid when it
is not installed.  Every call through a wrapped name records a span
(id, name, start, end, parent, thread) in memory; the scipy entry points the
package imports by name (`quad`, `solve_ivp`) are wrapped to count work
instead: integrand and RHS evaluations, as the solvers report them, and
dense-output calls, through a proxy on each returned solution.

A function is rebound in every neckflow module that holds it, because a
`from .dynamics import integrate` binding is a second name the call can go
through; patching only the defining module would miss it.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time
import warnings
from collections import Counter, defaultdict

import numpy as np
from scipy.integrate import IntegrationWarning

#: module -> wrapped public functions; each call is one span named module.function
SPAN_POINTS = {
    "experiments": (
        "upsilon0_batch",
        "tail_estimate",
        "default_thresholds",
        "scaling_suite",
        "distortion_suite",
    ),
    "transition": ("evaluate", "zeta_derivs", "upsilon0", "zeta"),
    "bands": (
        "band_of",
        "c_interval",
        "band_boundaries",
        "band_width",
        "band_midpoint",
        "width_asymptote",
        "accumulation_distance",
    ),
    "dynamics": ("neck_transit", "integrate"),
    "linearization": ("unstable_riccati", "horocycle_scan"),
    "asymptotics": ("fit_exponent",),
    "outputs": ("json_text",),
}

#: (module, name) of the scipy bindings wrapped for counting, not timing:
#: their time stays in the self time of the layer that calls them
COUNT_POINTS = (
    ("transition", "quad"),
    ("dynamics", "solve_ivp"),
    ("linearization", "solve_ivp"),
)


def decile(values, q: int) -> float:
    """q-th decile of values (q=5 is the median); 0.0 when there are none."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=10)[q - 1]


class _DenseProxy:
    """Stands in for an OdeSolution and counts each evaluation."""

    def __init__(self, sol, tracer: "Tracer"):
        self._sol = sol
        self._tracer = tracer

    def __call__(self, t):
        self._tracer._count_dense()
        return self._sol(t)

    def __getattr__(self, name):
        return getattr(self._sol, name)


class Tracer:
    """Spans and counters for one traced run; install() ... uninstall()."""

    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread)
        self.counts: Counter = Counter()
        self.tail_threads: dict[int, int] = {}  # tail_estimate span id -> threads
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._main_stack: list[tuple[int, str]] = []
        self._patched: list[tuple[object, str, object]] = []
        self._accuracy_error = package.AccuracyError
        self._gl_nodes = package.experiments.upsilon0_batch.__defaults__[0]

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[int, int, str]:
        stack = self._stack()
        if stack:
            parent, parent_name = stack[-1]
        else:
            # a pool worker's first span belongs to the main-thread span
            # that submitted the work (tail_estimate's thread pool)
            try:
                parent, parent_name = self._main_stack[-1]
            except IndexError:
                parent, parent_name = 0, ""
        with self._lock:
            self._next_id += 1
            sid = self._next_id
        stack.append((sid, name))
        return sid, parent, parent_name

    def _close(self, sid, name, parent, start, end) -> None:
        self._stack().pop()
        with self._lock:
            self.spans.append((sid, name, start, end, parent, threading.get_ident()))

    def _count(self, **deltas) -> None:
        with self._lock:
            self.counts.update(deltas)

    def _count_dense(self) -> None:
        stack = self._stack()
        inner = stack[-1][1] if stack else ""
        key = "host_dense" if inner.startswith("linearization.") else "dense"
        with self._lock:
            self.counts[key] += 1

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        tracer = self
        after = {
            "experiments.upsilon0_batch": self._after_upsilon0_batch,
            "experiments.tail_estimate": self._after_tail_estimate,
            "outputs.json_text": self._after_json_text,
            "linearization.horocycle_scan": self._after_horocycle_scan,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if name == "transition.zeta_derivs":
                ent = tracer.package.transition.entry_data(args[0], args[1])
                label = f"{name}.{ent.klass.value}"
            sid, parent, parent_name = tracer._open(label)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except tracer._accuracy_error:
                if label.startswith("transition.") and not parent_name.startswith(
                    "transition."
                ):
                    tracer._count(accuracy_errors=1)
                raise
            finally:
                tracer._close(sid, label, parent, start, time.perf_counter())
            if after is not None:
                after(sid, args, kwargs, result)
            return result

        return wrapper

    def _after_upsilon0_batch(self, sid, args, kwargs, result) -> None:
        nodes = kwargs.get("nodes", args[2] if len(args) > 2 else self._gl_nodes)
        finite = int(np.isfinite(result).sum())
        # every finite row evaluates `nodes` GL nodes: one panel of `nodes`
        # when bouncing, two panels of nodes // 2 when crossing
        self._count(batch_rows=result.size, batch_finite=finite, node_evals=finite * nodes)

    def _after_tail_estimate(self, sid, args, kwargs, result) -> None:
        with self._lock:
            self.tail_threads[sid] = args[0].threads

    def _after_json_text(self, sid, args, kwargs, result) -> None:
        self._count(json_bytes=len(result.encode()))

    def _after_horocycle_scan(self, sid, args, kwargs, result) -> None:
        confident = sum(1 for row in result.rows if row["confident"])
        self._count(scan_points=len(result.rows), scan_confident=confident)

    def _counted_quad(self, quad):
        tracer = self

        @functools.wraps(quad)
        def wrapper(func, *args, **kwargs):
            # quad's own evaluation count: the same number a counting wrapper
            # around the integrand gives, without a Python call per evaluation
            value, err, info, *message = quad(func, *args, full_output=1, **kwargs)
            tracer._count(quad_calls=1, quad_evals=info["neval"])
            if message:  # what quad warns itself when full_output is off
                warnings.warn(message[0], IntegrationWarning, stacklevel=2)
            return value, err

        return wrapper

    def _counted_solve_ivp(self, module: str, solve_ivp):
        tracer = self

        @functools.wraps(solve_ivp)
        def wrapper(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            tracer._count(**{f"{module}_ivp_calls": 1, f"{module}_nfev": int(sol.nfev)})
            if sol.sol is not None:
                sol.sol = _DenseProxy(sol.sol, tracer)
            return sol

        return wrapper

    # -- install / uninstall -----------------------------------------------

    def _rebind(self, original, replacement) -> int:
        bound = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "neckflow" or modname.startswith("neckflow.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)
                    bound += 1
        return bound

    def install(self) -> None:
        pkg = self.package
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for modname, names in SPAN_POINTS.items():
            mod = getattr(pkg, modname)
            for name in names:
                fn = getattr(mod, name)
                if not self._rebind(fn, self._span(f"{modname}.{name}", fn)):
                    raise RuntimeError(f"no binding of {modname}.{name} to patch")
        for modname, name in COUNT_POINTS:
            mod = getattr(pkg, modname)
            original = getattr(mod, name)
            if name == "quad":
                wrapped = self._counted_quad(original)
            else:
                wrapped = self._counted_solve_ivp(modname, original)
            self._patched.append((mod, name, original))
            setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part its child spans cover."""
        children = defaultdict(list)
        for sid, _, start, end, parent, _ in self.spans:
            if parent:
                children[parent].append((start, end))
        out = {}
        for sid, _, start, end, _, _ in self.spans:
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out[sid] = (end - start) - covered
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer figures named as in BENCHMARK.json's per_layer list."""
        selfs = self.self_times()
        by_name = defaultdict(list)  # name -> [(start, duration, self)]
        for sid, name, start, end, _, _ in self.spans:
            by_name[name].append((start, end - start, selfs[sid]))

        def calls(name):
            return len(by_name[name])

        def self_s(*names):
            return sum(s for n in names for _, _, s in by_name[n])

        def ms(name, q):
            return 1e3 * decile([d for _, d, _ in by_name[name]], q)

        c = self.counts
        batch = by_name["experiments.upsilon0_batch"]
        kernel_by_parent = defaultdict(float)
        for _, name, start, end, parent, _ in self.spans:
            if name == "experiments.upsilon0_batch":
                kernel_by_parent[parent] += end - start
        pool_time = pool_kernel = 0.0
        for sid, name, start, end, _, _ in self.spans:
            threads = self.tail_threads.get(sid, 1)
            if threads > 1:
                pool_time += threads * (end - start)
                pool_kernel += kernel_by_parent[sid]
        bands_names = [f"bands.{n}" for n in SPAN_POINTS["bands"]]
        return {
            "experiments.upsilon0_batch.calls": calls("experiments.upsilon0_batch"),
            "experiments.upsilon0_batch.self_s": self_s("experiments.upsilon0_batch"),
            "experiments.upsilon0_batch.chunk_p50_ms": ms("experiments.upsilon0_batch", 5),
            "experiments.upsilon0_batch.chunk_p90_ms": ms("experiments.upsilon0_batch", 9),
            "experiments.upsilon0_batch.cold_ms": 1e3 * min(batch)[1] if batch else 0.0,
            "experiments.upsilon0_batch.node_evals": c["node_evals"],
            "experiments.upsilon0_batch.bytes_computed": 8 * c["node_evals"],
            "experiments.upsilon0_batch.finite_frac": (
                c["batch_finite"] / c["batch_rows"] if c["batch_rows"] else 0.0
            ),
            "experiments.tail_estimate.pool_busy_frac": (
                pool_kernel / pool_time if pool_time else 0.0
            ),
            "experiments.default_thresholds.self_s": self_s("experiments.default_thresholds"),
            "experiments.scaling_suite.self_s": self_s("experiments.scaling_suite"),
            "experiments.distortion_suite.self_s": self_s("experiments.distortion_suite"),
            "transition.evaluate.calls": calls("transition.evaluate"),
            "transition.evaluate.self_s": self_s("transition.evaluate"),
            "transition.evaluate.p50_ms": ms("transition.evaluate", 5),
            "transition.evaluate.p90_ms": ms("transition.evaluate", 9),
            "transition.zeta_derivs.bouncing.self_s": self_s("transition.zeta_derivs.bouncing"),
            "transition.zeta_derivs.crossing.self_s": self_s("transition.zeta_derivs.crossing"),
            "transition.upsilon0.calls": calls("transition.upsilon0"),
            "transition.upsilon0.self_s": self_s("transition.upsilon0"),
            "transition.zeta.calls": calls("transition.zeta"),
            "transition.zeta.self_s": self_s("transition.zeta"),
            "transition.quad.calls": c["quad_calls"],
            "transition.quad.integrand_evals": c["quad_evals"],
            "transition.quad.evals_per_call": (
                c["quad_evals"] / c["quad_calls"] if c["quad_calls"] else 0.0
            ),
            "transition.accuracy_errors": c["accuracy_errors"],
            "bands.calls": sum(calls(n) for n in bands_names),
            "bands.self_s": self_s(*bands_names),
            "dynamics.neck_transit.calls": calls("dynamics.neck_transit"),
            "dynamics.neck_transit.self_s": self_s("dynamics.neck_transit"),
            "dynamics.neck_transit.p50_ms": ms("dynamics.neck_transit", 5),
            "dynamics.neck_transit.p90_ms": ms("dynamics.neck_transit", 9),
            "dynamics.integrate.calls": calls("dynamics.integrate"),
            "dynamics.integrate.self_s": self_s("dynamics.integrate"),
            "dynamics.solve_ivp.calls": c["dynamics_ivp_calls"],
            "dynamics.solve_ivp.nfev": c["dynamics_nfev"],
            # integrate is dynamics' only solve_ivp caller: one run each,
            # plus one more whenever the Clairaut drift forces a retry
            "dynamics.drift_retries": c["dynamics_ivp_calls"] - calls("dynamics.integrate"),
            "dynamics.dense_calls": c["dense"],
            "linearization.unstable_riccati.calls": calls("linearization.unstable_riccati"),
            "linearization.unstable_riccati.self_s": self_s("linearization.unstable_riccati"),
            "linearization.unstable_riccati.p50_ms": ms("linearization.unstable_riccati", 5),
            "linearization.unstable_riccati.p90_ms": ms("linearization.unstable_riccati", 9),
            "linearization.horocycle_scan.self_s": self_s("linearization.horocycle_scan"),
            "linearization.solve_ivp.calls": c["linearization_ivp_calls"],
            "linearization.solve_ivp.nfev": c["linearization_nfev"],
            "linearization.host_dense_calls": c["host_dense"],
            "linearization.confident_frac": (
                c["scan_confident"] / c["scan_points"] if c["scan_points"] else 0.0
            ),
            "asymptotics.fit_exponent.calls": calls("asymptotics.fit_exponent"),
            "asymptotics.fit_exponent.self_s": self_s("asymptotics.fit_exponent"),
            "outputs.json_text.self_s": self_s("outputs.json_text"),
            "outputs.json_text.bytes": c["json_bytes"],
        }

    def write_spans(self, path) -> None:
        """Spans as CSV (times in seconds from the first span's start)."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", newline="") as fh:
            fh.write("id,name,start_s,end_s,parent,thread\n")
            for sid, name, start, end, parent, thread in sorted(self.spans):
                fh.write(f"{sid},{name},{start - t0:.9f},{end - t0:.9f},{parent},{thread}\n")
