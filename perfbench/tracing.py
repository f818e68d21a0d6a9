"""In-memory span tracing of the qnls layers, installed from outside the library.

The library modules import each other's names with ``from .x import y``, so a
function has to be wrapped at every place its caller looks it up (for example
``qnls.dynamics.sup_norm`` as well as ``qnls.spectral.sup_norm``).  ``Probe`` installs
those wrappers, points them at the current ``Tracer`` and restores the
originals on ``uninstall``; nothing under ``src/qnls`` is edited.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from qnls import cli, dynamics, flows, nf, poly, resonance, spectral


class Tracer:
    """Stack of open spans with self-time accounting.

    A span's self time is its duration minus the durations of its direct
    children.  Recorded spans are kept as tuples
    ``(id, parent_id, name, start, end, self_s)``; unrecorded regions (used for
    per-evaluation timers that would otherwise emit hundreds of thousands of
    spans) count towards the same totals and towards their parent's children
    but leave no tuple.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []      # [name, start, children_s, span id]
        self._next_id = 0

    @property
    def current(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def enter(self, name: str, record: bool = True):
        span_id = None
        if record:
            span_id, self._next_id = self._next_id, self._next_id + 1
        self._stack.append([name, self.clock(), 0.0, span_id])

    def exit(self):
        name, start, children, span_id = self._stack.pop()
        end = self.clock()
        dur = end - start
        own = dur - children
        if self._stack:
            self._stack[-1][2] += dur
        self.self_s[name] += own
        self.calls[name] += 1
        if span_id is not None:
            parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
            self.spans.append((span_id, parent, name, start, end, own))


class Probe:
    """Wraps the public qnls functions of each layer where their callers find them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _timed(self, name, fn, record=True, count=None):
        """Span around fn; ``count = (key, of)`` adds ``of(args, out)`` to a counter."""
        tr = self.tracer

        def wrapper(*args, **kwargs):
            tr.enter(name, record)
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.exit()
            if count is not None:
                tr.counts[count[0]] += count[1](args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, name, **kw):
        orig = getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, self._timed(name, orig, **kw))

    def _midpoint_step(self, fn):
        """Span per step; gradient evaluations are counted and timed through
        the callable passed in, without a span each."""
        tr = self.tracer

        def wrapper(grad, *args, **kwargs):
            def counted(u):
                tr.enter("flows.grad", record=False)
                try:
                    return grad(u)
                finally:
                    tr.exit()

            if tr.current == "dynamics.integrate":
                tr.counts["dynamics.integrate.steps"] += 1
            tr.enter("flows.midpoint_step")
            try:
                return fn(counted, *args, **kwargs)
            except flows.FlowConvergenceError:
                tr.counts["flows.failed"] += 1
                raise
            finally:
                tr.exit()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every traced name so that calls record into the tracer."""
        if self._saved:
            raise RuntimeError("probe already installed")
        keys_out = lambda args, out: len(out.coeffs)
        keys_in = lambda args, out: len(args[0].coeffs)
        self._patch(nf, "poisson", "poly.poisson",
                    count=("poly.poisson.keys_out", keys_out))
        self._patch(poly.HomPoly, "gradient", "poly.gradient", record=False)
        for mod in (poly, dynamics, cli):
            self._patch(mod, "build_p6", "poly.build_p6",
                        count=("poly.build_p6.keys", keys_out))
        self._patch(cli, "poly_to_json", "poly.to_json")
        for mod in (spectral, dynamics):
            self._patch(mod, "sup_norm", "spectral.sup_norm")
            self._patch(mod, "split_levels", "spectral.split_levels",
                        count=("spectral.split_levels.keys", keys_in))
        self._patch(nf, "norm_h", "spectral.norm_h")
        self._patch(nf, "birkhoff", "nf.birkhoff")
        self._patch(nf, "solve_cohomological", "nf.solve_cohomological")
        self._patch(nf, "lie_transform", "nf.lie_transform")
        self._patch(nf, "transform_state", "nf.transform_state")
        self._patch(nf, "suggest_gamma", "nf.gamma")
        self._patch(nf, "check_krgamma", "nf.gamma",
                    count=("nf.check_krgamma.pairs", lambda args, out: out.pairs_checked))
        self._patch(dynamics, "integrate", "dynamics.integrate")
        self._patch(dynamics, "action_drift", "dynamics.action_drift")
        self._patch(dynamics, "strichartz_scan", "dynamics.strichartz_scan")
        self._patch(resonance, "certify_strong", "resonance.certify_strong",
                    count=("resonance.certify_strong.tuples", lambda args, out: out.n_checked))
        self._patch(cli, "main", "cli.main")
        orig = flows.midpoint_step
        self._saved.append((flows, "midpoint_step", orig))
        flows.midpoint_step = self._midpoint_step(orig)

    def uninstall(self):
        """Put every original back, in reverse order of wrapping."""
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


# (metric name, unit) of every per-layer metric, in report order
LAYER_METRICS = [
    ("poly.poisson.calls", "count"), ("poly.poisson.s", "s"),
    ("poly.poisson.keys_out", "count"),
    ("poly.gradient.calls", "count"), ("poly.gradient.s", "s"),
    ("poly.build_p6.s", "s"), ("poly.build_p6.keys", "count"),
    ("poly.to_json.s", "s"),
    ("spectral.sup_norm.calls", "count"), ("spectral.sup_norm.s", "s"),
    ("spectral.split_levels.s", "s"), ("spectral.split_levels.keys", "count"),
    ("spectral.norm_h.s", "s"),
    ("nf.birkhoff.s", "s"), ("nf.solve_cohomological.s", "s"),
    ("nf.lie_transform.s", "s"),
    ("nf.transform_state.calls", "count"), ("nf.transform_state.s", "s"),
    ("nf.gamma.s", "s"), ("nf.check_krgamma.pairs", "count"),
    ("flows.midpoint_step.calls", "count"), ("flows.midpoint_step.s", "s"),
    ("flows.grad_evals", "count"), ("flows.grad_evals_per_step", "evals/step"),
    ("flows.grad.s", "s"), ("flows.failed", "count"),
    ("dynamics.integrate.s", "s"), ("dynamics.integrate.steps", "count"),
    ("dynamics.action_drift.s", "s"), ("dynamics.strichartz_scan.s", "s"),
    ("resonance.certify_strong.s", "s"), ("resonance.certify_strong.tuples", "count"),
    ("cli.main.s", "s"),
    ("trace.overhead_s", "s"),
]


def layer_values(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced unit of work (trace.overhead_s aside)."""
    out = {}
    for name, unit in LAYER_METRICS:
        if name == "trace.overhead_s":
            continue
        if name.endswith(".calls"):
            out[name] = tr.calls[name[: -len(".calls")]]
        elif name.endswith(".s"):
            out[name] = tr.self_s.get(name[: -len(".s")], 0.0)
        else:
            out[name] = tr.counts[name]
    steps = tr.calls["flows.midpoint_step"]
    out["flows.grad_evals"] = tr.calls["flows.grad"]
    out["flows.grad_evals_per_step"] = out["flows.grad_evals"] / steps if steps else 0.0
    return out
