"""Span tracing from outside the library, and the per-layer metrics.

The tracer replaces public library functions with timing wrappers. A
function imported by name into another module (``from .special import
hyp2f1_log``) is a separate binding there, so every ``blockhyperg`` module
attribute that is the original function object is patched, not only the
defining module's. Calls inside a module go through its globals at call
time, so patching the module attribute covers them too.

Spans are kept in memory: name, start, end, parent, operation id and a
small info value. A span's self time is its duration minus the durations
of its children; calls are nested and single-threaded, so children never
overlap.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

# (module, attribute) -> span name. The layer is the span name's prefix;
# kernels and quadlog belong to the integrate layer. The scalar
# special.log_lower_inc_gamma is left out: np.vectorize calls it once per
# quadrature node, and wrapping it would make the traced run mostly wrapper.
TRACED = [
    ("cli", "main", "cli.main"),
    ("design", "load_csv_design", "design.load_csv_design"),
    ("design", "center_design", "design.center_design"),
    ("design", "fit_least_squares", "design.fit_least_squares"),
    ("design", "block_orthogonalize", "design.block_orthogonalize"),
    ("design", "check_block_orthogonality",
     "design.check_block_orthogonality"),
    ("special", "hyp2f1_log", "special.hyp2f1_log"),
    ("hyperg", "log_bf_hyper_g_stats", "hyperg.log_bf_hyper_g_stats"),
    ("hyperg", "shrinkage_hyper_g_stats", "hyperg.shrinkage_hyper_g_stats"),
    ("integrate", "block_integrals_quadrature", "integrate.quadrature"),
    ("integrate", "block_integrals_qmc", "integrate.qmc"),
    ("kernels", "log_integrand_logs", "kernels.log_integrand_logs"),
    ("_quadlog", "adaptive_log_integral", "quadlog.adaptive_log_integral"),
    ("blockprior", "bf_block_hyper_g", "blockprior.bf_block_hyper_g"),
    ("blockprior", "laplace_applicable", "blockprior.laplace_applicable"),
    ("blockprior", "sigma2_density_exact_block", "blockprior.sigma2"),
    ("blockprior", "Sigma2Density.mean", "blockprior.sigma2"),
    ("models", "evaluate_model_space", "models.evaluate_model_space"),
    ("models", "model_inference", "models.model_inference"),
    ("models", "posterior_model_probs", "models.posterior_model_probs"),
    ("models", "bma_predict", "models.bma_predict"),
    ("experiments", "run_selection_consistency",
     "experiments.run_selection_consistency"),
    ("experiments", "run_prediction_consistency",
     "experiments.run_prediction_consistency"),
]
LAYERS = ("cli", "design", "special", "hyperg", "integrate", "blockprior",
          "models", "experiments", "harness")
NEAR_UNIT = 0.05  # 1 - z below this counts as a near-unit 2F1 call


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return "integrate" if head in ("kernels", "quadlog") else head


def _hyp2f1_regime(args, kwargs) -> str:
    z = args[3] if len(args) > 3 else kwargs["z"]
    omz = kwargs.get("one_minus_z", args[4] if len(args) > 4 else None)
    return "near1" if (1.0 - z if omz is None else omz) < NEAR_UNIT \
        else "small_z"


def _info(name: str, args, kwargs, result):
    """The per-call value a metric needs beyond the span's duration."""
    if name == "kernels.log_integrand_logs":
        return int(args[0].shape[0])
    if name == "integrate.quadrature":
        return (len(args[0]), int(result.n_evals))
    if name == "integrate.qmc":
        return int(result.n_evals)
    if name == "blockprior.bf_block_hyper_g":
        return "limit" if math.isinf(result.log_bf_null) else result.method
    if name == "blockprior.laplace_applicable":
        return bool(result)
    if name == "special.hyp2f1_log":
        return _hyp2f1_regime(args, kwargs)
    return None


class Tracer:
    """Records spans while installed; `install`/`uninstall` patch the
    library's module attributes in place and restore them."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op, info]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op = -1

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; used for the harness's own op span."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                   None]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            rec[5] = _info(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        mods = [m for n, m in sys.modules.items()
                if n == "blockhyperg" or n.startswith("blockhyperg.")]
        for modname, attr, name in TRACED:
            owner = sys.modules[f"blockhyperg.{modname}"]
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = getattr(cls, meth)
                self._set(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            w = wrappers.setdefault(id(orig), self._wrap(name, orig))
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, w)

    def _set(self, obj, attr: str, value) -> None:
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._patched):
            setattr(obj, attr, orig)
        self._patched.clear()

    def self_times(self) -> list[float]:
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers from the recorded spans (names as in the spec)."""
    spans = tracer.spans
    self_t = tracer.self_times()
    total = defaultdict(float)   # inclusive time per name
    own = defaultdict(float)     # self time per name
    calls = defaultdict(int)
    layer = defaultdict(float)
    m: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        name, info = s[0], s[5]
        total[name] += s[2] - s[1]
        own[name] += self_t[i]
        calls[name] += 1
        layer[layer_of(name)] += self_t[i]
        if name == "special.hyp2f1_log":
            m[f"special.hyp2f1_log.{info}.self_s"] += self_t[i]
        elif name == "integrate.quadrature":
            m[f"integrate.quadrature.k{info[0]}.self_s"] += self_t[i]
            m["integrate.quadrature.evals"] += info[1]
        elif name == "integrate.qmc":
            m["integrate.qmc.evals"] += info
        elif name == "kernels.log_integrand_logs":
            m["kernels.log_integrand_logs.points"] += info
        elif name == "blockprior.bf_block_hyper_g":
            m[f"blockprior.route.{info}"] += 1
        elif name == "blockprior.laplace_applicable" and info:
            m["blockprior.laplace_gate_open"] += 1
            parent = spans[s[3]] if s[3] >= 0 else None
            if parent is None or parent[5] != "laplace":
                m["blockprior.laplace_fallbacks"] += 1
        elif name == "quadlog.adaptive_log_integral" and s[3] >= 0:
            if layer_of(spans[s[3]][0]) == "special":
                m["quadlog.adaptive_log_integral.under_special.self_s"] += \
                    self_t[i]
    m["cli.self_s"] = own["cli.main"]
    for name in ("design.load_csv_design", "design.center_design",
                 "design.fit_least_squares", "design.block_orthogonalize",
                 "hyperg.log_bf_hyper_g_stats",
                 "hyperg.shrinkage_hyper_g_stats", "integrate.quadrature",
                 "integrate.qmc", "kernels.log_integrand_logs",
                 "quadlog.adaptive_log_integral",
                 "blockprior.bf_block_hyper_g",
                 "models.evaluate_model_space",
                 "experiments.run_selection_consistency",
                 "experiments.run_prediction_consistency"):
        m[f"{name}.self_s"] = own[name]
    for name in ("design.fit_least_squares", "design.block_orthogonalize",
                 "special.hyp2f1_log", "integrate.quadrature",
                 "integrate.qmc", "kernels.log_integrand_logs",
                 "quadlog.adaptive_log_integral",
                 "blockprior.bf_block_hyper_g",
                 "models.evaluate_model_space", "models.model_inference"):
        m[f"{name}.calls"] = calls[name]
    # the sigma^2 density's cost is its 1-D integral (quadlog, booked to the
    # integrate layer), so this one is inclusive: the whole time in
    # sigma2_density_exact_block and Sigma2Density.mean, which never nest
    m["blockprior.sigma2.self_s"] = total["blockprior.sigma2"]
    gate = m["blockprior.laplace_gate_open"]
    m["blockprior.laplace_hit_ratio"] = (
        (gate - m["blockprior.laplace_fallbacks"]) / gate if gate else 0.0)
    n_models = calls["models.model_inference"]
    m["models.ms_per_model"] = (1e3 * total["models.evaluate_model_space"]
                                / n_models if n_models else 0.0)
    for lay in LAYERS:
        m[f"layer.{lay}.self_s"] = layer[lay]
    return dict(m)
