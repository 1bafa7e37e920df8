"""Per-layer tracing by wrapping gweyl's functions where they are called.

``Tracer.install`` replaces each traced function in every gweyl module
namespace that holds it (``cli`` imports ``weyl_matrix`` by name, so patching
``quantize`` alone would miss the CLI's calls), in ``cli.COMMANDS``, and
``OperatorMatrix.to_json``; it also gives ``cli`` and ``quantize`` an ``open``
that times file writes.  ``uninstall`` puts every original back.  gweyl's
own files are not changed.

Each wrapped call is a span (request, name, parent, start, end).  A layer's
self time is its spans' durations minus the time covered by child spans.
"""

import builtins
import functools
import sys
import time

# (module, function) pairs; metric names drop the module's leading
# underscore, since a metric name starts with a letter.
LAYERS = (
    ("quantize", "operator_norm"),
    ("quantize", "weyl_matrix_classical"),
    ("quantize", "_classical_1d"),
    ("quantize", "hybrid_matrix"),
    ("quantize", "_chain_site_table"),
    ("quantize", "oracle_U"),
    ("_kernels", "chain_contract"),
    ("_kernels", "wigner_pair_table"),
    ("_kernels", "bargmann_pair_table"),
    ("_kernels", "hermite_table"),
    ("heat", "op_T_I"),
    ("heat", "heat_full"),
    ("gaussian", "tensor_rule"),
    ("mc", "mc_integral"),
    ("cli", "cmd_quantize"),
    ("cli", "cmd_converge"),
    ("cli", "cmd_wick"),
    ("cli", "cmd_verify"),
)
OUTPUT = "cli.output"
_ABSENT = object()          # marks an attribute the tracer added

# counters summed over a round, and the one kept as a maximum
COUNTERS = (
    "quantize.weyl_matrix_classical.grid_triples",
    "quantize.diag_cache.hits",
    "quantize.diag_cache.misses",
    "quantize.site_table_cache.hits",
    "quantize.site_table_cache.misses",
    "kernels.wigner_pair_table.points",
    "kernels.bargmann_pair_table.points",
    "cli.output.bytes",
)
MAXIMA = ("quantize.operator_norm.max_n",)


def layer_name(module: str, func: str) -> str:
    return f"{module.lstrip('_')}.{func}"


def span_names():
    return [layer_name(m, f) for m, f in LAYERS] + [OUTPUT]


def cache_size(obj):
    """Entries in a module-level cache: a dict, or an lru_cache wrapper."""
    if isinstance(obj, dict):
        return len(obj)
    info = getattr(obj, "cache_info", None)
    return info().currsize if info is not None else None


class Tracer:
    def __init__(self):
        self.active = False
        self.request = -1
        self.spans = []            # (request, name, parent, start, end)
        self.calls = {}
        self.self_s = {}
        self.counts = {c: 0 for c in COUNTERS}
        self.maxima = {c: 0 for c in MAXIMA}
        self._stack = []           # [span index, start, child time]
        self._restore = []

    # -- spans ---------------------------------------------------------

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((self.request, name, parent, time.perf_counter(), None))
        self._stack.append([idx, self.spans[idx][3], 0.0])
        return idx

    def exit(self, idx: int):
        end = time.perf_counter()
        top, start, child = self._stack.pop()
        if top != idx:
            raise RuntimeError("trace spans closed out of order")
        req, name, parent, _, _ = self.spans[idx]
        self.spans[idx] = (req, name, parent, start, end)
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child

    # -- wrappers ------------------------------------------------------

    def _wrap(self, func, name, hooks=None):
        tracer = self
        pre, post = hooks or (None, None)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            before = pre() if pre is not None else None
            idx = tracer.enter(name)
            try:
                out = func(*args, **kwargs)
            finally:
                tracer.exit(idx)
            if post is not None:
                post(args, out, before)
            return out

        return wrapper

    def _replace(self, container, key, new, is_dict=False):
        if is_dict:
            self._restore.append((container, key, container[key], True))
            container[key] = new
        else:
            old = container.__dict__.get(key, _ABSENT)
            self._restore.append((container, key, old, False))
            setattr(container, key, new)

    def install(self):
        import gweyl.cli as cli
        import gweyl.quantize as quantize

        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "gweyl" or n.startswith("gweyl.")) and m is not None]
        hooks = self._hooks(quantize)
        for mod_name, func_name in LAYERS:
            home = sys.modules.get(f"gweyl.{mod_name}")
            func = getattr(home, func_name, None)
            if func is None:
                continue
            name = layer_name(mod_name, func_name)
            wrapper = self._wrap(func, name, hooks.get(name))
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is func:
                        self._replace(mod, key, wrapper)
            for key, val in list(getattr(cli, "COMMANDS", {}).items()):
                if val is func:
                    self._replace(cli.COMMANDS, key, wrapper, is_dict=True)
        op_cls = getattr(quantize, "OperatorMatrix", None)
        if op_cls is not None and "to_json" in vars(op_cls):
            self._replace(op_cls, "to_json",
                          self._wrap(vars(op_cls)["to_json"], OUTPUT))
        for mod in (cli, quantize):
            self._replace(mod, "open", self._open)
        self.active = True

    def uninstall(self):
        self.active = False
        for container, key, old, is_dict in reversed(self._restore):
            if is_dict:
                container[key] = old
            elif old is _ABSENT:
                delattr(container, key)
            else:
                setattr(container, key, old)
        self._restore = []

    def _hooks(self, quantize):
        """(pre, post) hooks that update the counters around a traced call."""
        counts, maxima = self.counts, self.maxima

        def norm(args, out, _):
            n = getattr(args[0], "entries", args[0]).shape[0]
            key = "quantize.operator_norm.max_n"
            maxima[key] = max(maxima[key], int(n))

        def cache_hooks(attr, prefix, counted=lambda out: True):
            def pre():
                return cache_size(getattr(quantize, attr, None))

            def post(args, out, before):
                after = cache_size(getattr(quantize, attr, None))
                if before is None or after is None or not counted(out):
                    return
                counts[prefix + (".misses" if after > before else ".hits")] += 1

            return pre, post

        diag_pre, diag_post = cache_hooks(
            "_DIAG_CACHE", "quantize.diag_cache",
            lambda out: "grid" in getattr(out, "meta", {}))

        def classical(args, out, before):
            grid = getattr(out, "meta", {}).get("grid")
            if grid:
                counts["quantize.weyl_matrix_classical.grid_triples"] += \
                    grid[0] * grid[0] * grid[1]
            diag_post(args, out, before)

        def points(key):
            def post(args, out, _):
                counts[key] += int(getattr(args[0], "size", len(args[0])))
            return None, post

        return {
            "quantize.operator_norm": (None, norm),
            "quantize.weyl_matrix_classical": (diag_pre, classical),
            "quantize._chain_site_table": cache_hooks(
                "_SITE_TABLE_CACHE", "quantize.site_table_cache"),
            "kernels.wigner_pair_table": points("kernels.wigner_pair_table.points"),
            "kernels.bargmann_pair_table": points("kernels.bargmann_pair_table.points"),
        }

    def _open(self, file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        if not self.active or not any(c in mode for c in "wax+"):
            return fh
        return _OutputFile(self, fh)


class _OutputFile:
    """File opened for writing by gweyl: one cli.output span until closed."""

    def __init__(self, tracer, fh):
        self._tracer, self._fh = tracer, fh
        self._span = tracer.enter(OUTPUT)

    def write(self, data):
        self._tracer.counts["cli.output.bytes"] += len(data)
        return self._fh.write(data)

    def close(self):
        if self._span is not None:
            self._fh.close()
            self._tracer.exit(self._span)
            self._span = None

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False



def calibrate(n: int = 20000) -> float:
    """Seconds a traced call adds over an untraced one, per span."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._wrap(noop, "calibration")
    tracer.active = True
    t0 = time.perf_counter()
    for _ in range(n):
        wrapped()
    traced = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    plain = time.perf_counter() - t0
    return max(traced - plain, 0.0) / n
