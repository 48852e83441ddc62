"""Per-layer tracing from outside the library: wrap its public functions.

``Tracer.install()`` replaces each instrumented function at every binding
inside the ``tetrakit`` package (``tetrakit.fundops.fundamental_pair`` and
``tetrakit.models.fundamental_pair`` alike), so nested calls are recorded.
Spans stay in memory as ``(item, span, parent, name, start, end, self,
failed)`` and are written out once, at the end.  Self time is a span's
duration minus the time its child spans cover.

The library is not edited: this is the benchmark timing each layer from
outside.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import statistics
import sys
import time
from collections import Counter, defaultdict

INSTRUMENTED = {
    "matkernel": ("numerical_radius", "psd_sqrt", "joint_eigenvalues", "solve_sandwich"),
    "geometry": ("in_tetrablock", "sample_bE"),
    "classify": ("classify_triple", "certify_e_contraction", "check_e_isometry",
                 "check_pc", "canonical_decomposition"),
    "fundops": ("defect", "fundamental_pair", "pencil_numerical_radius_max",
                "pencil_contractive", "is_special_pair"),
    "models": ("compute_Q", "residual_triple", "auto_order", "observability_embedding",
               "build_lift", "verify_lift", "char_function", "extract_data_set",
               "coincide", "validate_special_data_set", "omega_tau"),
    "io": ("load_document", "dump_document"),
}
CLI_COMMANDS = ("generate", "classify", "fundops", "lift", "verify", "dataset",
                "coincide", "validate-special")
GROWTH = ("fundops.fundamental_pair", "models.build_lift", "models.coincide")
# Per-n samples are also kept for classify.certify_e_contraction (reported,
# no exponent).  build_lift samples exclude capped lifts; coincide samples
# are pure data sets with defect dimension n >= 2.
MIB = 2.0**20


class Tracer:
    def __init__(self):
        self.item = -1
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.growth: dict[str, list[tuple[int, float]]] = defaultdict(list)
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next = 0

    # -- wrapping -------------------------------------------------------

    def install(self) -> None:
        """Wrap every instrumented function at each of its bindings."""
        owners = {short: importlib.import_module(f"tetrakit.{short}") for short in INSTRUMENTED}
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "tetrakit" or name.startswith("tetrakit."))]
        for short, names in INSTRUMENTED.items():
            owner = owners[short]
            for fn in names:
                original = getattr(owner, fn)
                wrapper = self._wrap(f"{short}.{fn}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the body; the innermost open span is its parent."""
        sid = self._next
        self._next += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        failed = True
        start = time.perf_counter()
        try:
            yield
            failed = False
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            self.spans.append((self.item, sid, parent, name, start, end,
                               end - start - frame[1], failed))

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            with self.span(name):
                result = fn(*args, **kwargs)
            self._observe(name, args or tuple(kwargs.values()), result,
                          time.perf_counter() - start)
            return result

        return wrapper

    def _observe(self, name: str, args: tuple, result, seconds: float) -> None:
        """Counts read from return values, and per-n samples for growth."""
        c = self.counts
        if name == "fundops.fundamental_pair":
            c[name + ".defect_rank_sum"] += result.carrier.dim
            self.growth[name].append((args[0].dim, seconds))
        elif name == "models.build_lift":
            capped = bool(result.warnings)
            c[name + ".order_sum"] += result.order_n
            c[name + ".capped"] += capped
            dense = sum(m.nbytes for m in (result.embedding, result.v1, result.v2, result.v3))
            c[name + ".dense_mib"] += dense / MIB
            if not capped:
                self.growth[name].append((args[0].dim, seconds))
        elif name == "models.coincide":
            c[name + ".decided"] += not result.undecided
            d1 = args[0]
            if d1.residual.dim == 0 and d1.defect_dims[0] >= 2:  # pure, not scalar
                self.growth[name].append((d1.defect_dims[0], seconds))
        elif name == "classify.certify_e_contraction":
            c[name + ".certified_not"] += result["certificate"].value == "CertifiedNot"
            self.growth[name].append((args[0].dim, seconds))

    # -- spans from CLI children ---------------------------------------

    def dump(self) -> dict:
        """What a launched CLI child hands back to the worker."""
        return {"spans": self.spans, "counts": self.counts, "growth": self.growth}

    def merge(self, item: int, child: dict) -> None:
        """Add the spans, counts and per-n samples of a CLI child.

        The child's span times stay on the child's own clock.
        """
        base = self._next
        for _, sid, parent, name, start, end, self_s, failed in child["spans"]:
            self.spans.append((item, base + sid, None if parent is None else base + parent,
                               name, start, end, self_s, failed))
            self._next = max(self._next, base + sid + 1)
        self.counts.update(child["counts"])
        for name, samples in child["growth"].items():
            self.growth[name].extend(tuple(s) for s in samples)

    def write(self, path) -> None:
        keys = ("item", "span", "parent", "name", "start", "end", "self", "failed")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    # -- metrics --------------------------------------------------------

    def metrics(self, cli_walls: list[tuple[str, float]]) -> dict[str, float]:
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        fails: Counter = Counter()
        imports = []
        for _, _, _, name, start, end, self_s, failed in self.spans:
            if name == "cli.import":
                imports.append(end - start)
                continue
            if name.startswith("cli."):
                fails["cli"] += failed
                continue
            calls[name] += 1
            total[name] += end - start
            own[name] += self_s
            fails[name] += failed
            fails[name.split(".")[0]] += failed
        out: dict[str, float] = {}
        for short, names in INSTRUMENTED.items():
            for fn in names:
                key = f"{short}.{fn}"
                out[key + ".calls"] = calls[key]
                out[key + ".total_ms"] = 1e3 * total[key]
                out[key + ".self_ms"] = 1e3 * own[key]
        for short in (*INSTRUMENTED, "cli"):
            out[short + ".fail"] = fails[short]
        out["models.residual_triple.fail"] = fails["models.residual_triple"]
        out["cli.import_ms"] = 1e3 * statistics.median(imports) if imports else 0.0
        for cmd in CLI_COMMANDS:
            walls = [s for c, s in cli_walls if c == cmd]
            out[f"cli.{cmd}.wall_ms"] = 1e3 * statistics.median(walls) if walls else 0.0
        c = self.counts
        for key in ("fundops.fundamental_pair.defect_rank_sum", "models.build_lift.order_sum",
                    "models.build_lift.capped", "models.build_lift.dense_mib",
                    "classify.certify_e_contraction.certified_not"):
            out[key] = c[key]
        n_coincide = calls["models.coincide"]
        out["models.coincide.decided_ratio"] = (
            c["models.coincide.decided"] / n_coincide if n_coincide else 0.0)
        for key in GROWTH:
            out[key + ".growth_exp"] = growth_exponent(self.growth[key])
        return out

    def per_n(self) -> dict[str, dict[int, list]]:
        """{function: {n: [calls, median ms]}} for the per-n samples."""
        out = {}
        for name, samples in self.growth.items():
            by_n: dict[int, list[float]] = defaultdict(list)
            for n, seconds in samples:
                by_n[n].append(seconds)
            out[name] = {n: [len(v), 1e3 * statistics.median(v)] for n, v in sorted(by_n.items())}
        return out


def growth_exponent(samples: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(median seconds at n) against log(n).

    0.0 when fewer than two sizes were seen.
    """
    by_n: dict[int, list[float]] = defaultdict(list)
    for n, seconds in samples:
        if n >= 1:
            by_n[n].append(seconds)
    if len(by_n) < 2:
        return 0.0
    xs = [math.log(n) for n in by_n]
    ys = [math.log(statistics.median(v)) for v in by_n.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den
