"""Boundary wrappers, in-memory spans and per-layer metrics of a traced run.

The tracer rebinds boundary names in the modules that call them (for
example ``patternex.search._hyper_embedding_search``) to wrappers, and
restores the originals afterwards; no file of the library changes.

Each wrapped call pushes a frame.  A frame's self time is its duration
minus the time of the wrapped calls made inside it.  Calls of the hot
per-node and per-pair boundaries, and every call nested inside one, are
aggregated (count, summed time, summed self time) instead of becoming
spans, which keeps memory and overhead bounded; every other call becomes
a span ``(id, name, start, end, parent id, unit id, self time)``.
"""

from __future__ import annotations

import json
import math
import statistics
from array import array
from time import perf_counter

CLAIMS = {
    "check_doubling_upper_bound": "Lemma2",
    "check_interval_blowup": "Lemma3",
    "check_partite_edge_bound": "Lemma5",
    "check_padding_chain": "Lemma6",
    "check_contraction_recurrence": "Thm7-recurrence",
    "check_random_density": "Lemma8-density",
    "check_association_equivalence": "KlazarMarcus",
    "check_weight_vs_edges": "ExiExe",
}
SOLVERS = ("ex_matrix", "f_multi", "gex_graph", "exe_hyper", "exi_hyper", "count_avoiders")
CERTIFYING_SOLVERS = SOLVERS[:-1]


class Stat:
    __slots__ = ("calls", "total", "self_s", "hits", "durations", "extra")

    def __init__(self, keep_durations: bool):
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.hits = 0
        self.durations = array("d") if keep_durations else None
        self.extra: dict[str, int] = {}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stats: dict[tuple[str, str], Stat] = {}
        self.violations = 0  # frames whose children took longer than the frame
        self._stack: list[list] = []
        self._next_id = 1
        self._unit = None
        self._installed: list[tuple[object, str, object]] = []

    # -- units ---------------------------------------------------------------

    def begin_unit(self, unit_id: str) -> None:
        self._unit = unit_id
        self._stack.append([0.0, False, self._new_id(), perf_counter()])

    def end_unit(self) -> None:
        child, _, span_id, start = self._stack.pop()
        end = perf_counter()
        if child > end - start:
            self.violations += 1
        self.spans.append((span_id, "bench.unit", start, end, None, self._unit, end - start - child))

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    # -- wrappers ------------------------------------------------------------

    def wrap(self, fn, name, via, *, aggregate=False, keep_durations=False, observe=None):
        stat = self.stats.setdefault((name, via), Stat(keep_durations))
        stack = self._stack
        spans = self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            agg = aggregate or parent[1]
            frame = [0.0, agg, None if agg else tracer._new_id()]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent[0] += duration
                own = duration - frame[0]
                if own < 0:
                    tracer.violations += 1
                stat.calls += 1
                stat.total += duration
                stat.self_s += own
                if stat.durations is not None:
                    stat.durations.append(duration)
                if not agg:
                    spans.append((frame[2], name, start, end, parent[2], tracer._unit, own))
            if observe is not None:
                observe(stat, args, result)
            return result

        return wrapper

    def _rebind(self, module, attr, name, **options) -> None:
        original = getattr(module, attr)
        via = module.__name__.rsplit(".", 1)[-1]
        self._installed.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, via, **options))

    def install(self, px) -> None:
        """Wrap every layer boundary of the imported package ``px``."""
        search, containment, constructions, verify = (
            px.search,
            px.containment,
            px.constructions,
            px.verify,
        )
        for solver in SOLVERS:
            self._rebind(search, solver, f"search.{solver}")
            if hasattr(verify, solver):
                self._rebind(verify, solver, f"search.{solver}")
        self._rebind(
            search, "_hyper_embedding_search", "search.node_check", aggregate=True, observe=_hit
        )
        self._rebind(search, "_matrix_embedding_search", "search.pinned_check", aggregate=True)
        self._rebind(search, "_certify_matrix", "search.certify")
        self._rebind(search, "_certify_hypergraph", "search.certify")
        for module in (search, containment, constructions, verify):
            for attr in ("matrix_contains", "hypergraph_contains"):
                if hasattr(module, attr):
                    self._rebind(
                        module,
                        attr,
                        f"containment.{attr}",
                        keep_durations=True,
                        observe=_hit,
                    )
        self._rebind(
            constructions, "verify_hypergraph_embedding", "containment.verify_hypergraph_embedding"
        )
        self._rebind(verify, "klazar_marcus_check", "containment.klazar_marcus_check", aggregate=True)
        self._rebind(containment, "associated_matrix", "structures.associated_matrix")
        self._rebind(containment, "is_d_partite", "structures.is_d_partite")
        self._rebind(constructions, "random_avoider", "constructions.random_avoider", observe=_repair)
        self._rebind(verify, "random_avoider", "constructions.random_avoider", observe=_repair)
        self._rebind(verify, "cyclic_pad", "constructions.cyclic_pad")
        self._rebind(verify, "chain_patterns", "constructions.chain_patterns")
        for attr, claim in CLAIMS.items():
            self._rebind(verify, attr, f"verify.{claim}")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- results -------------------------------------------------------------

    def _sum(self, name: str, field: str = "total", via: str | None = None):
        return sum(
            getattr(s, field)
            for (n, v), s in self.stats.items()
            if n == name and (via is None or v == via)
        )

    def _extra(self, name: str, key: str) -> int:
        return sum(s.extra.get(key, 0) for (n, _), s in self.stats.items() if n == name)

    def _p50_us(self, name: str) -> float:
        durations = [d for (n, _), s in self.stats.items() if n == name for d in s.durations]
        return statistics.median(durations) * 1e6 if durations else 0.0

    def _ratio(self, name: str, numerator: str) -> float:
        calls = self._sum(name, "calls")
        return self._sum(name, numerator) / calls if calls else 0.0

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        m: dict[str, tuple[float, str]] = {}
        for solver in SOLVERS:
            m[f"search.{solver}.calls"] = (self._sum(f"search.{solver}", "calls"), "count")
            m[f"search.{solver}.s"] = (self._sum(f"search.{solver}"), "s")
        m["search.node_check.calls"] = (self._sum("search.node_check", "calls"), "count")
        m["search.node_check.s"] = (self._sum("search.node_check"), "s")
        m["search.node_check.hit_ratio"] = (self._ratio("search.node_check", "hits"), "ratio")
        m["search.pinned_check.calls"] = (self._sum("search.pinned_check", "calls"), "count")
        m["search.pinned_check.s"] = (self._sum("search.pinned_check"), "s")
        m["search.certify.calls"] = (self._sum("search.certify", "calls"), "count")
        m["search.certify.s"] = (self._sum("search.certify"), "s")
        m["search.self_s"] = (
            sum(self._sum(f"search.{solver}", "self_s") for solver in SOLVERS),
            "s",
        )
        for name in ("matrix_contains", "hypergraph_contains"):
            full = f"containment.{name}"
            m[f"{full}.calls"] = (self._sum(full, "calls"), "count")
            m[f"{full}.s"] = (self._sum(full), "s")
            m[f"{full}.p50_us"] = (self._p50_us(full), "us")
            m[f"{full}.positive_ratio"] = (self._ratio(full, "hits"), "ratio")
        km = "containment.klazar_marcus_check"
        m[f"{km}.calls"] = (self._sum(km, "calls"), "count")
        m[f"{km}.s"] = (self._sum(km), "s")
        m[f"{km}.self_s"] = (self._sum(km, "self_s"), "s")
        for name in ("associated_matrix", "is_d_partite"):
            m[f"structures.{name}.calls"] = (self._sum(f"structures.{name}", "calls"), "count")
            m[f"structures.{name}.s"] = (self._sum(f"structures.{name}"), "s")
        ra = "constructions.random_avoider"
        m[f"{ra}.calls"] = (self._sum(ra, "calls"), "count")
        m[f"{ra}.s"] = (self._sum(ra), "s")
        m[f"{ra}.deletions"] = (self._extra(ra, "deletions"), "count")
        m[f"{ra}.windows"] = (self._extra(ra, "windows"), "count")
        m["constructions.recheck.calls"] = (
            sum(self._sum(n, "calls", "constructions") for n in _RECHECKS),
            "count",
        )
        m["constructions.recheck.s"] = (
            sum(self._sum(n, "total", "constructions") for n in _RECHECKS),
            "s",
        )
        for name in ("cyclic_pad", "chain_patterns"):
            m[f"constructions.{name}.calls"] = (self._sum(f"constructions.{name}", "calls"), "count")
            m[f"constructions.{name}.s"] = (self._sum(f"constructions.{name}"), "s")
        for claim in CLAIMS.values():
            m[f"verify.{claim}.s"] = (self._sum(f"verify.{claim}"), "s")
        km_s = self._sum("verify.KlazarMarcus")
        m["verify.KlazarMarcus.pairs_per_s"] = (
            self._sum(km, "calls") / km_s if km_s else 0.0,
            "1/s",
        )
        return m

    def consistency_problems(self) -> list[str]:
        """Invariants every traced run must satisfy."""
        found = []
        if self.violations:
            found.append(f"{self.violations} frames had children longer than themselves")
        certified = sum(self._sum(f"search.{s}", "calls") for s in CERTIFYING_SOLVERS)
        certify_calls = self._sum("search.certify", "calls")
        if certify_calls != certified:
            found.append(f"search.certify ran {certify_calls} times for {certified} certified solves")
        return found

    def dump(self, path) -> None:
        """Write the spans and the aggregated boundaries as JSON."""
        fields = ("id", "name", "start", "end", "parent", "unit", "self_s")
        payload = {
            "spans": [dict(zip(fields, span)) for span in self.spans],
            "aggregates": [
                {"name": n, "via": v, "calls": s.calls, "s": s.total, "self_s": s.self_s}
                for (n, v), s in sorted(self.stats.items())
                if s.calls
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


_RECHECKS = (
    "containment.matrix_contains",
    "containment.hypergraph_contains",
    "containment.verify_hypergraph_embedding",
)


def _hit(stat: Stat, args, result) -> None:
    if result is not None:
        stat.hits += 1


def windows(config) -> int:
    """Submatrix windows a repair sweep scans: the product of C(n, k_i)."""
    return math.prod(math.comb(config.side, k) for k in config.pattern.extents)


def _repair(stat: Stat, args, result) -> None:
    extra = stat.extra
    extra["deletions"] = extra.get("deletions", 0) + result[1].deletions
    extra["windows"] = extra.get("windows", 0) + windows(args[0])
