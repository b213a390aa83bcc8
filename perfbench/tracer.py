"""Outside-in tracing of quadops for the benchmark's traced run.

``install`` wraps the listed public functions without touching the
package source: each wrapper is bound under the function's name in the
defining module and in every other loaded ``quadops`` module that imported
the function by name, so calls made through any of those names are seen.
``Matrix.matmul`` is wrapped on its class. ``ideal_span`` is a recursive
``lru_cache``: the cached object is wrapped (the recursion goes through the
module global, so nested calls are traced too) and the cache statistics
are read from the original.

Spans (name, start, end, parent, sample id, counts) are kept in memory and
written once, at the end of the sample. ``layer_metrics`` turns a span file
into the per-layer metrics; self time is a span's duration minus the time
its child spans cover. Counting the arguments and results of a call takes
time of its own; that time is recorded as a ``trace.bookkeeping`` child of
the enclosing span, so it is not charged to any layer.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# (module, attribute) of every traced callable; "Matrix.matmul" is a method.
TARGETS = (
    ("linalg", "rref"),
    ("linalg", "span"),
    ("linalg", "kernel"),
    ("linalg", "complement_under_form"),
    ("linalg", "subspace_contains"),
    ("linalg", "Matrix.matmul"),
    ("expansion", "ideal_span"),
    ("expansion", "weight_basis"),
    ("presentations", "dual"),
    ("presentations", "quotient"),
    ("presentations", "square"),
    ("presentations", "apply_relabeling"),
    ("presentations", "is_morphism"),
    ("presentations", "find_relabeling_iso"),
    ("series", "dim_series"),
    ("series", "gk_defect"),
    ("series", "predicted_dims"),
    ("verify", "verify_all"),
    ("verify", "sixteenth_relation_scan"),
    ("dsl", "parse"),
    ("dsl", "print_presentation"),
    ("catalog", "catalog"),
    ("catalog", "builtin"),
    ("cli", "main"),
)

LAYERS = ("linalg", "expansion", "presentations", "series", "verify", "dsl", "catalog", "cli")
IDEAL_WEIGHTS = (3, 4, 5, 6)
BOOKKEEPING = "trace.bookkeeping"


def _count_rref(args, kwargs, result):
    m = args[0]
    return {"entries_in": m.rows * m.cols}


def _count_span(args, kwargs, result):
    vectors = args[0]
    return {
        "rows_in": len(vectors),
        "nnz_in": sum(1 for v in vectors for x in v if x),
        "ambient": args[1] if len(args) > 1 else kwargs["ambient_dim"],
        "rank_out": result.dimension,
    }


def _list_vectors(args, kwargs):
    # span accepts any iterable; a one-shot iterator would be used up by the
    # count, so hand span a list with the same rows
    if args and not isinstance(args[0], (list, tuple)):
        args = (list(args[0]),) + tuple(args[1:])
    return args, kwargs


def _weight(args, kwargs):
    return {"n": args[1] if len(args) > 1 else kwargs["n"]}


def _iso_hit(args, kwargs, result):
    return {"hit": result is not None}


# per-target argument hooks: (before, at_start, after)
_HOOKS = {
    "linalg.rref": (None, None, _count_rref),
    "linalg.span": (_list_vectors, None, _count_span),
    "expansion.ideal_span": (None, _weight, None),
    "presentations.find_relabeling_iso": (None, None, _iso_hit),
}


class Tracer:
    """In-memory span recorder for one cold sample."""

    def __init__(self, sample_id: int) -> None:
        self.sample_id = sample_id
        self.spans: list[list] = []  # [name, start, end, parent, counts]
        self._stack: list[int] = []
        self._originals: dict[str, object] = {}
        self.absent: list[str] = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        before, at_start, after = _HOOKS.get(name, (None, None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, at_start(args, kwargs) if at_start else None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                t0 = clock()
                counts = after(args, kwargs, result)
                record[4] = counts if record[4] is None else {**record[4], **counts}
                spans.append([BOOKKEEPING, t0, clock(), parent, None])
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists in the loaded quadops modules."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "quadops" or name.startswith("quadops.")
        }
        for mod_name, attr in TARGETS:
            full = f"{mod_name}.{attr}"
            home = modules.get(f"quadops.{mod_name}")
            owner_name, _, method = attr.partition(".")
            owner = getattr(home, owner_name, None) if home is not None else None
            original = getattr(owner, method, None) if method else owner
            if original is None:
                self.absent.append(full)
                continue
            self._originals[full] = original
            wrapper = self.wrap(full, original)
            if method:
                setattr(owner, method, wrapper)
                continue
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def cache_stats(self) -> dict:
        ideal = self._originals.get("expansion.ideal_span")
        if ideal is None or not hasattr(ideal, "cache_info"):
            return {}
        info = ideal.cache_info()
        return {"hits": info.hits, "misses": info.misses, "entries": info.currsize}

    def write(self, path, timed_start: float, timed_end: float) -> None:
        """Write the sample's spans once, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            header = {
                "sample": self.sample_id,
                "timed_start": timed_start,
                "timed_end": timed_end,
                "cache": self.cache_stats(),
                "absent": self.absent,
            }
            fh.write(json.dumps(header) + "\n")
            for index, (name, start, end, parent, counts) in enumerate(self.spans):
                span = {
                    "sample": self.sample_id,
                    "id": index,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                }
                if counts:
                    span.update(counts)
                fh.write(json.dumps(span) + "\n")


def read_spans(path) -> tuple[dict, list[dict]]:
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    return header, spans


def _metric_specs():
    """Per-layer metric names with their units, in report order."""
    specs = []
    for name in ("linalg.rref", "linalg.span"):
        specs.append((f"{name}.calls", "count"))
        specs.append((f"{name}.self_s", "s"))
    specs += [
        ("linalg.rref.entries_in", "count"),
        ("linalg.span.rows_in", "count"),
        ("linalg.span.nnz_in", "count"),
        ("linalg.span.rank_out", "count"),
        ("linalg.span.rank_ratio", "ratio"),
    ]
    for name in ("kernel", "complement_under_form", "Matrix.matmul", "subspace_contains"):
        specs.append((f"linalg.{name}.self_s", "s"))
    specs += [
        ("expansion.ideal_span.calls", "count"),
        ("expansion.ideal_span.self_s", "s"),
        ("expansion.ideal_span.cache_hits", "count"),
        ("expansion.ideal_span.cache_entries", "count"),
    ]
    for n in IDEAL_WEIGHTS:
        for field, unit in (("ambient", "count"), ("generators", "count"), ("rank", "count"), ("self_s", "s")):
            specs.append((f"expansion.ideal_span.w{n}.{field}", unit))
    specs.append(("expansion.weight_basis.self_s", "s"))
    for name in ("dual", "quotient", "square", "apply_relabeling", "is_morphism"):
        specs.append((f"presentations.{name}.self_s", "s"))
    specs += [
        ("presentations.find_relabeling_iso.calls", "count"),
        ("presentations.find_relabeling_iso.self_s", "s"),
        ("presentations.find_relabeling_iso.hit_ratio", "ratio"),
    ]
    for name in ("dim_series", "gk_defect", "predicted_dims"):
        specs.append((f"series.{name}.self_s", "s"))
    specs += [
        ("verify.verify_all.calls", "count"),
        ("verify.verify_all.self_s", "s"),
        ("verify.sixteenth_relation_scan.self_s", "s"),
        ("dsl.parse.self_s", "s"),
        ("dsl.print_presentation.self_s", "s"),
        ("catalog.catalog.total_s", "s"),
        ("catalog.builtin.total_s", "s"),
        ("cli.main.self_s", "s"),
    ]
    specs += [(f"{layer}.self_s", "s") for layer in LAYERS]
    specs += [
        ("trace.bookkeeping_s", "s"),
        ("trace.traced_wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.reference_s", "s"),
    ]
    return specs


METRIC_UNITS = dict(_metric_specs())


def _target_of(metric: str) -> str:
    """The traced callable a metric depends on, or '' for none."""
    for mod_name, attr in TARGETS:
        full = f"{mod_name}.{attr}"
        if metric.startswith(full + "."):
            return full
    return ""


def layer_metrics(header: dict, spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced sample, without the wall-time fields.

    ``catalog.*.total_s`` covers the whole sample, because ``catalog()``
    runs in set-up; every other metric covers the timed section only.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]
    timed_start = header["timed_start"]
    timed = [s for s in spans if s["start"] >= timed_start]

    def of(name):
        return [s for s in timed if s["name"] == name]

    def self_sum(items):
        return sum(s["end"] - s["start"] - child_time[s["id"]] for s in items)

    def total_s(name):
        # inclusive time, counting a span nested in a span of the same name once
        items = [s for s in spans if s["name"] == name]
        outer = [s for s in items if s["parent"] < 0 or spans[s["parent"]]["name"] != name]
        return sum(s["end"] - s["start"] for s in outer)

    out: dict[str, float] = {}
    for mod_name, attr in TARGETS:
        full = f"{mod_name}.{attr}"
        items = of(full)
        out[f"{full}.calls"] = len(items)
        out[f"{full}.self_s"] = self_sum(items)
    rref = of("linalg.rref")
    out["linalg.rref.entries_in"] = sum(s["entries_in"] for s in rref)
    span = of("linalg.span")
    for field in ("rows_in", "nnz_in", "rank_out"):
        out[f"linalg.span.{field}"] = sum(s[field] for s in span)
    rows_in = out["linalg.span.rows_in"]
    out["linalg.span.rank_ratio"] = out["linalg.span.rank_out"] / rows_in if rows_in else 0.0
    cache = header["cache"]
    out["expansion.ideal_span.cache_hits"] = cache.get("hits", 0)
    out["expansion.ideal_span.cache_entries"] = cache.get("entries", 0)
    ideal = of("expansion.ideal_span")
    for n in IDEAL_WEIGHTS:
        at_n = [s for s in ideal if s["n"] == n]
        ids = {s["id"] for s in at_n}
        gen = [s for s in span if s["parent"] in ids]
        out[f"expansion.ideal_span.w{n}.ambient"] = sum(s["ambient"] for s in gen)
        out[f"expansion.ideal_span.w{n}.generators"] = sum(s["rows_in"] for s in gen)
        out[f"expansion.ideal_span.w{n}.rank"] = sum(s["rank_out"] for s in gen)
        out[f"expansion.ideal_span.w{n}.self_s"] = self_sum(at_n)
    iso = of("presentations.find_relabeling_iso")
    out["presentations.find_relabeling_iso.hit_ratio"] = (
        sum(1 for s in iso if s["hit"]) / len(iso) if iso else 0.0
    )
    out["catalog.catalog.total_s"] = total_s("catalog.catalog")
    out["catalog.builtin.total_s"] = total_s("catalog.builtin")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_sum([s for s in timed if s["name"].startswith(layer + ".")])
    out["trace.bookkeeping_s"] = self_sum(of(BOOKKEEPING))
    absent = set(header["absent"])
    return {m: out[m] for m in METRIC_UNITS if m in out and _target_of(m) not in absent}


def aggregate(samples: list[dict], traced_wall: float, untraced_wall: float, reference: float) -> dict:
    """Median of each per-layer metric over the traced samples, with the
    run's wall times and the tracing overhead."""
    names = [m for m in METRIC_UNITS if all(m in s for s in samples)]
    metrics = {m: statistics.median(s[m] for s in samples) for m in names}
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.reference_s"] = reference
    return {m: {"value": metrics[m], "unit": METRIC_UNITS[m]} for m in METRIC_UNITS if m in metrics}
