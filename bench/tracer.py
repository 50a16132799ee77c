"""
Spans and counters around the calls into each latinpat module.

The tracer wraps module attributes from the outside (nothing inside
src/latinpat changes) and only for the traced run.  A call made once or a
few hundred times per request gets a span: name, start, end, parent span
and request id.  A call made up to millions of times per request, such as
`PatternChecker.avoids_all` or the leaf callback of the backtracker, gets a
counter instead: calls and total seconds per request, plus memo hits for
the pattern checker.  Everything stays in memory until `dump`.

A boundary the program no longer has is skipped and listed in `missing`,
so the traced run reports zeros for it instead of failing.
"""
from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent, request]
        self.counters: dict[int, dict[str, list]] = defaultdict(dict)  # request -> name -> [calls, s, hits]
        self.request = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, perf_counter(), None, parent, self.request])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][3] = perf_counter()
        self._stack.pop()

    def add(self, name: str, seconds: float, hit: int = 0, calls: int = 1) -> None:
        c = self.counters[self.request].get(name)
        if c is None:
            c = self.counters[self.request][name] = [0, 0.0, 0]
        c[0] += calls
        c[1] += seconds
        c[2] += hit

    # -- wrapping ----------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def _span(self, name: str):
        def make(fn):
            def wrapper(*a, **kw):
                sid = self.open(name)
                try:
                    return fn(*a, **kw)
                finally:
                    self.close(sid)
            return wrapper
        return make

    def _counter(self, name: str):
        def make(fn):
            def wrapper(*a, **kw):
                t = perf_counter()
                try:
                    return fn(*a, **kw)
                finally:
                    self.add(name, perf_counter() - t)
            return wrapper
        return make

    def _build_parser(self, fn):
        parse_span = self._span("cli.parse_args")

        def wrapper(*a, **kw):
            sid = self.open("cli.build_parser")
            try:
                parser = fn(*a, **kw)
            finally:
                self.close(sid)
            parser.parse_args = parse_span(parser.parse_args)
            return parser
        return wrapper

    def _lookup(self, fn):
        def wrapper(store, key):
            sid = self.open("cli.cache_lookup")
            try:
                found = fn(store, key)
            finally:
                self.close(sid)
            self.add("cli.cache_lookup", 0.0, hit=int(found is not None))
            return found
        return wrapper

    def _checker(self, fn):
        def wrapper(checker, prefix):
            memo = getattr(checker, "_cache", None)
            hit = memo is not None and prefix in memo
            t = perf_counter()
            try:
                return fn(checker, prefix)
            finally:
                self.add("perm.checker", perf_counter() - t, hit=int(hit))
        return wrapper

    def _search(self, leaf_counter: str):
        def make(fn):
            def wrapper(*a, **kw):
                leaf = kw.get("on_leaf")
                if leaf is not None:
                    def timed_leaf(g):
                        t = perf_counter()
                        try:
                            leaf(g)
                        finally:
                            self.add(leaf_counter, perf_counter() - t)
                    kw["on_leaf"] = timed_leaf
                sid = self.open("enumeration.search")
                try:
                    result = fn(*a, **kw)
                finally:
                    self.close(sid)
                if isinstance(result, tuple) and len(result) == 2:
                    # the backtracker returns (hits, nodes); count the nodes
                    self.add("enumeration.search_nodes", 0.0, calls=result[1])
                return result
            return wrapper
        return make

    def install(self, cli, enumeration, analysis, perm, rectpat, construct) -> None:
        """Wrap every layer boundary; `uninstall` restores the originals."""
        self._patch(cli, "build_parser", self._build_parser)
        cache = getattr(cli, "CacheStore", None)
        if cache is None:
            self.missing.append("cli.CacheStore")
        else:
            self._patch(cache, "lookup", self._lookup)
            self._patch(cache, "store", self._span("cli.cache_store"))
        self._patch(cli, "count_squares", self._span("enumeration.count_squares"))
        self._patch(analysis, "count_squares", self._span("enumeration.count_squares"))
        self._patch(cli, "enumerate_squares", self._span("enumeration.enumerate_squares"))
        self._patch(enumeration, "_run_search", self._search("enumeration.leaf"))
        self._patch(analysis, "_run_search", self._search("analysis.leaf"))
        checker = getattr(perm, "PatternChecker", None)
        if checker is None:
            self.missing.append("perm.PatternChecker")
        else:
            self._patch(checker, "avoids_all", self._checker)
        self._patch(perm, "longest_monotone", self._counter("perm.longest_monotone"))
        self._patch(perm, "pattern_of", self._counter("perm.pattern_of"))
        self._patch(cli, "find_occurrence", self._counter("perm.find_occurrence"))
        self._patch(rectpat, "contains_rectangle", self._span("rectpat.contains_rectangle"))
        for gen in ("construct_s3_avoider", "complete_columns_avoiding", "connolly_square"):
            self._patch(construct, gen, self._span("construct." + gen))
        self._patch(analysis, "connolly_square", self._span("construct.connolly_square"))
        for fn in ("wilf_classes", "compute_lambda_exhaustive", "verify_triple_containment", "lambda_bound_report"):
            self._patch(analysis, fn, self._span("analysis." + fn))
        self._patch(cli, "square_to_json", self._counter("square.to_json"))
        self._patch(analysis, "square_to_json", self._counter("square.to_json"))
        self._patch(cli, "load_square", self._span("square.load"))
        self._patch(cli, "load_rectangle", self._span("square.load"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries ---------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[1] == name and s[3] is not None]

    def span_total(self, name: str) -> float:
        return sum(self.durations(name))

    def counter(self, name: str) -> tuple[int, float, int]:
        calls = secs = hits = 0
        for per_request in self.counters.values():
            c = per_request.get(name)
            if c:
                calls += c[0]
                secs += c[1]
                hits += c[2]
        return calls, secs, hits

    def per_request_total(self, names: tuple[str, ...]) -> list[float]:
        """Per request: summed duration of the named spans (requests without any are skipped)."""
        acc: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s[1] in names and s[3] is not None:
                acc[s[5]] += s[3] - s[2]
        return list(acc.values())

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s[4] is not None and s[3] is not None:
                child[s[4]] += s[3] - s[2]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s[3] is not None:
                out[s[1]] += s[3] - s[2] - child[s[0]]
        return dict(out)

    def dump(self, path) -> None:
        """Write every span and counter as one JSON object per line."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"span": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")
            for request, named in sorted(self.counters.items()):
                for name, (calls, secs, hits) in sorted(named.items()):
                    fh.write(json.dumps({"counter": name, "request": request, "calls": calls,
                                         "seconds": secs, "hits": hits}) + "\n")
