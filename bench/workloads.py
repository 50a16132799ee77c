"""
The four benchmark workloads.

Each workload is a closed loop with one client: a fixed round of CLI
requests, generated from the seed, sent one after another, each only after
the previous one has returned.  The program sees only the generated
arguments and files.  `check` decides for each answer whether it is right,
using a closed form, an answer recorded from the program when the
benchmark was written (`expected.py`), or an independent brute-force scan
(`oracles.py`).
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import expected
import harness
import oracles
from latinpat.enumeration import count_reduced_squares, count_squares
from latinpat.square import AvoidanceSpec

S3 = ["123", "132", "213", "231", "312", "321"]
SHORT_PATTERNS = ["".join(map(str, p)) for k in (2, 3, 4) for p in itertools.permutations(range(1, k + 1))]


@dataclass
class Request:
    argv: list[str]
    kind: str
    expect: dict = field(default_factory=dict)
    jobs: int = 1
    #: (order, rows, cols, symbols) when the CLI partitions this request's
    #: search at depth n: every computed `count`, and any run with jobs > 1
    partition: tuple | None = None


def complement(pattern: str) -> str:
    n = len(pattern)
    return "".join(str(n + 1 - int(c)) for c in pattern)


def as_tuple(pattern: str) -> tuple[int, ...]:
    return tuple(int(c) for c in pattern)


class Workload:
    name = ""
    why = ""
    loop = "closed"
    clients = 1
    #: per-layer metrics predicted to stay at this value whatever an
    #: optimisation of another layer does (the bypass predictions)
    no_change: dict[str, float] = {}

    def __init__(self, seed: int):
        self.seed = seed
        self.requests: list[Request] = []
        self._verdicts: dict = {}

    def params(self) -> dict:
        return {"requests_per_round": len(self.requests)}

    def setup(self, work: Path, cli) -> None:
        """Generate the inputs (and any on-disk state) in a fresh directory."""
        raise NotImplementedError

    def before_round(self) -> None:
        """Untimed reset so that every round does the same work."""

    def reference_requests(self) -> list[Request]:
        """Requests run once after the timed rounds (not timed)."""
        return []

    def check(self, rec, refs: dict) -> str | None:
        """None if the answer is right, else the reason it is wrong."""
        if rec.error or rec.rc != 0:
            return f"exit {rec.rc} {rec.error}".strip()
        key = (tuple(rec.argv), rec.sha256)
        if key not in self._verdicts:
            try:
                self._verdicts[key] = getattr(self, "_check_" + rec.kind)(rec, refs)
            except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
                self._verdicts[key] = f"unreadable answer: {type(exc).__name__}: {exc}"
        return self._verdicts[key]

    # -- checks shared by the search workloads -------------------------------

    def _check_count(self, rec, refs):
        got = rec.json()["count"]
        return None if got == rec.expect["count"] else f"count {got} != {rec.expect['count']}"

    def _check_enum5(self, rec, refs):
        if rec.lines != refs["L5"]:
            return f"{rec.lines} lines, expected L5 = {refs['L5']}"
        return None if rec.sha256 == expected.ENUMERATE_5_SHA256 else "output differs from the recorded order-5 enumeration"


# ---------------------------------------------------------------------------


class CountPruned(Workload):
    name = "count-pruned"
    why = ("Closed loop, 1 client, --jobs 1. Pruned count ladder: PatternChecker prefix checks and the "
           "backtracker do the work. No change predicted: pool CPU 0, rectpat calls 0, analysis leaves 0.")
    no_change = {"pool.parent_cpu_s": 0, "pool.children_cpu_s": 0, "rectpat.contains_calls": 0, "analysis.leaves": 0}

    LADDER = [(6, "123"), (6, "132"), (6, "231"), (5, "1234"), (5, "2413")]

    def setup(self, work, cli):
        rng = random.Random(self.seed)
        reqs = []
        for n, avoid in self.LADDER:
            p = complement(avoid) if rng.random() < 0.5 else avoid
            want = n if len(p) == 3 else expected.COUNTS[avoid]
            argv = ["count", "--order", str(n), "--avoid", p, "--jobs", "1", "--no-cache"]
            reqs.append(Request(argv, "count", {"count": want}, partition=(n, (p,), (p,), ())))
        flip = rng.random() < 0.5
        row, sym = ("312", "321") if flip else ("132", "123")
        reqs.append(Request(
            ["count", "--order", "5", "--avoid-rows", row, "--avoid-symbols", sym, "--jobs", "1", "--no-cache"],
            "count", {"count": expected.COUNTS["rows 132, symbols 123"]}, partition=(5, (row,), (), (sym,)),
        ))
        self.requests = reqs


class FullScan(Workload):
    name = "full-scan"
    why = ("Closed loop, 1 client, --jobs 1. Walks all 161,280 order-5 squares: leaf work and output dominate. "
           "No change predicted: perm.checker_calls 0, pool CPU 0.")
    no_change = {"perm.checker_calls": 0, "pool.parent_cpu_s": 0, "pool.children_cpu_s": 0, "rectpat.contains_calls": 0}

    def setup(self, work, cli):
        # The order-5 space has nothing to vary: every seed gets the same
        # four requests, in a fixed order (a shuffled order moved the peak RSS).
        self.requests = [
            Request(["wilf", "--length", "4", "--order", "5", "--jobs", "1", "--no-cache"], "wilf45"),
            Request(["lambda", "--order", "5", "--exhaustive", "--jobs", "1", "--no-cache"], "lambda5"),
            Request(["verify", "corollary6", "--order", "5"], "cor6"),
            Request(["enumerate", "--order", "5", "--jobs", "1"], "enum5"),
        ]

    def _check_wilf45(self, rec, refs):
        out = rec.json()
        if out["counts"] != expected.WILF_4_5:
            return "wilf counts differ from the recorded ones"
        if out["num_classes"] != 8:
            return f"{out['num_classes']} classes, expected 8"
        return _classes_error(out)

    def _check_lambda5(self, rec, refs):
        out = rec.json()
        if out["exact_value"] != 3 or out["lower_bound"] != 3:
            return f"lambda_5 = {out['exact_value']}, expected 3"
        g = out["witness"]["grid"]
        if not oracles.is_latin(g) or oracles.max_monotone(g) != 3:
            return "witness is not a Latin square with longest monotone line 3"
        return None if rec.sha256 == expected.LAMBDA_5_SHA256 else "output differs from the recorded one"

    def _check_cor6(self, rec, refs):
        out = rec.json()
        if out["ok"] is not True or out["violations"]:
            return "corollary6 reported a violation"
        return None if out["squares"] == refs["L5"] else f"{out['squares']} squares, expected {refs['L5']}"


class StreamParallel(Workload):
    name = "stream-parallel"
    why = ("Closed loop, 1 client, --jobs 2: parallel enumerate read to EOF, then a pruned count. Only "
           "workload using the process pool. No change predicted: rectpat calls 0, analysis leaves 0.")
    no_change = {"rectpat.contains_calls": 0, "analysis.leaves": 0}
    JOBS = 2

    def setup(self, work, cli):
        rng = random.Random(self.seed)
        p = "321" if rng.random() < 0.5 else "123"
        j = str(self.JOBS)
        self.requests = [
            Request(["enumerate", "--order", "5", "--jobs", j], "enum5", jobs=self.JOBS, partition=(5, (), (), ())),
            Request(["count", "--order", "6", "--avoid", p, "--jobs", j, "--no-cache"], "count", {"count": 6},
                    jobs=self.JOBS, partition=(6, (p,), (p,), ())),
        ]

    def reference_requests(self):
        """The same commands at --jobs 1: the byte-identity reference and the serial wall time."""
        return [Request(list(jobs1_argv(r.argv)), r.kind, r.expect) for r in self.requests]

    def check(self, rec, refs):
        reason = super().check(rec, refs)
        if reason is None and jobs1_argv(rec.argv) != tuple(rec.argv):
            serial = refs["serial"].get(jobs1_argv(rec.argv))
            if serial is None or serial.sha256 != rec.sha256:
                return "stdout differs from the same command at --jobs 1"
        return reason


def jobs1_argv(argv) -> tuple:
    argv = list(argv)
    argv[argv.index("--jobs") + 1] = "1"
    return tuple(argv)


def _classes_error(out) -> str | None:
    by_count: dict[int, list[str]] = {}
    for p, c in sorted(out["counts"].items()):
        by_count.setdefault(c, []).append(p)
    want = [{"count": c, "patterns": by_count[c]} for c in sorted(by_count, reverse=True)]
    return None if out["classes"] == want else "classes do not group the patterns by count"


# ---------------------------------------------------------------------------


class Queries(Workload):
    name = "queries"
    why = ("Closed loop, 1 client: 500 small requests, 70% count/wilf hits on a 1000-entry cache, 10% misses "
           "that append, 20% check/rect-check/construct/lambda. No change predicted: pool CPU 0.")
    no_change = {"pool.parent_cpu_s": 0, "pool.children_cpu_s": 0, "analysis.leaves": 0}

    PREFILL = 1000
    MISS_BASE_SEED = 2014
    HOT_COUNT = 40
    WILF_KEYS = [(k, n, m) for k in (2, 3, 4) for n in (3, 4) for m in ("filter", "pruned")]
    MIX = {"hit_count": 300, "hit_wilf": 50, "miss": 50, "check": 30, "rect": 30,
           "s3": 10, "prop2": 10, "connolly": 5, "lambda_bounds": 15}
    #: brute-force table of all squares of order <= 4, built when first checked
    small: oracles.SmallSquares | None = None

    def params(self):
        return {"requests_per_round": len(self.requests), "mix": self.MIX, "prefill_entries": self.PREFILL,
                "square_orders": sorted({len(g) for g in self.squares.values()})}

    def setup(self, work, cli):
        rng = random.Random(self.seed)
        work.mkdir(parents=True, exist_ok=True)
        self.cache = work / "cache"
        self.pristine = work / "cache-pristine"

        # squares: isotopes of the cyclic square, orders 9..16
        self.squares = {}
        for n in range(9, 17):
            rho, tau = rng.sample(range(n), n), rng.sample(range(n), n)
            sigma = rng.sample(range(1, n + 1), n)
            grid = [[sigma[(rho[i] + tau[j]) % n] for j in range(n)] for i in range(n)]
            path = work / f"square{n}.txt"
            path.write_text("".join(" ".join(map(str, row)) + "\n" for row in grid))
            self.squares[str(path)] = grid
        paths = list(self.squares)

        pattern_pool = []
        for _ in range(16):
            k = rng.randint(3, 7)
            pattern_pool.append((rng.choice(paths), "".join(map(str, rng.sample(range(1, k + 1), k)))))
        self.rects = {}
        rect_pool = []
        for i in range(16):
            sq = rng.choice(paths)
            grid = self.squares[sq]
            n = len(grid)
            p, q = rng.randint(2, 3), rng.randint(2, 3)
            if i % 2 == 0:  # cut from the queried square: must be found
                rows, cols = sorted(rng.sample(range(n), p)), sorted(rng.sample(range(n), q))
                rect = [[grid[r][c] for c in cols] for r in rows]
            else:
                rect = _random_latin_rectangle(rng, p, q, rng.randint(max(p, q), p * q))
            path = work / f"rect{i}.txt"
            path.write_text("".join(" ".join(map(str, row)) + "\n" for row in rect))
            self.rects[str(path)] = (rect, i % 2 == 0)
            rect_pool.append((sq, str(path)))

        # The misses compute their counts, and at order 4 they are the
        # slowest requests, so they set request_p99.  Their work depends
        # heavily on the spec, so every seed gets the same base specs and
        # the seed complements each one or not: that changes the input (and
        # with symbol patterns the count) but keeps the number of search
        # nodes, and the tail stays put.
        base = _distinct_specs(random.Random(self.MISS_BASE_SEED), set(), self.MIX["miss"], (3, 4),
                               closed=_complement_spec)
        misses = [_complement_spec(m) if rng.random() < 0.5 else m for m in base]
        seen = set(misses)
        hot = _distinct_specs(rng, seen, self.HOT_COUNT, (3, 4))
        filler = _distinct_specs(rng, seen, self.PREFILL - self.HOT_COUNT - len(self.WILF_KEYS), (2, 3))

        # Pre-fill.  Filler entries are written straight through the cache
        # class in the CLI's key layout; they are never queried and only give
        # the file its realistic size.  Every entry a request should hit is
        # stored by the CLI itself, so hits stay hits whatever the key layout.
        cache_dir = str(self.cache)
        store = cli.CacheStore(self.cache)
        for n, rows, cols, syms in filler:
            spec = AvoidanceSpec(tuple(map(as_tuple, rows)), tuple(map(as_tuple, cols)), tuple(map(as_tuple, syms)))
            digest = hashlib.sha256(json.dumps(spec.to_dict(), sort_keys=True).encode()).hexdigest()
            store.store({"op": "count", "order": n, "spec": digest}, count_squares(n, spec).to_dict())
        hot_argv = [_count_argv(s, cache_dir) for s in hot]
        wilf_argv = [["wilf", "--length", str(k), "--order", str(n), "--mode", m, "--jobs", "1", "--cache-dir", cache_dir]
                     for k, n, m in self.WILF_KEYS]
        for argv in hot_argv + wilf_argv:
            _prefill(cli.main, argv)

        reqs = []
        for _ in range(self.MIX["hit_count"]):
            i = rng.randrange(len(hot))
            reqs.append(Request(hot_argv[i], "q_count", {"spec": hot[i]}))
        for _ in range(self.MIX["hit_wilf"]):
            i = rng.randrange(len(self.WILF_KEYS))
            reqs.append(Request(wilf_argv[i], "q_wilf", {"key": self.WILF_KEYS[i]}))
        for s in misses:
            reqs.append(Request(_count_argv(s, cache_dir), "q_count", {"spec": s, "miss": True}, partition=s))
        for _ in range(self.MIX["check"]):
            sq, pat = rng.choice(pattern_pool)
            reqs.append(Request(["check", "--square", sq, "--pattern", pat], "q_check", {"square": sq, "pattern": pat}))
        for _ in range(self.MIX["rect"]):
            sq, rect = rng.choice(rect_pool)
            reqs.append(Request(["rect-check", "--square", sq, "--rectangle", rect], "q_rect", {"square": sq, "rect": rect}))
        for _ in range(self.MIX["s3"]):
            n, p = rng.randint(3, 12), rng.choice(S3)
            start = rng.randint(1, n)
            fmt = rng.choice(["grid", "json"])
            reqs.append(Request(["construct", "s3", "--order", str(n), "--pattern", p, "--start", str(start), "--format", fmt],
                                "q_s3", {"order": n, "pattern": p, "start": start}))
        for _ in range(self.MIX["prop2"]):
            n, p = rng.randint(3, 9), rng.choice(S3)
            row = "".join(map(str, rng.sample(range(1, n + 1), n)))
            fmt = rng.choice(["grid", "json"])
            reqs.append(Request(["construct", "prop2", "--first-row", row, "--pattern", p, "--format", fmt],
                                "q_prop2", {"row": row, "pattern": p}))
        for _ in range(self.MIX["connolly"]):
            root = rng.randint(2, 4)
            reqs.append(Request(["construct", "connolly", "--root", str(root), "--format", rng.choice(["grid", "json"])],
                                "q_connolly", {"root": root}))
        for _ in range(self.MIX["lambda_bounds"]):
            n = rng.randint(2, 40)
            reqs.append(Request(["lambda", "--order", str(n), "--bounds", "--jobs", "1"], "q_lambda_bounds", {"order": n}))
        rng.shuffle(reqs)
        self.requests = reqs
        shutil.copytree(self.cache, self.pristine)

    def before_round(self):
        shutil.rmtree(self.cache)
        shutil.copytree(self.pristine, self.cache)

    def _oracle(self):
        if self.small is None:
            self.small = oracles.SmallSquares()
        return self.small

    def _count_of(self, spec) -> int:
        n, rows, cols, syms = spec
        return self._oracle().count(n, map(as_tuple, rows), map(as_tuple, cols), map(as_tuple, syms))

    def _check_q_count(self, rec, refs):
        got, want = rec.json()["count"], self._count_of(rec.expect["spec"])
        return None if got == want else f"count {got} != brute force {want}"

    def _check_q_wilf(self, rec, refs):
        k, n, mode = rec.expect["key"]
        out = rec.json()
        want = {}
        for p in itertools.permutations(range(1, k + 1)):
            name = "".join(map(str, p))
            want[name] = self._count_of((n, (name,), (name,), ()))
        if out["counts"] != want or out["order"] != n or out["pattern_length"] != k or out["mode"] != mode:
            return "wilf counts differ from brute force"
        if out["num_classes"] != len(set(want.values())):
            return "wrong number of classes"
        return _classes_error(out)

    def _check_q_check(self, rec, refs):
        grid = self.squares[rec.expect["square"]]
        pattern = as_tuple(rec.expect["pattern"])
        out = rec.json()
        if out["order"] != len(grid) or out["pattern"] != rec.expect["pattern"]:
            return "answer describes another query"
        if out["contained"]:
            return None if oracles.find_line_witness_ok(grid, pattern, out["witness"]) else "witness is not an occurrence"
        return None if oracles.square_avoids(grid, pattern) else "reported avoided, but brute force finds an occurrence"

    def _check_q_rect(self, rec, refs):
        grid = self.squares[rec.expect["square"]]
        rect, cut = self.rects[rec.expect["rect"]]
        out = rec.json()
        if out["contained"]:
            w = out["witness"]
            ok = (len(w["rows"]) == len(rect) and len(w["cols"]) == len(rect[0])
                  and w["rows"] == sorted(set(w["rows"])) and w["cols"] == sorted(set(w["cols"]))
                  and 1 <= w["rows"][0] and w["rows"][-1] <= len(grid) and 1 <= w["cols"][0] and w["cols"][-1] <= len(grid)
                  and oracles.rect_matches(oracles.subrect(grid, w["rows"], w["cols"]), rect))
            return None if ok else "witness is not an occurrence"
        if cut:
            return "a rectangle cut from the square was reported absent"
        return None if not oracles.rect_contained(grid, rect) else "reported absent, but brute force finds it"

    def _construct_grid(self, rec):
        if rec.text.lstrip().startswith("{"):
            return rec.json()["grid"]
        return [[int(t) for t in line.split()] for line in rec.text.splitlines() if line.strip()]

    def _check_q_s3(self, rec, refs):
        g = self._construct_grid(rec)
        e = rec.expect
        ok = (len(g) == e["order"] and oracles.is_latin(g) and g[0][0] == e["start"]
              and oracles.square_avoids(g, as_tuple(e["pattern"])))
        return None if ok else "not the avoider with that top-left entry"

    def _check_q_prop2(self, rec, refs):
        g = self._construct_grid(rec)
        row, pattern = as_tuple(rec.expect["row"]), as_tuple(rec.expect["pattern"])
        anchor = g[-1] if oracles.prop2_anchor(pattern) == "bottom" else g[0]
        ok = (oracles.is_latin(g) and tuple(anchor) == row
              and not any(oracles.contains(c, pattern) for c in oracles.columns(g)))
        return None if ok else "not a column-avoiding completion of the anchor row"

    def _check_q_connolly(self, rec, refs):
        g = self._construct_grid(rec)
        r = rec.expect["root"]
        ok = len(g) == r * r and oracles.is_latin(g) and oracles.max_monotone(g) == r + 1
        return None if ok else "not a Latin square of order root^2 with longest monotone line root+1"

    def _check_q_lambda_bounds(self, rec, refs):
        n = rec.expect["order"]
        out = rec.json()
        lower = oracles.lambda_lower_bound(n)
        if out["order"] != n or out["lower_bound"] != lower:
            return f"lower bound {out['lower_bound']} != {lower}"
        root = oracles.is_square_root(n)
        if root >= 2:
            g = out["witness"]["grid"]
            cap = oracles.max_monotone(g) if oracles.is_latin(g) and len(g) == n else None
            ok = (cap is not None and out["witness_cap"] == cap and out["method"] == "witness-capped"
                  and out["exact_value"] == (cap if cap == lower else None))
        else:
            ok = out["method"] == "bound-only" and out["witness"] is None and out["exact_value"] is None
        return None if ok else "bounds report is inconsistent"


def _random_latin_rectangle(rng, p, q, k):
    while True:
        rect = [[0] * q for _ in range(p)]
        try:
            for i in range(p):
                for j in range(q):
                    used = set(rect[i][:j]) | {rect[r][j] for r in range(i)}
                    rect[i][j] = rng.choice([v for v in range(1, k + 1) if v not in used])
            return rect
        except IndexError:  # dead end: no symbol left for this cell
            continue


def _distinct_specs(rng, seen: set, count: int, orders, closed=None) -> list[tuple]:
    """`count` specs not in `seen`; with `closed`, not the image of one under it either."""
    out = []
    while len(out) < count:
        n = rng.choice(orders)
        dims = tuple(tuple(sorted(set(rng.sample(SHORT_PATTERNS, rng.choice((0, 0, 1, 1, 2)))))) for _ in range(3))
        spec = (n,) + dims
        if spec not in seen:
            seen.add(spec)
            if closed is not None:
                seen.add(closed(spec))
            out.append(spec)
    return out


def _complement_spec(spec: tuple) -> tuple:
    n, *dims = spec
    return (n,) + tuple(tuple(sorted(complement(p) for p in pats)) for pats in dims)


def _count_argv(spec, cache_dir: str) -> list[str]:
    n, rows, cols, syms = spec
    argv = ["count", "--order", str(n)]
    for flag, pats in (("--avoid-rows", rows), ("--avoid-cols", cols), ("--avoid-symbols", syms)):
        for p in pats:
            argv += [flag, p]
    return argv + ["--jobs", "1", "--cache-dir", cache_dir]


def _prefill(main, argv) -> None:
    """One CLI request that stores its answer in the cache; any failure ends the set-up."""
    rec = harness.run_request(main, argv, "prefill")
    if rec.rc != 0:
        raise RuntimeError(f"pre-filling the cache failed: {' '.join(argv)}: {rec.error}")


WORKLOADS = {w.name: w for w in (CountPruned, FullScan, StreamParallel, Queries)}


def reduced_identity() -> dict:
    """L5 = 5! * 4! * R5, with R5 from the program's independent reduced-square search."""
    return {"L5": math.factorial(5) * math.factorial(4) * count_reduced_squares(5)}
