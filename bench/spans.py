"""Span recorder wrapped around ringlab's public functions from outside.

ringlab imports with ``from .x import y``, which copies the binding, so a
wrapper is only seen if every ``ringlab.*`` module attribute that is the
original object is rebound to it.  ``Tracer.install`` does that, and sets
wrapped methods on their classes; ``Tracer.uninstall`` puts the originals
back.  Spans (name, parent, start, end) stay in memory in flat arrays and
are written out once at the end; per-layer totals are kept as spans close.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

# workload -> wrapped functions that must record calls there (each moves an
# end-to-end metric on that workload; a zero means a missed rebinding)
MUST_CALL = {
    "fp-scan": ["cli.run", "parse_polynomial", "is_prime", "Domain.element",
                "Polynomial.evaluate", "nullspace_mod_p", "variety", "vanishing_ideal",
                "is_prime_vanishing_ideal"],
    "certify": ["cli.run", "parse_polynomial", "is_prime", "Domain.element",
                "Polynomial.evaluate", "Polynomial.__mul__", "Polynomial.__add__",
                "solve_rational", "solve_mod_p", "nullspace_mod_p", "membership_bounded",
                "MembershipCertificate.verify", "gcd_univariate", "viv_closure",
                "IntIdeal.from_generators", "IntIdeal.contains", "IntIdeal.is_prime",
                "enumerate_ideals_mod_n"],
    "plot": ["cli.run", "parse_polynomial", "Polynomial.evaluate", "raster_plane_curve",
             "render_ascii", "render_svg"],
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.calls: dict[str, int] = defaultdict(int)
        self.max_cells = 0
        self._stack: list[list] = []  # [span index, time in wrapped children]
        self._active: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, key: str, name: str, fn, sizes=None, outcome=None):
        """Time fn under layer key; sizes(stats, args) runs before the clock
        starts and outcome(stats, args, result) after it stops."""
        stats, calls, stack, active = self.stats[key], self.calls, self._stack, self._active
        starts, ends, parents, span_names = (self.span_start, self.span_end,
                                             self.span_parent, self.span_name)
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if sizes:
                sizes(stats, args)
            frame = [len(starts), 0.0]
            parents.append(stack[-1][0] if stack else -1)
            span_names.append(name_id)
            stack.append(frame)
            active[key] += 1
            start = clock()
            starts.append(start)
            ends.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[key] -= 1
                ends[frame[0]] = end
                dur = end - start
                calls[name] += 1
                stats["calls"] += 1
                if not active[key]:  # inclusive time counts the outermost call only
                    stats["busy_s"] += dur
                stats["self_s"] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if outcome:
                outcome(stats, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, modules, key: str, name: str, fn, **hooks) -> None:
        wrapper = self._wrap(key, name, fn, **hooks)
        hits = 0
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
                    hits += 1
        if not hits:
            raise RuntimeError(f"{name} is bound nowhere in ringlab")

    def _rebind_method(self, cls, attr: str, key: str, **hooks) -> None:
        raw = cls.__dict__[attr]
        name = f"{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            wrapper = classmethod(self._wrap(key, name, raw.__func__, **hooks))
        else:
            wrapper = self._wrap(key, name, raw, **hooks)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        from ringlab import cli, domains, intideals, linalg, parsing, polyideals
        from ringlab import polynomials, raster, varieties

        mods = [m for n, m in sys.modules.items() if n == "ringlab" or n.startswith("ringlab.")]
        bind = lambda key, name, fn, **hooks: self._rebind(mods, key, name, fn, **hooks)
        method = self._rebind_method

        bind("cli.run", "cli.run", cli.run)
        bind("parsing.parse", "parse_polynomial", parsing.parse_polynomial, outcome=_terms_out)
        bind("domains.is_prime", "is_prime", domains.is_prime)
        method(domains.Domain, "element", "domains.element")
        Poly = polynomials.Polynomial
        method(Poly, "evaluate", "polynomials.evaluate", sizes=_eval_terms)
        for attr in ("__mul__", "__rmul__"):
            method(Poly, attr, "polynomials.mul", sizes=_term_pairs)
        for attr in ("__add__", "__radd__"):
            method(Poly, attr, "polynomials.add")
        for fn in (linalg.solve_rational, linalg.solve_mod_p, linalg.nullspace_mod_p):
            bind(f"linalg.{fn.__name__}", fn.__name__, fn, sizes=self._matrix_sizes)
        bind("polyideals.membership", "membership_bounded", polyideals.membership_bounded,
             outcome=_verdict)
        method(polyideals.MembershipCertificate, "verify", "polyideals.verify")
        bind("polyideals.gcd", "gcd_univariate", polyideals.gcd_univariate)
        bind("varieties.variety", "variety", varieties.variety,
             sizes=_scan_points, outcome=_scan_hits)
        bind("varieties.vanishing_ideal", "vanishing_ideal", varieties.vanishing_ideal)
        bind("varieties.viv", "viv_closure", varieties.viv_closure)
        bind("varieties.prime_check", "is_prime_vanishing_ideal",
             varieties.is_prime_vanishing_ideal)
        bind("raster.raster", "raster_plane_curve", raster.raster_plane_curve,
             sizes=_corners, outcome=_marked)
        bind("raster.render", "render_ascii", raster.render_ascii)
        bind("raster.render", "render_svg", raster.render_svg)
        for attr in ("from_generators", "contains", "__contains__", "is_prime"):
            method(intideals.IntIdeal, attr, "intideals")
        bind("intideals", "enumerate_ideals_mod_n", intideals.enumerate_ideals_mod_n)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def _matrix_sizes(self, stats, args) -> None:
        rows = args[0]
        ncols = len(rows[0]) if rows else 0
        stats["rows"] += len(rows)
        stats["cols"] += ncols
        stats["nnz"] += sum(len(r) - r.count(0) for r in rows)
        self.max_cells = max(self.max_cells, len(rows) * ncols)

    # -- results ----------------------------------------------------------------

    def missing_calls(self, workload: str) -> list[str]:
        return [name for name in MUST_CALL[workload] if not self.calls.get(name)]

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer numbers for one pass of the command list."""
        s = self.stats
        out: dict[str, float] = {}

        def put(key: str, *fields: str) -> None:
            for f in fields:
                out[f"{key}.{f}"] = s[key][f] / passes

        out["cli.run.calls"] = s["cli.run"]["calls"] / passes
        out["cli.self_s"] = s["cli.run"]["self_s"] / passes
        put("parsing.parse", "calls", "busy_s", "terms_out")
        put("domains.is_prime", "calls", "busy_s")
        put("domains.element", "calls", "busy_s")
        put("polynomials.evaluate", "calls", "busy_s", "terms")
        put("polynomials.mul", "calls", "busy_s", "term_pairs")
        put("polynomials.add", "calls", "busy_s")
        for name in ("solve_rational", "solve_mod_p", "nullspace_mod_p"):
            put(f"linalg.{name}", "calls", "busy_s", "rows", "cols", "nnz")
        out["linalg.max_cells"] = self.max_cells
        put("polyideals.membership", "calls", "busy_s", "self_s")
        for verdict in ("member", "non_member", "unknown"):
            out[f"polyideals.verdict.{verdict}"] = s["polyideals.membership"][verdict] / passes
        out["polyideals.unknown_share"] = _ratio(s["polyideals.membership"]["unknown"],
                                                 s["polyideals.membership"]["calls"])
        put("polyideals.verify", "calls", "busy_s")
        put("polyideals.gcd", "busy_s")
        put("varieties.variety", "calls", "busy_s", "points")
        v = s["varieties.variety"]
        out["varieties.variety.points_per_s"] = _ratio(v["points"], v["busy_s"])
        out["varieties.variety.hit_ratio"] = _ratio(v["hits"], v["points"])
        put("varieties.vanishing_ideal", "calls", "busy_s", "self_s")
        put("varieties.viv", "calls", "busy_s")
        put("varieties.prime_check", "busy_s")
        put("raster.raster", "calls", "busy_s", "corners")
        r = s["raster.raster"]
        out["raster.raster.corners_per_s"] = _ratio(r["corners"], r["busy_s"])
        out["raster.raster.marked_ratio"] = _ratio(r["marked"], r["cells"])
        put("raster.render", "busy_s")
        put("intideals", "calls", "busy_s")
        return out

    def write_spans(self, path: Path) -> None:
        """Spans as four arrays (name id, parent index, start, end) in native byte
        order in one .bin file, described by a .json header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        header = {"count": len(self.span_start), "names": self.names,
                  "arrays": [["name", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
                  "byteorder": sys.byteorder}
        path.with_suffix(".json").write_text(json.dumps(header) + "\n")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _terms_out(stats, args, result) -> None:
    stats["terms_out"] += len(result.terms)


def _eval_terms(stats, args) -> None:
    stats["terms"] += len(args[0].terms)


def _term_pairs(stats, args) -> None:
    other = args[1]
    stats["term_pairs"] += len(args[0].terms) * len(getattr(other, "terms", (0,)))


def _verdict(stats, args, cert) -> None:
    stats[cert.verdict] += 1


def _scan_points(stats, args) -> None:
    ring = args[0].ring
    if ring.domain.modulus:
        stats["points"] += ring.domain.modulus ** ring.nvars


def _scan_hits(stats, args, result) -> None:
    stats["hits"] += len(result)


def _corners(stats, args) -> None:
    cols, rows = args[2], args[3]
    stats["corners"] += (cols + 1) * (rows + 1)
    stats["cells"] += cols * rows


def _marked(stats, args, grid) -> None:
    stats["marked"] += sum(map(sum, grid.cells))
