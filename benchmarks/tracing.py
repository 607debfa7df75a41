"""Spans and counters around cartanlab's layers, for the traced benchmark run.

The tracer patches the public entry points of each module at run time and
restores them afterwards; nothing under ``src/`` is edited.  A patched
function is rebound under every name any ``cartanlab`` module imported it
by, so ``from .jets import jet_eval`` call sites are traced too.

* Spans record name, start, end, parent, the chart dimension and the chart
  point they ran at.  They stay in memory and are written out by
  :meth:`Tracer.write` when the run ends.
* Counts are kept where counting is cheaper than timing: Jet-by-Jet
  products (with the multiply-adds of their product table), jet
  evaluations, FD derivatives, inversions, scalar ``K^2`` evaluations and
  cache hits.

A layer's self time is its span's duration minus the time its child spans
cover; :func:`self_times` does that arithmetic.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import defaultdict

DIMS = (2, 3, 4)

# PointGeometry cached properties, grouped into the pipeline stages.
GEOMETRY_STAGES = {
    "k2": ("k2", "tau"),
    "g": ("g_up_jets", "g_up", "g_down_jets", "g_down", "p_up_jets", "p_up"),
    "C": ("C_uuu_jets", "C_uuu", "C_uud_jets", "C_mixed_jets", "C_mixed",
          "C_ddd_jets", "C_ddd", "I_up_jets", "I_up"),
    "NB": ("gamma_jets", "N_jets", "N", "B_jets", "B"),
    "L": ("L_uud_jets", "L_uud", "L_uuu_jets", "L_uuu", "L_udd_jets", "L_udd",
          "L_ddd_jets", "L_ddd", "J_up_jets", "J_up", "J_down"),
    "R": ("R_vv_jets", "R_vv", "R_curv", "P_curv"),
}
GEOMETRY_ORDERS = (5, 4, 2)

# span group -> per-point metric stem; self time per distinct chart point
PER_POINT = {
    **{f"geometry.{stage}": f"geometry.{stage}_ms" for stage in GEOMETRY_STAGES},
    "kahler.G": "kahler.G_ms",
    "berwald.cov": "berwald.cov_ms",
    "levicivita.conn": "levicivita.conn_ms",
    "levicivita.curvature": "levicivita.curvature_ms",
    "operators.ctx": "operators.ctx_ms",
    "operators.laplacian": "operators.laplacian_ms",
}

COUNTS = (
    "jets.mul_count",
    "jets.mul_madds",
    "jets.jet_eval_calls",
    "jets.fd_derivative_calls",
    "jets.invert_calls",
    "cartan.k2_values_calls",
    *(f"geometry.built.order{k}" for k in GEOMETRY_ORDERS),
    "kahler.metrics_built",
    "berwald.cov_calls",
)


def check_ids() -> tuple:
    from cartanlab.checks import REGISTRY

    return tuple(spec.check_id for spec in REGISTRY)


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {name: "count" for name in COUNTS}
    units["jets.mul_order01_share"] = "ratio"
    for stem in PER_POINT.values():
        for n in DIMS:
            units[f"{stem}.n{n}"] = "ms"
    units.update({
        "berwald.fd_ms": "ms",
        "levicivita.xpartial_s": "s",
        "levicivita.koszul_s": "s",
        "levicivita.defn_s": "s",
        "levicivita.stencil_hit_ratio": "ratio",
        "checks.memo_hit_ratio": "ratio",
        "checks.records": "count",
        "checks.failed": "count",
        "checks.errored": "count",
        "manifest.load_ms": "ms",
        "cli.self_ms": "ms",
        "trace.overhead_s": "s",
    })
    for cid in check_ids():
        units[f"checks.{cid}.ms_per_record"] = "ms"
    return units


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans) -> list:
    """Self time of each span: its duration minus what its children cover.

    ``spans`` holds ``[name, start, end, parent, ...]`` rows with parent -1
    for a root.  Spans come from one thread, so children of a span never
    overlap each other and their durations add up to the time they cover.
    """
    out = [end - start for _name, start, end, *_ in spans]
    for _name, start, end, parent, *_ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def outermost(spans, wanted) -> list:
    """Indices of spans whose group is in ``wanted`` and no ancestor's is."""
    keep = []
    for i, row in enumerate(spans):
        if _group(row[0]) not in wanted:
            continue
        parent = row[3]
        while parent >= 0 and _group(spans[parent][0]) not in wanted:
            parent = spans[parent][3]
        if parent < 0:
            keep.append(i)
    return keep


def _group(name: str) -> str:
    return name.split("/", 1)[0]


def _ratio(hits, calls) -> float:
    return hits / calls if calls else 0.0


# ---------------------------------------------------------------------------
# the tracer


def _where_self_geom(obj, *_a, **_k):
    return obj.n, obj.at.key()


def _where_geom_attr(obj, *_a, **_k):
    return obj.geom.n, obj.geom.at.key()


def _where_at(_s, at, *_a, **_k):
    return at.n, at.key()


def _where_ctx(ctx, *_a, **_k):
    return ctx.at.n, ctx.at.key()


def _where_check(_ctx, _idx, pt):
    return pt.n, pt.key()


def _where_metric(_self, geom, *_a, **_k):
    return geom.n, geom.at.key()


def _nowhere(*_a, **_k):
    return 0, None


class Tracer:
    """Install with :meth:`install`, run the workload, then :meth:`uninstall`."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent, n, point key]
        self.counts = defaultdict(int)
        self.missing = []
        self._stack = []
        self._undo = []

    # -- recording

    def begin(self, name, n=0, key=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, n, key])
        self._stack.append(idx)
        return idx

    def end(self, idx) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def spanned(self, name, where=_nowhere):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                n, key = where(*args, **kwargs)
                idx = self.begin(name, n, key)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end(idx)

            return wrapper

        return make

    def counted(self, name):
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    # -- patching

    def patch_function(self, module, attr, make) -> None:
        """Replace ``module.attr`` under every name a cartanlab module binds it to."""
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        new = make(orig)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != "cartanlab":
                continue
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, new)
                    self._undo.append((mod, name, orig))

    def patch_attr(self, owner, attr, make) -> None:
        """Replace a class attribute (method or cached property)."""
        orig = owner.__dict__.get(attr)
        if orig is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        if isinstance(orig, functools.cached_property):
            new = functools.cached_property(make(orig.func))
            new.__set_name__(owner, attr)
        else:
            new = make(orig)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            obj, name, orig = self._undo.pop()
            setattr(obj, name, orig)

    def install(self) -> "Tracer":
        from cartanlab import berwald, cartan, checks, cli, geometry, jets, kahler
        from cartanlab import levicivita, manifest, operators

        counts = self.counts

        # jets: products are counted, not spanned
        tables = getattr(jets, "_tables", None)
        table_len = {}

        def jet_mul(fn):
            Jet = jets.Jet

            @functools.wraps(fn)
            def wrapper(a, b):
                if isinstance(b, Jet):
                    k = min(a.order, b.order)
                    counts["jets.mul_count"] += 1
                    if k <= 1:
                        counts["jets.mul_order01"] += 1
                    size = table_len.get((a.nvars, k))
                    if size is None and tables is not None:
                        size = table_len[(a.nvars, k)] = tables(a.nvars, k).mul[0].size
                    counts["jets.mul_madds"] += size or 0
                return fn(a, b)

            return wrapper

        self.patch_attr(jets.Jet, "__mul__", jet_mul)
        self.patch_attr(jets.Jet, "__rmul__", jet_mul)
        self.patch_function(jets, "jet_eval", self.counted("jets.jet_eval_calls"))
        self.patch_function(jets, "fd_derivative", self.counted("jets.fd_derivative_calls"))
        self.patch_function(jets, "invert", self.counted("jets.invert_calls"))

        # cartan
        self.patch_attr(cartan.CartanStructure, "k2_values", self.counted("cartan.k2_values_calls"))

        # geometry
        PointGeometry = geometry.PointGeometry

        def geom_init(fn):
            @functools.wraps(fn)
            def wrapper(obj, structure, at, order=5):
                counts[f"geometry.built.order{order}"] += 1
                return fn(obj, structure, at, order)

            return wrapper

        self.patch_attr(PointGeometry, "__init__", geom_init)
        for stage, props in GEOMETRY_STAGES.items():
            for prop in props:
                self.patch_attr(
                    PointGeometry, prop, self.spanned(f"geometry.{stage}/{prop}", _where_self_geom)
                )

        # kahler
        def metric_init(fn):
            span = self.spanned("kahler.G", _where_metric)(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts["kahler.metrics_built"] += 1
                return span(*args, **kwargs)

            return wrapper

        self.patch_attr(kahler.BundleMetric, "__init__", metric_init)

        # berwald
        for meth in ("h_cov", "v_cov"):
            self.patch_attr(
                berwald.DTensor,
                meth,
                lambda fn, meth=meth: self.counted("berwald.cov_calls")(
                    self.spanned(f"berwald.cov/{meth}", _where_geom_attr)(fn)
                ),
            )
        for fn_name in ("nonlinear_connection_fd", "berwald_curvature_fd"):
            self.patch_function(berwald, fn_name, self.spanned(f"berwald.fd/{fn_name}", _where_at))

        # levicivita
        self.patch_function(levicivita, "lc_closed_form", self.spanned("levicivita.conn", _where_at))
        for fn_name in ("curvature_closed", "ricci"):
            self.patch_function(
                levicivita, fn_name, self.spanned(f"levicivita.curvature/{fn_name}", _where_at)
            )
        self.patch_function(levicivita, "koszul_oracle", self.spanned("levicivita.koszul", _where_at))
        for fn_name in ("curvature_context", "curvature_defn"):
            self.patch_function(
                levicivita, fn_name, self.spanned(f"levicivita.defn/{fn_name}", _where_at)
            )
        defn_context = getattr(levicivita, "_DefnContext", None)
        if defn_context is not None:
            self.patch_attr(
                defn_context, "x_partial", self.spanned("levicivita.xpartial", _where_geom_attr)
            )

        def metric_at(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                before = counts["kahler.metrics_built"]
                out = fn(*args, **kwargs)
                counts["levicivita.stencil_calls"] += 1
                counts["levicivita.stencil_hits"] += counts["kahler.metrics_built"] == before
                return out

            return wrapper

        self.patch_attr(levicivita.MetricStencil, "metric_at", metric_at)

        # operators
        self.patch_function(operators, "operator_context", self.spanned("operators.ctx", _where_at))
        self.patch_function(operators, "laplacian", self.spanned("operators.laplacian", _where_ctx))

        # checks: every registry entry's runner, plus the per-scope memo
        def registry(specs):
            return tuple(
                dataclasses.replace(
                    spec, run=self.spanned(f"check/{spec.check_id}", _where_check)(spec.run)
                )
                for spec in specs
            )

        self.patch_function(checks, "REGISTRY", registry)

        def memo(fn):
            @functools.wraps(fn)
            def wrapper(ctx, key, build):
                counts["checks.memo_calls"] += 1
                counts["checks.memo_hits"] += key in ctx.memo
                return fn(ctx, key, build)

            return wrapper

        self.patch_attr(checks.CheckContext, "_memo", memo)

        # manifest and cli
        for fn_name in ("load_manifest", "parse_manifest"):
            self.patch_function(manifest, fn_name, self.spanned(f"manifest.load/{fn_name}"))
        self.patch_function(cli, "main", self.spanned("cli.main"))
        return self

    # -- results

    def metrics(self, records_by_check: dict, failed: int, errored: int) -> dict:
        """Per-layer metric values (units in :func:`metric_units`).

        ``records_by_check`` maps each check id to its record count in the
        traced report; ``failed`` and ``errored`` count its failed records
        and those with a null residual.
        """
        spans = self.spans
        own = self_times(spans)
        c = self.counts
        out = {name: float(c[name]) for name in COUNTS}
        out["jets.mul_order01_share"] = _ratio(c["jets.mul_order01"], c["jets.mul_count"])

        # per-point self time, by dimension
        total = defaultdict(int)
        points = defaultdict(set)
        for row, t in zip(spans, own):
            stem = PER_POINT.get(_group(row[0]))
            if stem is not None:
                total[stem, row[4]] += t
                points[stem, row[4]].add(row[5])
        for stem in PER_POINT.values():
            for n in DIMS:
                npts = len(points[stem, n])
                out[f"{stem}.n{n}"] = total[stem, n] / 1e6 / npts if npts else 0.0

        def inclusive_ns(group):
            idx = outermost(spans, {group})
            return sum(spans[i][2] - spans[i][1] for i in idx), len(idx)

        def self_ns(group):
            return sum(t for row, t in zip(spans, own) if _group(row[0]) == group)

        fd_ns, fd_calls = inclusive_ns("berwald.fd")
        out["berwald.fd_ms"] = fd_ns / 1e6 / fd_calls if fd_calls else 0.0
        out["levicivita.xpartial_s"] = inclusive_ns("levicivita.xpartial")[0] / 1e9
        out["levicivita.koszul_s"] = inclusive_ns("levicivita.koszul")[0] / 1e9
        out["levicivita.defn_s"] = self_ns("levicivita.defn") / 1e9
        out["levicivita.stencil_hit_ratio"] = _ratio(
            c["levicivita.stencil_hits"], c["levicivita.stencil_calls"]
        )
        out["checks.memo_hit_ratio"] = _ratio(c["checks.memo_hits"], c["checks.memo_calls"])
        out["checks.records"] = float(sum(records_by_check.values()))
        out["checks.failed"] = float(failed)
        out["checks.errored"] = float(errored)

        load_ns, loads = inclusive_ns("manifest.load")
        out["manifest.load_ms"] = load_ns / 1e6 / loads if loads else 0.0
        cli_calls = sum(1 for row in spans if row[0] == "cli.main")
        out["cli.self_ms"] = self_ns("cli.main") / 1e6 / cli_calls if cli_calls else 0.0

        check_ns = defaultdict(int)
        for i in outermost(spans, {"check"}):
            check_ns[spans[i][0].partition("/")[2]] += spans[i][2] - spans[i][1]
        for cid in check_ids():
            nrec = records_by_check.get(cid, 0)
            out[f"checks.{cid}.ms_per_record"] = check_ns[cid] / 1e6 / nrec if nrec else 0.0
        return out

    def write(self, path) -> None:
        """Write every span as a tab-separated row."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_ns\tend_ns\tn\n")
            for i, (name, start, end, parent, n, _key) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start}\t{end}\t{n}\n")
