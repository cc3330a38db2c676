"""Outside-in layer trace: wrap the library's layer boundaries, record spans.

The tracer rebinds the module-level names and methods that callers look up
at call time, so the library is traced without being edited.  Each call
records one span: id, parent id, name, start, end, group label and the
operation index, plus a few per-call attributes read from arguments or
results.  The stack of open spans is kept per thread, because a cut may
run its groups on worker threads.  ``uninstall`` restores the original
names, so one process can alternate traced and untraced operations.
Spans stay in memory and are written once, one JSON object per line, when
the traced process ends.

The per-layer table is derived from that file by ``layer_metrics``.
"""

import itertools
import json
import math
import statistics
import threading
import time

# Work counts that must repeat exactly between traced runs of one input.
EXACT_COUNTS = ("inference.ga_calls", "inference.newton_iters",
                "inference.lp_evals", "inference.grid_points",
                "sparse.factorize_calls")


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None              # index of the operation being run
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved = []            # (owner, attribute, original) per rebind

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, name, fn, group_of=None, attrs_of=None, cpu=False):
        """Return fn wrapped so that every call records a span called name.

        group_of(args) gives the group label of a call that starts one;
        attrs_of(args, result, exc) gives per-call attributes; cpu records
        the calling thread's CPU seconds spent inside the call.
        """
        tracer = self
        clock = time.perf_counter
        thread_clock = time.thread_time

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            if stack:
                parent, group = stack[-1]
            else:
                parent, group = None, None
            if group_of is not None:
                group = group_of(args)
            stack.append((span_id, group))
            result = exc = None
            cpu0 = thread_clock() if cpu else 0.0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = clock()
                stack.pop()
                attrs = attrs_of(args, result, exc) if attrs_of else None
                if cpu:
                    attrs = dict(attrs or {}, cpu=thread_clock() - cpu0)
                tracer.spans.append((span_id, parent, name, start, end, group,
                                     tracer.op, attrs))

        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span recorded from the caller."""
        return self.wrap(name, fn)(*args, **kwargs)

    def record(self, name, start, end, attrs=None):
        """Record a root span timed by the caller."""
        self.spans.append((next(self._ids), None, name, start, end, None,
                           self.op, attrs))

    def _rebind(self, owners, attr, wrapped):
        for owner in owners:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapped)

    def uninstall(self):
        """Restore every name that install rebound."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def install(self):
        """Rebind the traced boundaries of the lgmsplit modules."""
        import lgmsplit.inference as inference
        import lgmsplit.model as model
        import lgmsplit.nodesplit as nodesplit
        import lgmsplit.sparse as sparse

        def lp_attrs(args, result, exc):
            failed = exc is not None or not math.isfinite(result)
            return {"failed": 1} if failed else None

        self._rebind([inference], "factorize", self.wrap(
            "sparse.factorize", inference.factorize,
            attrs_of=lambda a, r, e: {"dense": int(r.is_dense)} if r is not None else None))
        self._rebind([sparse.CholeskyFactor], "solve", self.wrap(
            "sparse.solve", sparse.CholeskyFactor.solve,
            attrs_of=lambda a, r, e: {"cols": _n_cols(a[1])}))
        for meth in ("z_prior", "z_posterior_precision"):
            self._rebind([model.CompiledModel], meth, self.wrap(
                "model.assemble", getattr(model.CompiledModel, meth)))
        self._rebind([inference], "gaussian_approximation", self.wrap(
            "inference.gaussian_approximation", inference.gaussian_approximation,
            attrs_of=lambda a, r, e: {"n_iter": r.n_iter} if r is not None else None))
        self._rebind([inference.GaussianApprox], "sigma_z", self.wrap(
            "inference.sigma_z", inference.GaussianApprox.sigma_z))
        self._rebind([inference], "log_posterior_theta", self.wrap(
            "inference.log_posterior_theta", inference.log_posterior_theta,
            attrs_of=lp_attrs))
        self._rebind([inference, nodesplit], "explore_hypergrid", self.wrap(
            "inference.explore_hypergrid", inference.explore_hypergrid,
            attrs_of=lambda a, r, e: {"points": r.n_points} if r is not None else None))
        self._rebind([inference, nodesplit], "lincomb_posterior", self.wrap(
            "inference.lincomb_posterior", inference.lincomb_posterior))
        group_label = lambda a: a[1].labels[a[2]]
        for run in ("between_group_run", "within_group_run"):
            self._rebind([nodesplit], run, self.wrap(
                f"nodesplit.{run}", getattr(nodesplit, run),
                group_of=group_label, cpu=True))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, group, op, attrs in self.spans:
                rec = {"id": span_id, "parent": parent, "name": name,
                       "start": start, "end": end, "group": group, "op": op}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def _n_cols(b):
    shape = getattr(b, "shape", ())
    return int(shape[1]) if len(shape) > 1 else 1


# ---------------------------------------------------------------------------
# per-layer table


def read_spans(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(ln) for ln in fh]


def layer_metrics(span_file):
    """Per-layer metrics derived from the span file of a traced process.

    Times and counts are per operation, taken as the median over the
    traced operations; set-up layers (spans outside any operation) are
    medians over the repeated builds.  Medians are the lower middle
    sample, so a count stays a whole number.  Returns (metrics,
    counts_per_op), the latter for the exact-repeat check.
    """
    setup = {"model.read_s": [], "model.build_s": [], "model.z_ordering_s": [],
             "model.design_mb": []}
    child_time = {}
    by_op = {}
    for s in read_spans(span_file):
        if s["parent"] is not None:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + s["end"] - s["start"])
        if s["op"] is not None:
            by_op.setdefault(s["op"], []).append(s)
        elif s["name"] + "_s" in setup:
            setup[s["name"] + "_s"].append(s["end"] - s["start"])
            if s.get("attrs"):
                setup["model.design_mb"].append(s["attrs"]["design_mb"])
    per_op = [_op_metrics(by_op[k], child_time) for k in sorted(by_op)]

    metrics = {name: statistics.median_low(vals) for name, vals in setup.items()}
    for name in per_op[0]:
        metrics[name] = statistics.median_low(m[name] for m in per_op)
    counts = [{k: m[k] for k in EXACT_COUNTS} for m in per_op]
    return metrics, counts


def _op_metrics(spans, child_time):
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(rows):
        return sum(s["end"] - s["start"] for s in rows)

    def attr_sum(rows, key):
        return sum((s.get("attrs") or {}).get(key, 0) for s in rows)

    fac = named("sparse.factorize")
    factored = [s for s in fac if s.get("attrs")]
    solve = named("sparse.solve")
    assemble = named("model.assemble")
    ga = named("inference.gaussian_approximation")
    grids = named("inference.explore_hypergrid")
    lp = named("inference.log_posterior_theta")
    sigma = named("inference.sigma_z")
    between = named("nodesplit.between_group_run")
    within = named("nodesplit.within_group_run")
    in_group = {s["id"] for s in between + within}

    # the full-data grid of a cut is the one no group run encloses
    by_id = {s["id"]: s for s in spans}

    def inside_group(s):
        while s["parent"] is not None:
            if s["parent"] in in_group:
                return True
            s = by_id.get(s["parent"])
            if s is None:
                return False
        return False

    initial = [g for g in grids if between and not inside_group(g)]
    points = attr_sum(grids, "points")

    group_wall, group_cpu = [], 0.0
    starts = {s["group"]: s["start"] for s in between}
    for s in within:
        if s["group"] in starts:
            group_wall.append(s["end"] - starts[s["group"]])
    for s in between + within:
        group_cpu += s["attrs"]["cpu"]
    split_wall = (max(s["end"] for s in within) - min(s["start"] for s in between)
                  if between and within else 0.0)
    failed_groups = attr_sum(named("op"), "groups_failed")

    return {
        "model.assemble_calls": len(assemble),
        "model.assemble_s": total(assemble),
        "sparse.factorize_calls": len(fac),
        "sparse.factorize_s": total(fac),
        "sparse.solve_calls": len(solve),
        "sparse.solve_s": total(solve),
        "sparse.solve_cols": attr_sum(solve, "cols"),
        "sparse.dense_frac": (attr_sum(fac, "dense") / len(factored)
                              if factored else 0.0),
        "inference.ga_calls": len(ga),
        "inference.ga_self_s": sum(s["end"] - s["start"] - child_time.get(s["id"], 0.0)
                                   for s in ga),
        "inference.ga_per_point": len(ga) / points if points else 0.0,
        "inference.lincomb_s": total(named("inference.lincomb_posterior")),
        "inference.newton_iters": attr_sum(ga, "n_iter"),
        "inference.sigma_z_calls": len(sigma),
        "inference.sigma_z_s": total(sigma),
        "inference.grid_calls": len(grids),
        "inference.grid_s": total(grids),
        "inference.grid_points": points,
        "inference.lp_evals": len(lp),
        "inference.lp_s": total(lp),
        "inference.grid_accept_ratio": points / len(lp) if lp else 0.0,
        "inference.lp_failed": attr_sum(lp, "failed"),
        "nodesplit.groups": len(between),
        "nodesplit.groups_failed": failed_groups,
        "nodesplit.initial_fit_s": total(initial),
        "nodesplit.between_s": total(between),
        "nodesplit.within_s": total(within),
        "nodesplit.group_s_p50": statistics.median(group_wall) if group_wall else 0.0,
        "nodesplit.group_s_max": max(group_wall, default=0.0),
        "nodesplit.concurrency": group_cpu / split_wall if split_wall else 0.0,
    }
