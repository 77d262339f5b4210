"""Spans around calls into each layer of ``orlicz_eigen``, installed from
outside the package by replacing module-level names and class attributes.

A span is a list ``[name, start, end, parent, solve_id, info]``: ``parent``
is the index of the enclosing span (-1 at top level), ``solve_id`` numbers
the top-level constrained solves (0 outside them) and ``info`` holds a
count or a small tuple recorded at the boundary (elements evaluated, map
evaluations, iterations).  Spans stay in memory until the pass ends.

Untraced passes install only the solve wrappers, which time each solve and
keep its result for the certificates; traced passes install every wrapper.
A name that a later version of the package no longer has is skipped and
listed as absent; the metrics that need it then read zero, since no call
went through the missing wrapper.  Every metric is always reported.
"""

import json
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.solve_id = 0
        self.solves = []        # one dict per top-level solve
        self.absent = []        # dotted names that could not be wrapped

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn, info=None, result=None):
        """Span around ``fn``.  ``info(args)`` is recorded before the call;
        ``result(ret)`` replaces it after a normal return."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], self.solve_id,
                   info(args) if info else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                ret = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if result:
                try:
                    rec[5] = result(ret)
                except (AttributeError, IndexError, TypeError):
                    pass  # return value changed shape: counts stay absent
            return ret
        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, make):
        fn = owner.__dict__.get(attr)
        if fn is None:
            self.absent.append(f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, make(fn))

    def _solve_wrapper(self, fn):
        clock = time.perf_counter
        inner = self._wrap("solve", fn)

        def solve(*args, **kwargs):
            if self.solve_id:  # nested: part of the enclosing solve
                return fn(*args, **kwargs)
            F, alpha = args[0], float(args[2])
            opts = args[3] if len(args) > 3 else kwargs.get("opts")
            initial = args[4] if len(args) > 4 else kwargs.get("initial")
            self.solve_id = len(self.solves) + 1
            rec = {"family": F.family.value, "params": dict(F.params),
                   "alpha": alpha, "tol": getattr(opts, "tol", None),
                   "warm": initial is not None, "span": len(self.spans)}
            self.solves.append(rec)
            t0 = clock()
            try:
                ret = inner(*args, **kwargs)
            except Exception as exc:
                rec["error"] = repr(exc)
                raise
            finally:
                rec["seconds"] = clock() - t0
                self.solve_id = 0
            rec["result"] = {"alpha": ret.alpha, "energy": ret.energy,
                             "lambda": ret.lam, "residual": ret.residual,
                             "converged": ret.converged}
            rec["iterations"] = ret.iterations
            return ret
        solve.__wrapped__ = fn
        return solve

    # -- installation --------------------------------------------------------

    def install_solves(self):
        from orlicz_eigen import cli, sweep
        for owner, attr in ((cli, "solve_E"), (cli, "solve_Es"),
                            (sweep, "solve_E")):
            self._patch(owner, attr, self._solve_wrapper)

    def install_layers(self):
        from orlicz_eigen import cli, fractional, solver, sweep, young
        w = self._wrap

        def size(args):
            return getattr(args[1], "size", 1)
        Y = young.YoungFunction
        self._patch(Y, "A", lambda f: w("young.A", f, size))
        self._patch(Y, "a", lambda f: w("young.a", f, size))
        for mod in (cli, sweep):
            for attr in ("delta2_report", "matuszewska_exponent"):
                self._patch(mod, attr, lambda f: w("young.diag", f))
        self._patch(solver, "bisect_monotone", self._bisect_wrapper)
        self._patch(solver, "cell_gradients", lambda f: w("mesh.grad", f))
        self._patch(solver.Problem, "project",
                    lambda f: w("solver.project", f))
        self._patch(solver.Problem, "preconditioner", self._precond_wrapper)
        self._patch(solver, "energy", lambda f: w("solver.energy", f))
        self._patch(solver, "energy_gradient",
                    lambda f: w("solver.gradient", f))
        self._patch(solver, "_descend",
                    lambda f: w("solver.descent", f, result=lambda r: (
                        r.iterations, r.energy, r.residual)))
        self._patch(solver, "_polish",
                    lambda f: w("solver.polish", f, result=lambda r: r[3]))
        self._patch(fractional, "energy_s",
                    lambda f: w("fractional.energy", f))
        self._patch(fractional, "energy_s_gradient",
                    lambda f: w("fractional.gradient", f))
        self._patch(cli, "NonlocalMesh",
                    lambda f: w("fractional.mesh_build", f))
        self._patch(cli, "run_sweep", lambda f: w("sweep.run", f))
        for attr in ("check_bounds", "check_decay", "_check_derivative",
                     "_check_limits", "_global_p_index", "_decay_endpoint"):
            self._patch(cli, attr, lambda f: w("sweep.check", f))

    def _bisect_wrapper(self, fn):
        spans = self.spans

        def bisect(f, *args, **kwargs):
            rec_index = len(spans)

            def counted(x):
                spans[rec_index][5] += 1
                return f(x)
            return inner(counted, *args, **kwargs)
        inner = self._wrap("roots.bisect", fn)
        bisect.__wrapped__ = fn
        return bisect

    def _precond_wrapper(self, fn):
        build = self._wrap("solver.precond.build", fn)

        def preconditioner(*args, **kwargs):
            return self._wrap("solver.precond.solve", build(*args, **kwargs))
        preconditioner.__wrapped__ = fn
        return preconditioner

    # -- output --------------------------------------------------------------

    def run_cli(self, main, argv):
        """Call the CLI entry point inside a top-level ``cli`` span."""
        return self._wrap("cli", main)(argv)

    def write_spans(self, path):
        """One JSON array per line: name, start, end, parent index, solve
        id, info; the first line names the fields."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "solve",
                                 "info"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- per-layer metrics -------------------------------------------------------

def _timed(span):
    return [(f"{span}.calls", "count", span), (f"{span}.self_s", "s", span)]


# (metric, unit, span it is computed from)


LAYER_METRICS = (
    _timed("young.A") + [("young.A.elems", "count", "young.A")]
    + _timed("young.a") + [("young.a.elems", "count", "young.a")]
    + [("young.diag.self_s", "s", "young.diag")]
    + _timed("roots.bisect")
    + [("roots.bisect.evals", "count", "roots.bisect")]
    + _timed("mesh.grad")
    + _timed("solver.project")
    + [("solver.project.wall_share", "ratio", "solver.project")]
    + _timed("solver.energy") + _timed("solver.gradient")
    + [("solver.precond.builds", "count", "solver.precond"),
       ("solver.precond.build_s", "s", "solver.precond"),
       ("solver.precond.solves", "count", "solver.precond"),
       ("solver.precond.solve_s", "s", "solver.precond"),
       ("solver.descent.iters", "count", "solver.descent"),
       ("solver.polish.iters", "count", "solver.polish"),
       ("solver.linesearch.accept_ratio", "ratio", "solver.descent"),
       ("solver.restarts.runs", "count", "solver.descent"),
       ("solver.restarts.wasted_frac", "ratio", "solver.descent")]
    + _timed("fractional.energy") + _timed("fractional.gradient")
    + [("fractional.mesh_build_s", "s", "fractional.mesh_build"),
       ("sweep.solves", "count", "sweep.run"),
       ("sweep.warm_ratio", "ratio", "sweep.run"),
       ("sweep.checks_s", "s", "sweep.check"),
       ("cli.self_s", "s", "cli")]
)


def layer_metrics(tracer, wall_s):
    """Per-layer counts and self times of one traced pass.  Self time is a
    span's duration minus the durations of its direct child spans."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
            kids[s[3]].append(i)
    calls, total, own, count = {}, {}, {}, {}
    for i, (name, t0, t1, parent, _, info) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (t1 - t0)
        own[name] = own.get(name, 0.0) + (t1 - t0 - child[i])
        if isinstance(info, int):
            count[name] = count.get(name, 0) + info

    v = {}
    for name, _, span in LAYER_METRICS:
        if name == f"{span}.calls":
            v[name] = calls.get(span, 0)
        elif name == f"{span}.self_s":
            v[name] = own.get(span, 0.0)
    v["young.A.elems"] = count.get("young.A", 0)
    v["young.a.elems"] = count.get("young.a", 0)
    v["roots.bisect.evals"] = count.get("roots.bisect", 0)
    v["solver.project.wall_share"] = total.get("solver.project", 0.0) / wall_s
    v["solver.precond.builds"] = calls.get("solver.precond.build", 0)
    v["solver.precond.build_s"] = own.get("solver.precond.build", 0.0)
    v["solver.precond.solves"] = calls.get("solver.precond.solve", 0)
    v["solver.precond.solve_s"] = own.get("solver.precond.solve", 0.0)
    v["fractional.mesh_build_s"] = total.get("fractional.mesh_build", 0.0)

    # phases of each descent run: polish iterations are the polish span's
    # count; line-search trials are the energy evaluations made directly by
    # the descent loop, less the initial one and the one after a polish
    descent = polish = accepted = trials = runs = 0
    for i, s in enumerate(spans):
        if s[0] != "solver.descent" or not isinstance(s[5], tuple):
            continue
        runs += 1
        names = [spans[k][0] for k in kids[i]]
        n_polish = names.count("solver.polish")
        p_iters = sum(spans[k][5] for k in kids[i]
                      if spans[k][0] == "solver.polish")
        d_iters = s[5][0] - p_iters
        descent += d_iters
        polish += p_iters
        accepted += max(d_iters - 1, 0)
        trials += (names.count("solver.energy")
                   + names.count("fractional.energy") - 1 - n_polish)
    v["solver.descent.iters"] = descent
    v["solver.polish.iters"] = polish
    v["solver.linesearch.accept_ratio"] = accepted / trials if trials else 0.0
    v["solver.restarts.runs"] = runs

    # restart time spent in runs whose result the solve did not return
    used = spent = 0.0
    sweep_solves = warm = 0
    for rec in tracer.solves:
        s = rec["span"]
        parent = spans[s][3]
        if parent >= 0 and spans[parent][0] == "sweep.run":
            sweep_solves += 1
            warm += rec["warm"]
        res = rec.get("result")
        runs_here = [spans[k] for k in kids[s]
                     if spans[k][0] == "solver.descent"]
        spent += sum(r[2] - r[1] for r in runs_here)
        if res:
            for r in runs_here:
                if isinstance(r[5], tuple) and r[5][1:] == (
                        res["energy"], res["residual"]):
                    used += r[2] - r[1]
                    break
    v["solver.restarts.wasted_frac"] = 1.0 - used / spent if spent else 0.0
    v["sweep.solves"] = sweep_solves
    v["sweep.warm_ratio"] = warm / sweep_solves if sweep_solves else 0.0
    v["sweep.checks_s"] = sum(
        s[2] - s[1] for s in spans if s[0] == "sweep.check"
        and (s[3] < 0 or spans[s[3]][0] != "sweep.check"))

    return {name: {"value": v[name], "unit": unit}
            for name, unit, _ in LAYER_METRICS}
