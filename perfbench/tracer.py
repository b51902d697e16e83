"""Per-layer tracing of ccdp from outside the package.

``Tracer`` replaces the module attributes that ccdp's own callers look up
(``gaps.ChannelParams``, ``mc.normal_blocks``, ``bounds.ccdp_es_inner``, ...)
with timing wrappers and restores them on exit.  Nothing under ``src/`` is
edited.

Self time is a wrapped call's duration minus the durations of the wrapped
calls it made.  Per-point calls (``ChannelParams`` and every public
``bounds`` function) are aggregated in place as a count and a total time per
name; a full span is kept only for coarse calls, so a 227,500-point sweep
does not allocate a million span records.
"""

import inspect
from collections import namedtuple
from itertools import count
from statistics import fmean, pstdev
from time import perf_counter

Span = namedtuple("Span", "id parent name start end self_s size points draws")

# Coarse calls that get a span: (module, attribute) -> span name.
SPANS = {
    ("cli", "main"): "cli.main",
    ("gaps", "run_sweep"): "gaps.evaluate",
    ("gaps", "certify_theorem"): "gaps.evaluate",
    ("gaps", "monotonicity_audit"): "gaps.audit",
    ("gaps.GapReport", "finalize"): "gaps.finalize",
    ("gaps", "rows_to_csv"): "gaps.serialize",
    ("gaps", "report_summary"): "gaps.serialize",
    ("gaps", "report_to_json"): "gaps.serialize",
    ("mc.SchemeSystem", "basis_second_moment"): "mc.moment",
    ("mc", "gaussian_mi"): "mc.mi",
    ("mc", "mi_gradient"): "mc.mi",
    ("mc", "delta_stderr"): "mc.mi",
    ("mc", "verify_decomposition_stats"): "mc.decomposition",
    ("mc", "estimate_san_rate"): "mc.estimate",
    ("mc", "estimate_gp_rate"): "mc.estimate",
    ("mc", "verify_scheme_rate"): "mc.estimate",
}

# Every name ChannelParams is looked up under by a caller.
PARAMS_NAMES = (("model", "ChannelParams"), ("gaps", "ChannelParams"),
                ("cli", "ChannelParams"))

# Branch labels of BoundResult grouped into the four kernel branches.
BRANCH_GROUPS = {
    "c2<=1": "low", "c2<=M-1": "low",
    "middle": "middle",
    "c2>=P+1": "high", "c2>=(M-1)(P+1)": "high",
    "time-sharing": "time_sharing",
}


def _size(result):
    """Rows of a GapReport, characters of a serialized text, else 0."""
    rows = getattr(result, "rows", None)
    if isinstance(rows, list):
        return len(rows)
    return len(result) if isinstance(result, str) else 0


class Tracer:
    """Context manager that wraps ccdp's layers while it is active.

    ``modules`` maps the short module names used in SPANS ("model",
    "bounds", "gaps", "mc", "cli") to the imported modules.
    """

    def __init__(self, modules):
        self.modules = modules
        self.stack = [0.0]            # child time of each open frame
        self.open_ids = [None]        # id of each open span
        self.spans = []
        self.leaves = {}              # name -> [calls, seconds]
        self.branches = {}            # branch label -> bound evaluations
        self.counts = [0, 0]          # [bound calls returned, draw events]
        self.draw = [0, 0, 0.0]       # [rows, computed bytes, seconds]
        self.draw_depth = [0]
        self.moment_hits = 0
        self.write_bytes = 0
        self._ids = count()
        self._saved = []

    # -- patching ---------------------------------------------------------

    def _owner(self, path):
        module, _, cls = path.partition(".")
        owner = self.modules[module]
        return getattr(owner, cls) if cls else owner

    def _patch(self, path, attr, wrapper):
        owner = self._owner(path)
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        for (path, attr), name in SPANS.items():
            fn = self._owner(path).__dict__[attr]
            if (path, attr) == ("mc.SchemeSystem", "basis_second_moment"):
                self._patch(path, attr, self._moment(self._span(name, fn)))
            else:
                self._patch(path, attr, self._span(name, fn))
        params = self.modules["model"].ChannelParams
        wrapped = self._leaf("model.params", params)
        for path, attr in PARAMS_NAMES:
            self._patch(path, attr, wrapped)
        bounds = self.modules["bounds"]
        for attr, fn in list(vars(bounds).items()):
            if (inspect.isfunction(fn) and fn.__module__ == bounds.__name__
                    and not attr.startswith("_")):
                self._patch("bounds", attr, self._bound(fn))
        self._patch("mc", "normal_blocks",
                    self._draws(self.modules["mc"].normal_blocks))
        self._patch("model", "block_generator",
                    self._block_generator(self.modules["model"].block_generator))
        self._patch("cli", "_write", self._write(self.modules["cli"]._write))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        stack, open_ids, spans, counts = (self.stack, self.open_ids,
                                          self.spans, self.counts)
        ids = self._ids

        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = open_ids[-1]
            open_ids.append(span_id)
            stack.append(0.0)
            points0, draws0 = counts
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                child = stack.pop()
                open_ids.pop()
                stack[-1] += end - start
                spans.append(Span(span_id, parent, name, start, end,
                                  end - start - child, _size(result),
                                  counts[0] - points0, counts[1] - draws0))

        return wrapper

    def _moment(self, timed):
        # A call that draws nothing was answered from the cache.
        def wrapper(*args, **kwargs):
            draws0 = self.counts[1]
            result = timed(*args, **kwargs)
            if self.counts[1] == draws0:
                self.moment_hits += 1
            return result

        return wrapper

    def _leaf(self, name, fn):
        rec = self.leaves.setdefault(name, [0, 0.0])
        stack = self.stack

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                rec[0] += 1
                rec[1] += dt
                stack[-1] += dt

        return wrapper

    def _bound(self, fn):
        rec = self.leaves.setdefault(f"bounds.{fn.__name__}", [0, 0.0])
        stack, counts, branches = self.stack, self.counts, self.branches

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                rec[0] += 1
                rec[1] += dt
                stack[-1] += dt
            counts[0] += 1
            label = getattr(result, "branch", None)
            branches[label] = branches.get(label, 0) + 1
            return result

        return wrapper

    def _draws(self, fn):
        stack, draw, depth, counts = (self.stack, self.draw, self.draw_depth,
                                      self.counts)

        def wrapper(*args, **kwargs):
            blocks = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                depth[0] += 1
                start = perf_counter()
                try:
                    item = next(blocks, None)
                finally:
                    dt = perf_counter() - start
                    depth[0] -= 1
                    stack.pop()
                    stack[-1] += dt
                    draw[2] += dt
                if item is None:
                    return
                rows, width = item[1].shape
                draw[0] += rows
                draw[1] += rows * width * 8
                counts[1] += 1
                yield item

        return wrapper

    def _block_generator(self, fn):
        timed = self._leaf("model.block_generator", fn)
        draw, depth, counts = self.draw, self.draw_depth, self.counts

        def wrapper(*args, **kwargs):
            if depth[0]:
                return timed(*args, **kwargs)
            start = perf_counter()
            result = timed(*args, **kwargs)
            draw[2] += perf_counter() - start
            counts[1] += 1
            return result

        return wrapper

    def _write(self, fn):
        # Counted only: the write is part of cli.main's own time.
        def wrapper(text, out):
            self.write_bytes += len(text if text.isascii() else text.encode())
            return fn(text, out)

        return wrapper

    # -- results ------------------------------------------------------------

    def _span_sum(self, name, field):
        return sum(getattr(s, field) for s in self.spans if s.name == name)

    def _span_calls(self, name):
        return sum(1 for s in self.spans if s.name == name)

    def layer_self_times(self):
        """Self time per layer; together they cover every wrapped call once."""
        out = {name: self._span_sum(name, "self_s")
               for name in set(SPANS.values())}
        out["model.params"] = self.leaves["model.params"][1]
        out["model.draw"] = self.draw[2]
        out["bounds"] = sum(t for name, (_, t) in self.leaves.items()
                            if name.startswith("bounds."))
        return out

    def metrics(self, wall_s, untraced_wall_s, scheme_z):
        """Per-layer metric values for a traced pass that took ``wall_s``."""
        selfs = self.layer_self_times()
        bound_calls = sum(n for name, (n, _) in self.leaves.items()
                          if name.startswith("bounds."))
        groups = {"low": 0, "middle": 0, "high": 0, "time_sharing": 0}
        for label, n in self.branches.items():
            if label in BRANCH_GROUPS:
                groups[BRANCH_GROUPS[label]] += n
        moment_calls = self._span_calls("mc.moment")
        return {
            "model.params.calls": self.leaves["model.params"][0],
            "model.params.self_s": selfs["model.params"],
            "model.draw.rows": self.draw[0],
            "model.draw.bytes": self.draw[1],
            "model.draw.s": selfs["model.draw"],
            "bounds.calls": bound_calls,
            "bounds.self_s": selfs["bounds"],
            "bounds.ns_per_call": (selfs["bounds"] / bound_calls * 1e9
                                   if bound_calls else 0.0),
            **{f"bounds.branch.{g}": n for g, n in groups.items()},
            "gaps.rows": self._span_sum("gaps.evaluate", "size"),
            "gaps.evaluate.self_s": selfs["gaps.evaluate"],
            "gaps.finalize.s": selfs["gaps.finalize"],
            "gaps.audit.points": self._span_sum("gaps.audit", "points"),
            "gaps.audit.self_s": selfs["gaps.audit"],
            "gaps.serialize.bytes": self._span_sum("gaps.serialize", "size"),
            "gaps.serialize.s": selfs["gaps.serialize"],
            "mc.moment.calls": moment_calls,
            "mc.moment.hit_ratio": (self.moment_hits / moment_calls
                                    if moment_calls else 0.0),
            "mc.moment.self_s": selfs["mc.moment"],
            "mc.mi.calls": self._span_calls("mc.mi"),
            "mc.mi.s": selfs["mc.mi"],
            "mc.decomposition.self_s": selfs["mc.decomposition"],
            "mc.estimate.self_s": selfs["mc.estimate"],
            "mc.scheme_z.mean": fmean(scheme_z) if scheme_z else 0.0,
            "mc.scheme_z.sd": pstdev(scheme_z) if len(scheme_z) > 1 else 0.0,
            "cli.self_s": selfs["cli.main"],
            "cli.write.bytes": self.write_bytes,
            "trace.overhead_s": wall_s - untraced_wall_s,
            "bench.other_s": wall_s - sum(selfs.values()),
        }
