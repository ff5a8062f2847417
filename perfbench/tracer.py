"""Span tracing of coneorder, installed from outside the package.

The tracer rebinds the public functions and methods of each layer (the
package's modules) to wrappers that record one span per call: name, start,
end, parent span and job id.  Every module-level alias of a wrapped function
is rebound too, because the modules import each other's functions by name
(``coneorder.order.double_description``, ``coneorder.iso.cone_point``, ...);
rebinding only the defining module would let those calls escape the trace.

Spans live in flat arrays in memory for the whole run and are written out
once, when the run ends.  ``uninstall`` restores every original binding, so
one process can alternate traced and untraced rounds.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, attribute or "Class.method", span name).  Hot vector helpers of
# linalg (vec_add, vec_dot, normalize_ray, ...) stay unwrapped: their cost is
# the caller's self time, and a span per call would dwarf the work.
_INSTRUMENT = [
    ("coneorder.cli", "main", "cli.main"),
    ("coneorder.cli", "run_full_battery", "cli.run_full_battery"),
    ("coneorder.serialize", "load_json", "serialize.parse"),
    ("coneorder.serialize", "parse_cone", "serialize.parse"),
    ("coneorder.serialize", "parse_iso", "serialize.parse"),
    ("coneorder.serialize", "parse_bijection", "serialize.parse"),
    ("coneorder.serialize", "parse_points", "serialize.parse"),
    ("coneorder.serialize", "parse_expr", "serialize.parse"),
    ("coneorder.serialize", "parse_matrix", "serialize.parse"),
    ("coneorder.serialize", "canonical_dumps", "serialize.dumps"),
    ("coneorder.serialize", "cone_to_json", "serialize.dumps"),
    ("coneorder.serialize", "iso_to_json", "serialize.dumps"),
    ("coneorder.iso", "check_order_iso_sampled", "iso.battery"),
    ("coneorder.iso", "eval_iso", "iso.eval"),
    ("coneorder.iso", "invert_iso", "iso.invert"),
    ("coneorder.iso", "LinearIso.eval", "iso.eval"),
    ("coneorder.iso", "LinearIso.invert", "iso.invert"),
    ("coneorder.iso", "AffineIso.eval", "iso.eval"),
    ("coneorder.iso", "AffineIso.invert", "iso.invert"),
    ("coneorder.iso", "DiagonalIso.eval", "iso.eval"),
    ("coneorder.iso", "DiagonalIso.invert", "iso.invert"),
    ("coneorder.iso", "ProductLiftIso.eval", "iso.eval"),
    ("coneorder.iso", "ProductLiftIso.invert", "iso.invert"),
    ("coneorder.iso", "ComposeIso.eval", "iso.eval"),
    ("coneorder.iso", "ComposeIso.invert", "iso.invert"),
    ("coneorder.iso", "check_parallelogram", "iso.identities"),
    ("coneorder.iso", "check_additivity", "iso.identities"),
    ("coneorder.iso", "extract_g_r", "iso.identities"),
    ("coneorder.iso", "halfline_image_check", "iso.identities"),
    ("coneorder.iso", "check_positively_homogeneous", "iso.identities"),
    ("coneorder.iso", "check_affine_on", "iso.affine_fit"),
    ("coneorder.iso", "make_linear_iso", "iso.make"),
    ("coneorder.iso", "identity_iso", "iso.make"),
    ("coneorder.iso", "make_affine_iso", "iso.make"),
    ("coneorder.iso", "make_diagonal_iso", "iso.make"),
    ("coneorder.iso", "make_product_lift", "iso.make"),
    ("coneorder.iso", "compose_isos", "iso.make"),
    ("coneorder.cones", "cone_from_generators", "cones.build"),
    ("coneorder.cones", "cone_from_facets", "cones.build"),
    ("coneorder.cones", "orthant", "cones.build"),
    ("coneorder.cones", "square_cone", "cones.build"),
    ("coneorder.cones", "interval_cone", "cones.build"),
    ("coneorder.cones", "double_description", "cones.dd"),
    ("coneorder.cones", "PolyhedralCone.contains", "cones.contains"),
    ("coneorder.cones", "PolyhedralCone.leq", "cones.leq"),
    ("coneorder.cones", "PolyhedralCone.tight_facets", "cones.query"),
    ("coneorder.cones", "PolyhedralCone.is_extreme_vector", "cones.query"),
    ("coneorder.cones", "PolyhedralCone.caratheodory_decompose", "cones.query"),
    ("coneorder.order", "classify_engaged", "order.classify"),
    ("coneorder.order", "hypothesis_check", "order.classify"),
    ("coneorder.order", "disengaged_split", "order.classify"),
    ("coneorder.order", "supremum", "order.bounds"),
    ("coneorder.order", "infimum", "order.bounds"),
    ("coneorder.order", "eval_infsup", "order.bounds"),
    ("coneorder.order", "interval_sample", "order.interval_sample"),
    ("coneorder.order", "extreme_halfline_check", "order.halfline"),
    ("coneorder.order", "is_totally_ordered", "order.other"),
    ("coneorder.order", "order_unit_norm", "order.other"),
    ("coneorder.lp", "solve_lp", "lp.solve_lp"),
    ("coneorder.lp", "positive_combination", "lp.positive_combination"),
    ("coneorder.linalg", "rref", "linalg.rref"),
    ("coneorder.linalg", "mat_rank", "linalg.solve"),
    ("coneorder.linalg", "solve", "linalg.solve"),
    ("coneorder.linalg", "kernel_basis", "linalg.solve"),
    ("coneorder.linalg", "invert_matrix", "linalg.solve"),
    ("coneorder.linalg", "independent_subset", "linalg.solve"),
    ("coneorder.sampling", "rng_for", "sampling.rng_for"),
    ("coneorder.sampling", "cone_point", "sampling.cone_point"),
    ("coneorder.sampling", "incomparable_pair", "sampling.incomparable_pair"),
    ("coneorder.sampling", "unimodular_matrix", "sampling.other"),
    ("coneorder.psd", "eigh_jacobi", "psd.eigh_jacobi"),
    ("coneorder.psd", "psd_leq", "psd.psd_leq"),
    ("coneorder.psd", "identity_sup_check", "psd.supcheck"),
    ("coneorder.psd", "infsup_approx", "psd.approx"),
    ("coneorder.psd", "conjugation_iso", "psd.conj"),
    ("coneorder.psd", "ConjugationMap.apply", "psd.conj"),
    ("coneorder.psd", "ConjugationMap.invert", "psd.conj"),
    ("coneorder.psd", "engagement_witness", "psd.witness"),
    ("coneorder.psd", "lambda_min", "psd.other"),
    ("coneorder.psd", "lambda_max", "psd.other"),
    ("coneorder.psd", "rank_one_projection", "psd.other"),
]


def _note_dd(tracer, idx, args, kwargs, out):
    lineality, rays = out
    constraints = args[1] if len(args) > 1 else kwargs["constraints"]
    tracer.notes[idx] = (len(constraints), len(rays) + len(lineality))


def _note_battery(tracer, idx, args, kwargs, out):
    tracer.notes[idx] = (out.samples_run,
                         len(out.order_preserving_violations) + len(out.inverse_violations))


def _note_pair(tracer, idx, args, kwargs, out):
    tracer.notes[idx] = (0 if out is None else 1,)


def _note_fit(tracer, idx, args, kwargs, out):
    points = args[1] if len(args) > 1 else kwargs["points"]
    tracer.notes[idx] = (len(points),)


# Per-call facts that only the arguments or result show.
_NOTES = {
    "double_description": _note_dd,
    "check_order_iso_sampled": _note_battery,
    "incomparable_pair": _note_pair,
    "check_affine_on": _note_fit,
}


class Tracer:
    """In-memory span recorder plus the rebinding that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("q")
        self.end = array("q")
        self.notes: dict[int, tuple] = {}
        self.job_id = -1
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, note=None):
        nid = self._name_id(name)
        names, parents, jobs = self.name, self.parent, self.job
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(tracer.job_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                note(tracer, idx, args, kwargs, out)
            return out

        return traced

    def install(self):
        """Rebind every instrumented function, method and alias."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for modname, attr, span in _INSTRUMENT:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(span, orig))
                continue
            orig = getattr(mod, attr)
            wrappers[id(orig)] = (orig, self.wrap(span, orig, _NOTES.get(attr)))
        for modname, mod in list(sys.modules.items()):
            if modname != "coneorder" and not modname.startswith("coneorder."):
                continue
            for key, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, hit[1])

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def write(self, path, job_bounds_ns) -> None:
        """All spans, span names and job intervals as one .npz file."""
        arrs = self.arrays()
        note_idx = np.array(sorted(self.notes), dtype=np.int64)
        width = max((len(v) for v in self.notes.values()), default=0)
        note_val = np.zeros((len(note_idx), width), dtype=np.int64)
        for row, i in enumerate(note_idx):
            vals = self.notes[int(i)]
            note_val[row, :len(vals)] = vals
        np.savez(path, names=np.array(self.names), note_index=note_idx, note_values=note_val,
                 job_bounds_ns=np.asarray(job_bounds_ns, dtype=np.int64), **arrs)


class SpanTable:
    """Per-name aggregates over recorded spans.

    Self time is a span's duration minus the durations of its direct child
    spans.  "Outer" spans are those with no ancestor of the same name; their
    durations never overlap, so their sum is the layer's inclusive time and
    their count the number of calls into the layer.
    """

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.notes = tracer.notes
        self.name = a["name"]
        self.parent = a["parent"]
        self.job = a["job"]
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64) * 1e-9
        self.dur = dur
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur)) if len(dur) else np.zeros(0)
        self.self_s = dur - child
        same_above = np.zeros(len(dur), dtype=bool)
        anc = self.parent.copy()
        while np.any(anc >= 0):
            live = anc >= 0
            same_above[live] |= self.name[anc[live]] == self.name[live]
            anc[live] = self.parent[anc[live]]
        self.outer = ~same_above

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(np.count_nonzero(self.mask(name) & self.outer))

    def all_calls(self, name: str) -> int:
        return int(np.count_nonzero(self.mask(name)))

    def incl_s(self, name: str) -> float:
        return float(self.dur[self.mask(name) & self.outer].sum())

    def self_total_s(self, name: str) -> float:
        return float(self.self_s[self.mask(name)].sum())

    def notes_of(self, name: str) -> list[tuple]:
        idx = np.flatnonzero(self.mask(name))
        return [self.notes[int(i)] for i in idx if int(i) in self.notes]

    def under(self, name: str, ancestor: str) -> int:
        """Number of `name` spans that have an `ancestor` span above them."""
        if ancestor not in self.names or name not in self.names:
            return 0
        target = self.names.index(ancestor)
        idx = np.flatnonzero(self.mask(name))
        anc = self.parent[idx]
        found = np.zeros(len(idx), dtype=bool)
        while np.any(anc >= 0):
            live = anc >= 0
            found[live] |= self.name[anc[live]] == target
            anc[live] = self.parent[anc[live]]
        return int(np.count_nonzero(found))

    def root_time_in_jobs(self) -> float:
        """Time covered by top-level spans that belong to a job."""
        roots = (self.parent < 0) & (self.job >= 0)
        return float(self.dur[roots].sum())
