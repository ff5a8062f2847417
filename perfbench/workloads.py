"""The benchmark's four workloads: seeded inputs, timed jobs and their checks.

A workload turns a seed into one *round*: a fixed-shape list of jobs whose
kinds, cones and sizes are the same for every seed, while the seed draws the
numbers inside them (matrices, points, battery seeds, moment-curve
parameters).  Every run repeats whole rounds, so each run sees the same job
mix and the per-layer counts of a round repeat exactly for a seed.

A job's ``run`` is the timed user-level call.  It reaches the library only
through module attributes looked up at call time (``co.supremum``,
``cli_mod.main``), so the tracer's rebinding sees every call.  ``finish``
turns the raw return value into a comparable result and ``check`` decides
it; both run outside the timed region.
"""
from __future__ import annotations

import importlib.util
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import coneorder as co
import coneorder.cli as cli_mod
import coneorder.iso as iso_mod
import coneorder.sampling as sampling_mod
import coneorder.serialize as ser_mod
from coneorder.errors import OutOfDomain, UndefinedLattice
from coneorder.linalg import independent_subset, mat_vec
from coneorder.sampling import unimodular_matrix

ROOT = Path(__file__).resolve().parent.parent


def _identity(raw):
    return raw


@dataclass
class Job:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    finish: Callable[[object], object] = _identity
    # Seeded input digest; equal digests mean equal inputs.
    inputs: str = ""


@dataclass
class Round:
    jobs: list[Job]
    warmup: Job
    notes: dict = field(default_factory=dict)


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"perfbench:{seed}:{tag}")


def _vec(v) -> str:
    return ",".join(str(c) for c in v)


# ---------------------------------------------------------------------------
# Cone families shared by the exact workloads


def polygon_cone(ts):
    """Cone over an inscribed polygon with rational vertices (tangent
    half-angle parametrization of the circle)."""
    gens = []
    for t in ts:
        t = Fraction(t)
        d = 1 + t * t
        gens.append(((1 - t * t) / d, 2 * t / d, Fraction(1)))
    return co.cone_from_generators(3, gens)


_POLYGON_PARAMS = {
    4: (0, 1, -1, 3),
    5: (0, 1, -1, 3, -3),
    6: (0, 1, -1, 3, -3, Fraction(1, 3)),
    7: (0, 1, -1, 3, -3, Fraction(1, 3), Fraction(-1, 3)),
    8: (0, 1, -1, 3, -3, Fraction(1, 3), Fraction(-1, 3), 7),
}


def product_cone(a, b):
    gens = [tuple(g) + (Fraction(0),) * b.dim for g in a.generators]
    gens += [(Fraction(0),) * a.dim + tuple(g) for g in b.generators]
    return co.cone_from_generators(a.dim + b.dim, gens)


def acceptance_cones():
    """The ten all-engaged cones of the linearity desk test."""
    poly = {m: polygon_cone(_POLYGON_PARAMS[m]) for m in range(4, 9)}
    sq = co.square_cone()
    return [sq, poly[4], poly[5], poly[6], poly[7], poly[8],
            product_cone(sq, poly[4]), product_cone(poly[5], sq),
            product_cone(sq, sq), product_cone(poly[6], poly[4])]


def cyclic_generators(rng: random.Random, dim: int, n: int):
    """Cone over a cyclic polytope: n points on the moment curve.

    Any n distinct parameters give the same face lattice, so the facet count
    is fixed by (dim, n) while the seed moves the coordinates.
    """
    ts = sorted(rng.sample(range(-6, 7), n))
    return [tuple([t ** k for k in range(1, dim)] + [1]) for t in ts]


def box_generators(rng: random.Random, dim: int, n: int):
    """Cone over n random lattice points of a box at height 2."""
    return [tuple([rng.randint(-3, 3) for _ in range(dim - 1)] + [2]) for _ in range(n)]


def simplicial_generators(rng: random.Random, dim: int):
    """dim linearly independent generators with a positive last coordinate."""
    while True:
        gens = [tuple([rng.randint(-2, 2) for _ in range(dim - 1)] + [rng.randint(1, 3)])
                for _ in range(dim)]
        if np.linalg.matrix_rank(np.array(gens, dtype=float)) == dim:
            return gens


def with_redundant(rng: random.Random, gens, extra: int):
    """Append nonnegative integer combinations of the generators, which the
    cone constructors must recognise as redundant."""
    out = list(gens)
    for _ in range(extra):
        i, j = rng.sample(range(len(gens)), 2)
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        out.append(tuple(a * x + b * y for x, y in zip(gens[i], gens[j])))
    return out


# ---------------------------------------------------------------------------
# checkiso


SAMPLES = 2000
PWL_DOUBLING = co.PiecewiseLinearMap(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(2))))

# Forged specs run on these acceptance cones: square, octagon cone, dim-6 product.
_FORGED_CONES = (0, 5, 9)


def forged_nonlinear(cone, rng: random.Random):
    """Counterfeit candidate on an all-engaged cone: a diagonal map over an
    independent subset of the generators.  It is an order-isomorphism of that
    simplicial subcone only, so the battery must refute it."""
    gens = list(cone.generators)
    rng.shuffle(gens)
    frame = tuple(gens[i] for i in independent_subset(gens))
    maps = tuple(PWL_DOUBLING if k % 2 == 0 else co.OddPowerMap(3) for k in range(len(frame)))
    return iso_mod.DiagonalIso(cone, frame, maps, frame, cone)


def forward_violation(spec, x1, x2) -> bool:
    """True iff (x1, x2) refutes that spec preserves or reflects the order."""
    src, tgt = spec.source_cone, spec.target_cone
    try:
        y1, y2 = spec.eval(x1), spec.eval(x2)
    except OutOfDomain:
        return True
    d1 = tuple(a - b for a, b in zip(x1, spec.source_base))
    d2 = tuple(a - b for a, b in zip(x2, spec.source_base))
    if src.leq(x1, x2):
        return not (spec.in_target(y1) and tgt.leq(y1, y2))
    if not src.leq(x2, x1) and src.contains(d1) and src.contains(d2):
        return tgt.leq(y1, y2) or tgt.leq(y2, y1)
    return False


def inverse_violation(spec, y1, y2) -> bool:
    """True iff the target pair y1 <= y2 refutes the inverse map."""
    if not spec.target_cone.leq(y1, y2):
        return False
    try:
        r1, r2 = spec.invert(y1), spec.invert(y2)
    except OutOfDomain:
        return True
    if spec.exact:
        return not spec.source_cone.leq(r1, r2) or spec.eval(r2) != y2 or spec.eval(r1) != y1
    if not iso_mod._leq_tol(spec.source_cone, r1, r2):
        return True
    back = [float(a) - float(b) for a, b in zip(spec.eval(r2), y2)]
    scale = max(1.0, max(abs(float(c)) for c in y2))
    return max(abs(c) for c in back) > 1e-6 * scale


def _check_iso_report(spec, expected: int, result) -> bool:
    code, text = result
    rep = json.loads(text)
    if code != expected or rep.get("exit_code") != code or rep.get("samples") != SAMPLES:
        return False
    if rep.get("command") != "check-iso" or rep["battery"]["samples_run"] != SAMPLES:
        return False
    battery = rep["battery"]
    fwd = [[ser_mod.parse_vec(v) for v in pair] for pair in battery["order_preserving_violations"]]
    inv = [[ser_mod.parse_vec(v) for v in pair] for pair in battery["inverse_violations"]]
    if expected == 4:
        return (rep["verdict"] == "violation"
                and all(forward_violation(spec, *p) for p in fwd)
                and all(inverse_violation(spec, *p) for p in inv))
    if battery["verdict"] != "PassedSampling" or fwd or inv:
        return False
    return rep["affine"]["affine"] is (expected == 0)


def build_checkiso(seed: int, workdir: Path) -> Round:
    rng = _rng(seed, "checkiso")
    cases = []  # (kind, label, cone, spec, expected exit code)
    # Identity and a unimodular image on each dim-3 cone, one of the two on
    # each dim-6 product: the median job then sits inside the cluster of
    # dim-3 linear jobs, not on the edge between two clusters.
    for ci, cone in enumerate(acceptance_cones()):
        if cone.dim == 3 or ci % 2 == 0:
            cases.append(("linear_identity", f"identity/c{ci}", cone, co.identity_iso(cone), 0))
        if cone.dim == 3 or ci % 2 == 1:
            u = unimodular_matrix(rng, cone.dim)
            image = co.cone_from_generators(
                cone.dim, [mat_vec(u, g) for g in cone.generators])
            cases.append(("linear_unimodular", f"unimodular/c{ci}", cone,
                          co.make_linear_iso(u, cone, image), 0))
    for name, cone in (("orthant2", co.orthant(2)), ("orthant3", co.orthant(3)),
                       ("interval", co.interval_cone())):
        ray = next(r.ray_index for r in co.classify_engaged(cone) if not r.engaged)
        split = co.disengaged_split(cone, ray)
        spec = co.make_product_lift(cone, ray, PWL_DOUBLING, co.identity_iso(split.subcone))
        cases.append(("product_lift", f"lift/{name}", cone, spec, 1))
    for d in (2, 3, 4):
        cone = co.orthant(d)
        spec = co.make_diagonal_iso(cone, list(cone.generators), [co.OddPowerMap(3)] * d)
        cases.append(("odd_power", f"oddpower/orthant{d}", cone, spec, 1))
    cones = acceptance_cones()
    for ci in _FORGED_CONES:
        cases.append(("forged", f"forged/c{ci}", cones[ci], forged_nonlinear(cones[ci], rng), 4))
    rng.shuffle(cases)

    jobs = []
    for i, (kind, label, cone, spec, expected) in enumerate(cases):
        battery_seed = rng.randrange(1 << 20)
        out = workdir / f"checkiso_{i}_report.json"
        if kind == "forged":
            # The iso-spec JSON cannot express a diagonal map over a partial
            # frame (make_diagonal_iso refuses non-simplicial sources), so
            # forged jobs enter check-iso below its parser, at the battery.
            run = _forged_job(cone, spec, battery_seed, out)
            inputs = f"{label}:{battery_seed}:{[_vec(v) for v in spec.source_frame]}"
        else:
            cone_path = workdir / f"checkiso_{i}_cone.json"
            iso_path = workdir / f"checkiso_{i}_iso.json"
            cone_path.write_text(json.dumps(ser_mod.cone_to_json(cone)))
            iso_text = json.dumps(ser_mod.iso_to_json(spec))
            iso_path.write_text(iso_text)
            argv = ["check-iso", str(cone_path), str(iso_path), "--samples", str(SAMPLES),
                    "--seed", str(battery_seed), "--out", str(out)]
            run = _cli_job(argv)
            inputs = f"{label}:{battery_seed}:{iso_text}"
        jobs.append(Job(kind, label, run,
                        check=lambda res, spec=spec, exp=expected: _check_iso_report(spec, exp, res),
                        finish=lambda code, out=out: (code, out.read_bytes()),
                        inputs=inputs))
    warm = next(j for j in jobs if j.label == "identity/c0")
    return Round(jobs, warm, {"samples": SAMPLES})


def _cli_job(argv):
    def run():
        return cli_mod.main(argv)
    return run


def _forged_job(cone, spec, battery_seed, out: Path):
    def run():
        report = cli_mod.run_full_battery(cone, spec, SAMPLES, battery_seed)
        report["command"] = "check-iso"
        out.write_text(ser_mod.canonical_dumps(report), encoding="utf-8")
        return report["exit_code"]
    return run


# ---------------------------------------------------------------------------
# cones


# (family, dim, number of points, jobs per round); facet counts run from
# 3 to 77.  The two dim-7 strata with 10 points make a cluster of ten jobs
# just below the two 77-facet jobs, so the tail percentile falls inside it.
_CONE_STRATA = [
    ("cyclic", 3, 4, 2), ("cyclic", 3, 6, 2), ("cyclic", 3, 8, 2),
    ("cyclic", 4, 6, 2), ("cyclic", 4, 8, 2),
    ("cyclic", 5, 7, 2), ("cyclic", 5, 9, 2),
    ("cyclic", 6, 8, 2), ("cyclic", 6, 9, 2),
    ("cyclic", 7, 9, 2), ("cyclic", 7, 10, 5),
    ("box", 3, 6, 2), ("box", 4, 7, 2), ("box", 5, 8, 2), ("box", 6, 9, 2), ("box", 7, 10, 5),
    ("simplicial", 3, 3, 2), ("simplicial", 4, 4, 2), ("simplicial", 5, 5, 2),
    ("simplicial", 6, 6, 2), ("simplicial", 7, 7, 2),
    ("cyclic", 7, 11, 2),
]


def _cone_study(dim, gens, extreme_direction: bool, point_seed: int):
    def run():
        cone = co.cone_from_generators(dim, gens)
        again = co.cone_from_facets(dim, cone.facets)
        reports = co.classify_engaged(cone)
        verdict = co.hypothesis_check(cone)
        g = cone.generators
        direction = g[0] if extreme_direction else tuple(a + b for a, b in zip(g[0], g[-1]))
        apex = sampling_mod.cone_point(cone, random.Random(point_seed))
        extreme = co.extreme_halfline_check(cone, apex, direction, n=8, seed=point_seed)
        return cone, again, reports, verdict, extreme
    return run


def _finish_study(raw):
    cone, again, reports, verdict, extreme = raw
    return (cone.generators, cone.facets, again == cone,
            tuple((r.engaged, r.certificate) for r in reports),
            (cone.generating, verdict.holds, verdict.disengaged_witness), extreme)


def _check_study(family: str, extreme_direction: bool, raw_gens, result) -> bool:
    gens, facets, round_trip, certs, (generating, holds, witness), extreme = result
    if not round_trip or extreme is not extreme_direction or len(certs) != len(gens):
        return False
    if not all(any(c != 0 for c in g) for g in gens):
        return False
    # Every input generator lies in the cone: <h, g> >= 0 on every facet.
    if any(sum(a * b for a, b in zip(h, g)) < 0 for h in facets for g in raw_gens):
        return False
    for i, (engaged, cert) in enumerate(certs):
        others = [gens[j] for j in range(len(gens)) if j != i]
        if engaged:
            recon = [Fraction(0)] * len(gens[i])
            for j, c in cert.coefficients:
                if j == i:
                    return False
                recon = [r + c * x for r, x in zip(recon, gens[j])]
            if tuple(recon) != gens[i]:
                return False
        else:
            phi = cert.functional
            if any(sum(a * b for a, b in zip(phi, o)) != 0 for o in others):
                return False
            if sum(a * b for a, b in zip(phi, gens[i])) == 0:
                return False
    all_engaged = all(e for e, _ in certs)
    if holds is not (generating and all_engaged) or (witness is None) is not all_engaged:
        return False
    return family != "simplicial" or not any(e for e, _ in certs)


def build_cones(seed: int, workdir: Path) -> Round:
    """Cone jobs on fixed cones presented differently by each seed.

    A cone job's DD passes, and the one inside ``interval_sample`` most of
    all, can run ten times longer on one cone than on a similar one, so
    cones drawn per seed made rounds differ by up to 2x between seeds.  The
    cones are therefore drawn once, independent of the seed; the seed draws
    the redundant generators added to each, the input order, the apex and
    the sampling seed of the half-line check.
    """
    rng = _rng(seed, "cones")
    shape_rng = _rng(0, "cones-shapes")
    jobs = []
    k = 0
    for family, dim, n, repeats in _CONE_STRATA:
        for r in range(repeats):
            if family == "cyclic":
                gens = with_redundant(rng, cyclic_generators(shape_rng, dim, n), 2)
            elif family == "box":
                gens = with_redundant(rng, box_generators(shape_rng, dim, n), 2)
            else:
                gens = with_redundant(rng, simplicial_generators(shape_rng, dim), 2)
            rng.shuffle(gens)
            extreme_direction = k % 2 == 0
            k += 1
            point_seed = rng.randrange(1 << 20)
            jobs.append(Job(
                family, f"{family}/d{dim}n{n}/{r}",
                _cone_study(dim, gens, extreme_direction, point_seed),
                check=lambda res, f=family, e=extreme_direction, g=gens: _check_study(f, e, g, res),
                finish=_finish_study,
                inputs=f"{dim}:{[_vec(g) for g in gens]}:{extreme_direction}:{point_seed}"))
    rng.shuffle(jobs)
    warm = next(j for j in jobs if j.label == "cyclic/d3n4/0")
    return Round(jobs, warm)


# ---------------------------------------------------------------------------
# lattice


# (family, dim, points, jobs per round, point counts).  dim 7 stays out: one
# 3-point supremum there takes seconds.
_LATTICE_CONES = [
    ("simplicial", 2, 2, 6, (2, 3, 4)), ("simplicial", 3, 3, 6, (2, 3, 4)),
    ("cyclic", 3, 5, 6, (2, 3, 4)), ("cyclic", 3, 8, 6, (2, 3, 4)),
    ("simplicial", 4, 4, 6, (2, 3, 4)), ("cyclic", 4, 6, 6, (2, 3, 4)),
    ("cyclic", 4, 8, 6, (2, 3, 4)),
    ("cyclic", 5, 7, 6, (2, 3, 4)), ("cyclic", 5, 8, 6, (2, 3, 4)),
    ("simplicial", 6, 6, 6, (2, 3, 4)), ("cyclic", 6, 8, 6, (2, 3, 4)),
    ("cyclic", 6, 9, 6, (2, 3)), ("cyclic", 6, 10, 6, (2, 3)),
]

_ORACLES = None


def _oracles():
    """tests/oracles.py: brute-force vertex enumeration independent of DD."""
    global _ORACLES
    if _ORACLES is None:
        spec = importlib.util.spec_from_file_location("coneorder_oracles",
                                                      ROOT / "tests" / "oracles.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        _ORACLES = mod
    return _ORACLES


def _bound_job(cone, kind: str, payload):
    if kind == "supremum":
        return lambda: co.supremum(cone, payload)
    if kind == "infimum":
        return lambda: co.infimum(cone, payload)

    def run():
        try:
            return co.eval_infsup(cone, payload)
        except UndefinedLattice as exc:
            return exc
    return run


def _finish_bound(raw):
    if isinstance(raw, UndefinedLattice):
        detail = "no_upper_bound" if raw.witnesses is None else "no_least_upper_bound"
        return ("undefined", raw.path, detail, raw.witnesses)
    if isinstance(raw, tuple):
        return ("value", raw)
    return ("sup", raw.outcome, raw.value, raw.witnesses)


def _is_bound(cone, z, pts, upper: bool) -> bool:
    return all(cone.leq(p, z) if upper else cone.leq(z, p) for p in pts)


def _check_bound_result(cone, pts, upper: bool, outcome, value, witnesses) -> bool:
    """Certificate check, plus the brute-force oracle on dims 2-3."""
    if cone.dim <= 3:
        verts = _oracles().bound_vertices_bruteforce(cone, pts, upper=upper)
        if len(verts) == 1:
            return outcome == "exists" and value == verts[0]
        if not verts:
            return outcome == "no_upper_bound"
        return outcome == "no_least_upper_bound" and list(witnesses) == verts[:2]
    if outcome == "exists":
        return _is_bound(cone, value, pts, upper)
    if outcome == "no_least_upper_bound":
        w1, w2 = witnesses
        return (_is_bound(cone, w1, pts, upper) and _is_bound(cone, w2, pts, upper)
                and not cone.leq(w1, w2) and not cone.leq(w2, w1))
    return False


def _check_expr(cone, expr, result) -> bool:
    """Walk the tree: every evaluated node must be a checked bound of its
    children's values, and an undefined node must carry valid witnesses."""
    def value_of(node, path):
        if node.kind == "leaf":
            return node.vec
        vals = [value_of(c, path + (i,)) for i, c in enumerate(node.children)]
        if any(v is None for v in vals):
            return None
        upper = node.kind == "sup"
        res = co.supremum(cone, vals) if upper else co.infimum(cone, vals)
        if result[0] == "undefined" and path == result[1]:
            ok = (not res.exists and res.outcome == result[2]
                  and _check_bound_result(cone, vals, upper, result[2], None, result[3]))
            checked.append(ok)
            return None
        checked.append(res.exists and _check_bound_result(cone, vals, upper, "exists",
                                                          res.value, None))
        return res.value if res.exists else None

    checked: list[bool] = []
    top = value_of(expr, ())
    if result[0] == "undefined":
        return bool(checked) and all(checked) and top is None
    return all(checked) and top == result[1]


def interior_point(cone, rng: random.Random):
    """A cone point with every generator weighted 1..4, so it lies in the
    interior and bound polyhedra are generic."""
    out = [0] * cone.dim
    for g in cone.generators:
        c = rng.randint(1, 4)
        out = [a + c * b for a, b in zip(out, g)]
    return tuple(out)


def build_lattice(seed: int, workdir: Path) -> Round:
    """Bound jobs whose point sets are seeded translates of fixed shapes.

    DD time on the bound polyhedron swings several-fold with the shape of the
    point set and the constraint order (the 30- and 42-facet dim-6 cones most
    of all), but a translate x + U has the same face lattice and DD path as U.
    So the cones and the point offsets are drawn once, independent of the
    seed, and the seed draws the cone point x every set is moved by: each
    seed measures the same DD work on different numbers.
    """
    rng = _rng(seed, "lattice")
    shape_rng = _rng(0, "lattice-shapes")
    jobs = []
    for family, dim, n, count, sizes in _LATTICE_CONES:
        if family == "cyclic":
            gens = cyclic_generators(shape_rng, dim, n)
        else:
            gens = simplicial_generators(shape_rng, dim)
        cone = co.cone_from_generators(dim, gens)
        for r in range(count):
            kind = ("supremum", "infimum", "eval_infsup")[r % 3]
            k = sizes[r % len(sizes)]
            offsets = [interior_point(cone, shape_rng) for _ in range(k)]
            x = interior_point(cone, rng)
            pts = [tuple(a + b for a, b in zip(x, e)) for e in offsets]
            label = f"{kind}/{family}/d{dim}n{n}/k{k}/{r}"
            if kind == "eval_infsup":
                outer, inner = ((co.sup_expr, co.inf_expr) if r % 2 == 0
                                else (co.inf_expr, co.sup_expr))
                payload = outer(co.leaf(pts[0]), inner(*[co.leaf(p) for p in pts[1:]]))
                check = (lambda res, c=cone, e=payload: _check_expr(c, e, res))
            else:
                payload = pts
                check = (lambda res, c=cone, p=pts, up=(kind == "supremum"):
                         _check_bound_result(c, p, up, res[1], res[2], res[3]))
            jobs.append(Job(kind, label, _bound_job(cone, kind, payload), check,
                            finish=_finish_bound,
                            inputs=f"{label}:{[_vec(g) for g in gens]}:{[_vec(p) for p in pts]}"))
    rng.shuffle(jobs)
    warm = next(j for j in jobs if j.label.startswith("supremum/cyclic/d3n5"))
    return Round(jobs, warm)


# ---------------------------------------------------------------------------
# psd


# eigh_jacobi calls per job, sized so every job is at least ~1 ms.
_JACOBI_BATCH = {2: 25, 3: 12, 4: 6, 5: 3, 6: 2, 7: 1, 8: 1}
_WITNESS_BATCH = 40
_CONJ_PAIRS = 20


def _unit(rng, n):
    x = rng.normal(size=n)
    return x / np.linalg.norm(x)


def _spd(rng, n):
    g = rng.normal(size=(n, n))
    return np.eye(n) + g @ g.T


def build_psd(seed: int, workdir: Path) -> Round:
    rng = np.random.default_rng([seed, 7])
    jobs = []
    for n in range(2, 9):
        xs = [_unit(rng, n) for _ in range(_WITNESS_BATCH)]
        jobs.append(Job(
            "witness", f"witness/n{n}",
            lambda xs=xs: tuple(co.engagement_witness(x).residual for x in xs),
            check=lambda res: all(r <= 1e-10 for r in res),
            inputs=np.array(xs).tobytes().hex()))
    for n in range(2, 9):
        b = _spd(rng, n)
        s = int(rng.integers(1 << 20))
        jobs.append(Job(
            "supcheck", f"supcheck/n{n}",
            lambda b=b, n=n, s=s: _sup_result(co.identity_sup_check(n, b, m=40, seed=s)),
            check=lambda res: res[0] == co.psd.CONSISTENT,
            inputs=f"{b.tobytes().hex()}:{s}"))
    flagged = np.diag([1.0, 0.5])
    s = int(rng.integers(1 << 20))
    jobs.append(Job(
        "supcheck", "supcheck/not_upper_bound",
        lambda s=s: _sup_result(co.identity_sup_check(2, flagged, m=200, seed=s)),
        check=lambda res: _check_flagged(flagged, res),
        inputs=str(s)))
    for n in range(2, 9):
        a = _spd(rng, n)
        pairs = []
        while len(pairs) < _CONJ_PAIRS:
            p, q = rng.normal(size=(n, n)), rng.normal(size=(n, n))
            p, q = (p + p.T) / 2, (q + q.T) / 2
            lam = float(np.linalg.eigvalsh(q - p)[0])
            if abs(lam) >= 1e-6:  # stay off the tolerance boundary
                pairs.append((p, q, lam >= 0))
        jobs.append(Job(
            "conj", f"conj/n{n}",
            lambda a=a, pairs=pairs: _conj_batch(a, pairs),
            check=lambda res, pairs=pairs: list(res) == [d for _, _, d in pairs],
            inputs=a.tobytes().hex() + "".join(p.tobytes().hex() for p, _, _ in pairs)))
    for n in range(2, 6):
        g = rng.normal(size=(n, n))
        m = g @ g.T
        s = int(rng.integers(1 << 20))
        jobs.append(Job(
            "approx", f"approx/n{n}",
            lambda m=m, s=s: tuple((r.d_k, r.e_k) for r in co.infsup_approx(m, k_max=12, seed=s)),
            check=_check_table,
            inputs=f"{m.tobytes().hex()}:{s}"))
    for n, batch in _JACOBI_BATCH.items():
        mats = []
        for _ in range(batch):
            g = rng.normal(size=(n, n))
            mats.append((g + g.T) / 2)
        jobs.append(Job(
            "jacobi", f"jacobi/n{n}",
            lambda mats=mats: tuple(co.eigh_jacobi(m) for m in mats),
            check=lambda res, mats=mats: _check_jacobi(mats, res),
            finish=lambda raw: tuple((e.tobytes(), v.tobytes()) for e, v in raw),
            inputs="".join(m.tobytes().hex() for m in mats)))
    order = rng.permutation(len(jobs))
    jobs = [jobs[i] for i in order]
    warm = next(j for j in jobs if j.label == "supcheck/n3")
    return Round(jobs, warm)


def _sup_result(v):
    w = None if v.witness is None else tuple(float(c) for c in v.witness)
    return (v.verdict, v.lambda_min, v.samples, w)


def _check_flagged(b, res) -> bool:
    verdict, _, _, w = res
    if verdict != co.psd.NOT_UPPER_BOUND or w is None:
        return False
    x = np.array(w)
    return float(np.linalg.eigvalsh(b - np.outer(x, x))[0]) < 0


def _conj_batch(a, pairs):
    t = co.conjugation_iso(a)
    return tuple(co.psd_leq(t.apply(p), t.apply(q), 1e-9) for p, q, _ in pairs)


def _check_table(rows) -> bool:
    ds = [d for d, _ in rows]
    es = [e for _, e in rows]
    mono = all(x >= y - 1e-9 for x, y in zip(ds, ds[1:])) and \
        all(x >= y - 1e-9 for x, y in zip(es, es[1:]))
    return mono and min(ds + es) >= 0


def _check_jacobi(mats, res) -> bool:
    for m, (e_bytes, v_bytes) in zip(mats, res):
        n = m.shape[0]
        evals = np.frombuffer(e_bytes)
        vecs = np.frombuffer(v_bytes).reshape(n, n)
        scale = max(1.0, float(np.linalg.norm(m)))
        if np.max(np.abs(evals - np.linalg.eigvalsh(m))) > 1e-9 * scale:
            return False
        if np.max(np.abs(vecs.T @ m @ vecs - np.diag(evals))) > 1e-9 * scale:
            return False
    return len(res) == len(mats)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, Path], Round]
    # Whole rounds every run completes; fixes the tail percentile.
    min_rounds: int


WORKLOADS = {
    "checkiso": Workload("checkiso", build_checkiso, 2),
    "cones": Workload("cones", build_cones, 3),
    "lattice": Workload("lattice", build_lattice, 5),
    "psd": Workload("psd", build_psd, 7),
}
