"""conelab: command-line front door for the cone order laboratory.

Reports are JSON-first (canonical byte-identical output for fixed inputs and
seeds) with an optional human-readable summary on stderr; exit codes are a
total function of the report content:

    0  success (classify/hypothesis: hypothesis holds; check-iso: affine)
    1  hypothesis fails, or check-iso passed the battery but is not affine
    2  parse/input error (bad files, bad flags, an unwritable --out,
       violated preconditions)
    3  operation needs a pointed cone
    4  check-iso battery violation (witness pair in the report)
    5  requested supremum/infimum/expression value does not exist
    6  matrix is not positive definite
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from fractions import Fraction
from functools import cache

import numpy as np

from . import psd as psd_mod
from .cones import PolyhedralCone
from .errors import (
    ConeOrderError,
    DegenerateSpan,
    NotPositiveDefinite,
    NotPointed,
    ParseError,
    UndefinedLattice,
)
from .iso import (
    AFFINE,
    IsoReport,
    IsoSpec,
    _check_samples,
    affine_span,
    check_additivity,
    check_affine_on,
    check_order_iso_sampled,
    check_parallelogram,
    check_positively_homogeneous,
    extract_g_r,
    halfline_image_check,
)
from .linalg import as_vec, vec_add
from .order import (
    classify_engaged,
    eval_infsup,
    hypothesis_check,
    infimum,
    order_unit_norm,
    supremum,
    CombinationCertificate,
)
from .sampling import cone_point_ints, rng_for
from .serialize import (
    canonical_dumps,
    cone_key,
    cone_report,
    fmt_rational,
    load_json,
    parse_cone,
    parse_expr,
    parse_iso,
    parse_matrix,
    parse_points,
    parse_rational,
    vec_to_json,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_NOT_POINTED = 3
EXIT_VIOLATION = 4
EXIT_UNDEFINED = 5
EXIT_NOT_PD = 6

# check-iso reports the first SHOWN_PAIRS violation pairs of each kind.
SHOWN_PAIRS = 5
# psd approx holds its whole table and CSV in memory, one row per k.
MAX_KMAX = 10000
_VERDICT_EXIT = {"violation": EXIT_VIOLATION, "affine": EXIT_OK, "nonlinear": EXIT_NEGATIVE}
# The errors main turns into an exit code, first match first: (class, exit
# code, stderr prefix), "{}" in a prefix standing for the error's class name.
_ERROR_EXITS = [(ParseError, EXIT_PARSE, "parse error: "),
                (NotPointed, EXIT_NOT_POINTED, ""),
                (NotPositiveDefinite, EXIT_NOT_PD, ""),
                (UndefinedLattice, EXIT_UNDEFINED, ""),
                (ConeOrderError, EXIT_PARSE, "input error ({}): "),
                (ValueError, EXIT_PARSE, "invalid value: ")]


def _parse_vec_arg(text: str, n: int):
    """Inline vector syntax: 'e1' for a basis vector or '1,0,-1/2'."""
    if text.startswith("e"):
        try:
            i = int(text[1:])
        except ValueError as exc:
            raise ParseError(f"bad vector spec {text!r}") from exc
        if not 1 <= i <= n:
            raise ParseError(f"basis index out of range in {text!r}")
        return [Fraction(1 if j == i - 1 else 0) for j in range(n)]
    parts = text.split(",")
    if len(parts) != n:
        raise ParseError(f"vector {text!r} has {len(parts)} entries, expected {n}")
    return [parse_rational(p.strip()) for p in parts]


def _floats(values, text: str) -> np.ndarray:
    """Rationals parsed from text as floats; one beyond the float range is a
    parse error."""
    try:
        return np.array([float(c) for c in values])
    except OverflowError as exc:
        raise ParseError(f"{text!r} has an entry beyond the float range") from exc


def _unit(v: np.ndarray, text: str, zero_message: str) -> np.ndarray:
    """v scaled to norm 1; a zero vector, or one whose norm overflows the
    float range, is a parse error."""
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(v))
    if nrm == 0:
        raise ParseError(zero_message)
    if not np.isfinite(nrm):
        raise ParseError(f"the norm of {text!r} overflows the float range")
    return v / nrm


def _parse_matrix_arg(text: str, n: int | None):
    """Inline matrix syntax: 'diag:a,b,...', 'eye', 'proj:<vec>', or a file
    path.  Given n, a matrix of any other size is a parse error."""
    if text.startswith("diag:"):
        vals = _floats([parse_rational(p) for p in text[5:].split(",")], text)
        m = psd_mod.SymMatrix(np.diag(vals))
    elif text == "eye":
        if n is None:
            raise ParseError("'eye' needs --n")
        m = psd_mod.SymMatrix(np.eye(n))
    elif text.startswith("proj:"):
        if n is None:
            raise ParseError("'proj:' needs --n")
        v = _floats(_parse_vec_arg(text[5:], n), text)
        m = psd_mod.rank_one_projection(_unit(v, text, "cannot project on the zero vector"))
    else:
        m = parse_matrix(load_json(text))
    if n is not None and m.n != n:
        raise ParseError(f"{text!r} is {m.n} x {m.n}, expected {n} x {n}")
    return m


def _sup_result_json(res):
    out = {"outcome": res.outcome}
    if res.value is not None:
        out["value"] = vec_to_json(res.value)
    if res.witnesses is not None:
        out["witnesses"] = [vec_to_json(w) for w in res.witnesses]
    return out


def _pairs_json(pairs):
    return [[vec_to_json(x), vec_to_json(y)] for x, y in pairs]


def _certificate_json(cert):
    if isinstance(cert, CombinationCertificate):
        return {"kind": "combination",
                "coefficients": {str(i): fmt_rational(c) for i, c in cert.coefficients}}
    return {"kind": "separating_functional", "functional": vec_to_json(cert.functional)}


# ---------------------------------------------------------------------------
# check-iso battery


def run_full_battery(cone: PolyhedralCone, spec: IsoSpec, samples: int, seed: int) -> dict:
    """The full verification battery behind `conelab check-iso`.

    Composes the sampled order-isomorphism test with the half-line,
    parallelogram, additivity and scalar-extraction identities and the
    affinity/homogeneity verdicts.  Every stage calls its checks through
    one helper, ``attempt``: where the spec is undefined at a point of a
    check (a ``ConeOrderError`` other than the sample's ``DegenerateSpan``,
    which is raised) the check fails and the first such exception's name is
    noted as its section's "error" (``homogeneous_error`` next to the
    homogeneity verdict).  A spec that does not send the source apex to the
    target apex is noted in the "affine" section as "NotConeMap" unless an
    error is noted there already.

    A spec whose certificate proves it affine (``IsoSpec._certified`` is
    ``AFFINE``) satisfies every identity by linearity, so its stages write
    the sections the checks would without evaluating them: every
    half-line, parallelogram and additivity configuration passed, every
    g_r entry colinear, basepoint independent and the identity, the fit
    exact and a cone-based map homogeneous.  The affine-fit points are
    still drawn and pass the span test of ``affine_span``, and the apex is
    still evaluated.  A certified spec that proves less, ``ISO``, skips
    only the sampled battery.

    The verdict is read off the finished sections by one rule: the report
    is a violation (exit 4) when the sampled battery found a violation, a
    half-line failed, a parallelogram or additivity configuration failed, a
    g_r entry is not colinear or is engaged and not the identity, the
    "affine" section notes an error, or the report has a
    ``homogeneous_error``.  Otherwise it is "affine" (exit 0) when the fit
    is exact and "nonlinear" (exit 1) when it is not; a map that is not
    homogeneous, or not affine, is no violation.  An engaged entry's
    identity holds only when every basepoint gave g = lam, so it implies
    basepoint independence.

    The whole battery stays on integers: points are drawn with
    ``cone_point_ints`` (the draws of ``cone_point``), shifted by the apex,
    and the identities get them, and the generators and their multiples,
    as int vectors; only an apexed spec's points carry Fractions.  A cone
    other than the spec's source cone is a ParseError, and fewer than one
    sample a ValueError.
    """
    if spec.source_cone != cone:
        raise ParseError("iso source cone does not match the cone file")
    _check_samples(samples)
    a = spec.source_base
    src = spec.source_cone
    if not src.pointed:
        raise NotPointed("the verification battery needs a pointed source cone")
    gens = src._gen_ints
    proof = spec._certified()
    proved_affine = proof == AFFINE
    report: dict = {"seed": seed, "samples": samples, "exact": spec.exact}

    # A certified spec passes every sample, so its battery report is known
    # without drawing; any other spec draws until the pairs the report
    # shows are settled.  samples_run is the n samples the verdict covers.
    if proof:
        battery = IsoReport((), (), samples, "PassedSampling")
    else:
        battery = check_order_iso_sampled(spec, samples, seed, limit=SHOWN_PAIRS)
    report["battery"] = {
        "verdict": battery.verdict,
        "samples_run": battery.samples_run,
        "order_preserving_violations": _pairs_json(battery.order_preserving_violations),
        "inverse_violations": _pairs_json(battery.inverse_violations),
    }

    def point(rng):
        p = tuple(cone_point_ints(src, rng))
        return p if spec._bases[0] is None else vec_add(a, p)

    def multiple(k, g):
        return [k * c for c in g]

    def attempt(section, key, check, *args):
        """check(*args); None, with the exception's name noted under
        section[key], where the spec is undefined at a point of the check."""
        try:
            return check(*args)
        except DegenerateSpan:
            raise  # too few distinct sample points: the cone's fault, not the spec's
        except ConeOrderError as exc:
            section.setdefault(key, type(exc).__name__)
            return None

    def tally(section, passed, witness):
        """Count a passed configuration, or keep the section's first witness."""
        if passed:
            section["passed"] += 1
        elif section["witness"] is None:
            section["witness"] = [vec_to_json(v) for v in witness]

    lams = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    hl = report["halfline"] = {"checked": len(gens)}
    failures = [] if proved_affine else [
        i for i, r in enumerate(gens)
        if not attempt(hl, "error", halfline_image_check, spec,
                       point(rng_for(seed, "hl", i)), r, lams)]
    hl.update(passed=len(gens) - len(failures), failures=failures)

    n_cfg = max(5, min(50, samples // 100)) if len(gens) >= 2 else 0
    passed = n_cfg if proved_affine else 0
    par = report["parallelogram"] = {"checked": n_cfg, "passed": passed, "witness": None}
    add = report["additivity"] = {"checked": n_cfg, "passed": passed, "witness": None}
    for i in range(0 if proved_affine else n_cfg):
        rng = rng_for(seed, "par", i)
        x = point(rng)
        ri, si = rng.sample(range(len(gens)), 2)
        r = multiple(rng.randint(1, 3), gens[ri])
        s = multiple(rng.randint(1, 3), gens[si])
        tally(par, attempt(par, "error", check_parallelogram, spec, x, r, s), (x, r, s))
        rng2 = rng_for(seed, "add", i)
        x2 = point(rng2)
        count = rng2.randint(2, min(4, len(gens)))
        idx = rng2.sample(range(len(gens)), count)
        ss = [multiple(rng2.randint(1, 3), gens[j]) for j in idx]
        tally(add, attempt(add, "error", check_additivity, spec, x2, ss), (x2, *ss))

    g_report = report["g_r"] = []
    g_lams = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]
    for ray in classify_engaged(src):
        entry = {"ray_index": ray.ray_index, "engaged": ray.engaged}
        g_report.append(entry)
        if proved_affine:
            entry.update(colinear=True, basepoint_independent=True, identity=True)
            continue
        basepoints = [point(rng_for(seed, "gr", ray.ray_index, t)) for t in range(3)]
        rows = attempt(entry, "error", extract_g_r, spec, ray.generator, basepoints, g_lams)
        entry["colinear"] = rows is not None
        if rows is None:
            continue
        by_lam: dict = {}
        for row in rows:
            by_lam.setdefault(row.lam, set()).add(row.value)
        indep = all(len(vals) == 1 for vals in by_lam.values())
        ident = all(vals == {lam} for lam, vals in by_lam.items())
        entry["basepoint_independent"] = indep
        entry["identity"] = ident if ray.engaged or indep else None

    pts = list(dict.fromkeys(point(rng_for(seed, "aff", t)) for t in range(4 * src.dim + 12)))
    aff = report["affine"] = {}
    if proved_affine:
        affine_span(src, pts)
        aff.update(affine=True, max_residual="0")
    else:
        fit = attempt(aff, "error", check_affine_on, spec, pts)
        # Every cone-based map sends the apex to the apex, and a map can be
        # affine on the sampled points yet not there: a product lift bending
        # its ray coordinate at t = 1 fits t + 1 when no sample has t < 1.
        if fit is not None and fit.affine and a not in pts:
            fit = attempt(aff, "error", check_affine_on, spec, pts + [a])
        if fit is None:
            aff.update(affine=None, max_residual=None)
        else:
            aff.update(affine=fit.affine, max_residual=fmt_rational(fit.max_residual))
    # An order-isomorphism of a + K onto a' + K' sends the least element a to
    # the least element a'.  The sampled stages compare differences, so they
    # miss a map that moves it; one exact forward evaluation at a decides it.
    if attempt(aff, "error", spec.eval, a) != spec.target_base:
        aff.setdefault("error", "NotConeMap")

    report["homogeneous"] = None
    if spec._bases == (None, None):
        report["homogeneous"] = proved_affine or attempt(
            report, "homogeneous_error", check_positively_homogeneous, spec,
            [point(rng_for(seed, "hom", t)) for t in range(8)],
            [Fraction(1, 2), Fraction(2), Fraction(3)])

    if (report["battery"]["verdict"] == "Violation" or hl["failures"]
            or any(s["passed"] < s["checked"] for s in (par, add))
            or any(not e["colinear"] or e["engaged"] and not e["identity"] for e in g_report)
            or "error" in aff or "homogeneous_error" in report):
        verdict = "violation"
    else:
        verdict = "affine" if aff["affine"] else "nonlinear"
    report.update(verdict=verdict, exit_code=_VERDICT_EXIT[verdict])
    return report


# ---------------------------------------------------------------------------
# command handlers: each returns (payload, exit_code); main adds the envelope
# of command, seed and samples


def _cmd_extreme_rays(args):
    cone = parse_cone(load_json(args.cone))
    if not cone.pointed:
        raise NotPointed("cone is not pointed; extreme rays are undefined")
    return cone_report(cone), EXIT_OK


def _cmd_classify(args):
    cone = parse_cone(load_json(args.cone))
    verdict = hypothesis_check(cone)
    rays = [{"ray_index": r.ray_index, "generator": vec_to_json(r.generator),
             "engaged": r.engaged, "certificate": _certificate_json(r.certificate)}
            for r in classify_engaged(cone)]
    code = EXIT_OK if verdict.holds else EXIT_NEGATIVE
    return {"rays": rays, "hypothesis": asdict(verdict)}, code


def _cmd_hypothesis(args):
    verdict = hypothesis_check(parse_cone(load_json(args.cone)))
    return asdict(verdict), EXIT_OK if verdict.holds else EXIT_NEGATIVE


def _cmd_bound(args):
    cone = parse_cone(load_json(args.cone))
    points = parse_points(load_json(args.points))
    res = supremum(cone, points) if args.command == "supremum" else infimum(cone, points)
    return {"result": _sup_result_json(res)}, EXIT_OK if res.exists else EXIT_UNDEFINED


def _cmd_evalexpr(args):
    cone = parse_cone(load_json(args.cone))
    expr = parse_expr(load_json(args.expr))
    try:
        value = eval_infsup(cone, expr)
    except UndefinedLattice as exc:
        payload = {"error": "undefined_lattice", "path": list(exc.path)}
        if exc.witnesses:
            payload["witnesses"] = [vec_to_json(w) for w in exc.witnesses]
        return payload, EXIT_UNDEFINED
    return {"value": vec_to_json(value)}, EXIT_OK


def _cmd_unitnorm(args):
    cone = parse_cone(load_json(args.cone))
    u = _parse_vec_arg(args.u, cone.dim)
    x = _parse_vec_arg(args.x, cone.dim)
    value = order_unit_norm(cone, u, x)
    return {"u": vec_to_json(as_vec(u)), "x": vec_to_json(as_vec(x)),
            "norm": fmt_rational(value)}, EXIT_OK


def _cmd_check_iso(args):
    cone_obj = load_json(args.cone)
    cone = parse_cone(cone_obj)
    # the spec's cone fields that repeat the cone file reuse its cone
    spec = parse_iso(load_json(args.iso), {cone_key(cone_obj): cone})
    report = run_full_battery(cone, spec, args.samples, args.seed)
    return report, report["exit_code"]


def _tolerance(args) -> psd_mod.PsdTolerance:
    """The validated --tol override; main checks it before any psd command."""
    return psd_mod.DEFAULT_TOL if args.tol is None else psd_mod.PsdTolerance(args.tol, args.tol)


def _cmd_psd_witness(args):
    x = _unit(_floats(_parse_vec_arg(args.x, args.n), args.x), args.x,
              "witness direction cannot be zero")
    w = psd_mod.engagement_witness(x)
    return {"x": x.tolist(), "y": w.y.tolist(), "z": w.z.tolist(), "w": w.w.tolist(),
            "residual": w.residual}, EXIT_OK


def _cmd_psd_supcheck(args):
    tol = _tolerance(args)
    b = _parse_matrix_arg(args.b, args.n)
    verdict = psd_mod.identity_sup_check(b.n, b, m=args.samples, seed=args.seed, tol=tol)
    payload = {
        "verdict": verdict.verdict,
        "lambda_min": verdict.lambda_min,
        "samples_used": verdict.samples,
    }
    if verdict.witness is not None:
        payload["witness"] = verdict.witness.tolist()
    return payload, EXIT_OK if verdict.verdict == psd_mod.CONSISTENT else EXIT_NEGATIVE


def _cmd_psd_conj(args):
    tol = _tolerance(args)
    a = _parse_matrix_arg(args.a, args.n)
    q = _parse_matrix_arg(args.q, a.n)
    t = psd_mod.conjugation_iso(a, tol)
    image = t.apply(q)
    back = t.invert(image)
    return {
        "image": image.array.tolist(),
        "roundtrip_error": float(np.max(np.abs(back.array - q.array))),
    }, EXIT_OK


def _cmd_psd_approx(args):
    a = _parse_matrix_arg(args.a, args.n)
    rows = psd_mod.infsup_approx(a, k_max=args.kmax, seed=args.seed)
    return {
        "table": [{"k": r.k, "d_k": r.d_k, "e_k": r.e_k} for r in rows],
        "csv": "k,d_k,e_k\n" + "".join(f"{r.k},{r.d_k!r},{r.e_k!r}\n" for r in rows),
    }, EXIT_OK


# The options every command takes, then one row per command: (path, help,
# handler, arguments), each argument a (name, add_argument keywords) pair.
# A row without handler is a group whose subcommands follow it.
_COMMON = [
    ("--seed", {"type": int, "default": 0, "help": "seed for all sampling"}),
    ("--samples", {"type": int, "default": 10000, "help": "sampling count"}),
    ("--tol", {"type": float, "help": "tolerance override (psd)"}),
    ("--out", {"help": "write the JSON report to this path"}),
    ("--summary", {"action": "store_true",
                   "help": "also print a human-readable summary to stderr"}),
]
_CONE = ("cone", {})
_REQUIRED = {"required": True}
_SIZE = ("--n", {"type": int})
_COMMANDS = [
    ("extreme-rays", "normalized extreme generators and facets", _cmd_extreme_rays, [_CONE]),
    ("classify", "engaged/disengaged report plus hypothesis verdict", _cmd_classify, [_CONE]),
    ("hypothesis", "linearity-theorem hypothesis verdict", _cmd_hypothesis, [_CONE]),
    ("supremum", "least upper bound of a point set", _cmd_bound, [_CONE, ("points", {})]),
    ("infimum", "greatest lower bound of a point set", _cmd_bound, [_CONE, ("points", {})]),
    ("evalexpr", "evaluate an inf-sup expression", _cmd_evalexpr, [_CONE, ("expr", {})]),
    ("unitnorm", "order-unit norm |x|_u", _cmd_unitnorm,
     [_CONE, ("-u", {"required": True, "help": "order unit, e.g. '1,1' or 'e1'"}),
      ("-x", {"required": True, "help": "vector to measure"})]),
    ("check-iso", "full order-isomorphism battery", _cmd_check_iso, [_CONE, ("iso", {})]),
    ("psd", "PSD cone demonstrations", None, []),
    ("psd witness", "engagement identity P_x = P_y + P_z - P_w", _cmd_psd_witness,
     [("--n", {"type": int, "required": True}), ("--x", _REQUIRED)]),
    ("psd supcheck", "identity-as-supremum consistency check", _cmd_psd_supcheck,
     [_SIZE, ("--b", _REQUIRED)]),
    ("psd conj", "conjugation isomorphism T_A(Q)", _cmd_psd_conj,
     [_SIZE, ("--a", _REQUIRED), ("--q", _REQUIRED)]),
    ("psd approx", "inf/sup convergence table (CSV)", _cmd_psd_approx,
     [_SIZE, ("--a", _REQUIRED), ("--kmax", {"type": int, "default": 16})]),
]


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The conelab parser, built once per process: parsing does not change
    it, and each command's handler and report name are bound when it is
    built."""
    p = argparse.ArgumentParser(prog="conelab", description="exact cone order laboratory")
    groups = {"": p.add_subparsers(dest="command", required=True)}
    for path, help_text, handler, arguments in _COMMANDS:
        group, _, name = path.rpartition(" ")
        s = groups[group].add_parser(name, help=help_text)
        if handler is None:
            groups[path] = s.add_subparsers(dest=f"{name}_command", required=True)
            continue
        for arg, keywords in _COMMON + arguments:
            s.add_argument(arg, **keywords)
        s.set_defaults(handler=handler, report_name=path.replace(" ", "-"))
    return p


def _emit(args, text: str) -> bool:
    """Write text to --out, or to stdout without it.  An unwritable --out is
    reported on stderr and gives False, for exit 2."""
    if not args.out:
        sys.stdout.write(text)
        return True
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"conelab: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _check_counts(args):
    """A battery that runs no samples must not pass, so counts are checked
    first, and then a psd command's --tol and --n, before any vector or
    matrix of that size is built, and the --seed of the psd commands that
    seed numpy, which takes no negative seed."""
    if args.samples < 1:
        raise ParseError(f"--samples must be at least 1, got {args.samples}")
    if not 1 <= getattr(args, "kmax", 1) <= MAX_KMAX:
        raise ParseError(f"--kmax must be from 1 to {MAX_KMAX}, got {args.kmax}")
    if args.command == "psd":
        _tolerance(args)
        if args.n is not None:
            psd_mod.check_size(args.n)
        if args.psd_command in ("supcheck", "approx") and args.seed < 0:
            raise ParseError(f"--seed must be non-negative, got {args.seed}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_counts(args)
        payload, code = args.handler(args)
    except (ConeOrderError, ValueError) as exc:
        code, prefix = next((c, p) for cls, c, p in _ERROR_EXITS if isinstance(exc, cls))
        print(f"conelab: {prefix.format(type(exc).__name__)}{exc}", file=sys.stderr)
        return code

    command = args.report_name
    report = {**payload, "command": command, "seed": args.seed, "samples": args.samples}
    if args.out and "csv" in report:
        if not _emit(args, report.pop("csv")):
            return EXIT_PARSE
        sys.stdout.write(canonical_dumps(report))
    elif not _emit(args, canonical_dumps(report)):
        return EXIT_PARSE
    if args.summary:
        hypothesis = report.get("hypothesis", report)
        if "holds" in hypothesis:
            verdict = "hypothesis holds" if hypothesis["holds"] else "hypothesis fails"
        else:
            verdict = (report.get("verdict") or report.get("error")
                       or report.get("result", {}).get("outcome", "ok"))
        print(f"conelab {command}: {verdict} (exit {code})", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
