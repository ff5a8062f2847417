import io
import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import coneorder.cli as cli_mod
import coneorder.cones as cones_mod
from coneorder.cli import main, run_full_battery
from coneorder.cones import cone_from_generators, interval_cone, orthant, square_cone
from coneorder.errors import OutOfDomain, ParseError
from coneorder.iso import (
    AFFINE,
    ISO,
    AffineIso,
    AffineMap,
    ComposeIso,
    DiagonalIso,
    GRow,
    IsoReport,
    IsoSpec,
    LinearIso,
    OddPowerMap,
    PiecewiseLinearMap,
    ProductLiftIso,
    check_order_iso_sampled,
    compose_isos,
    identity_iso,
    make_affine_iso,
    make_diagonal_iso,
    make_product_lift,
)
from coneorder.linalg import MAX_RATIONAL_DIGITS, as_vec
from coneorder.order import classify_engaged, disengaged_split
from coneorder.sampling import cone_point_ints, random_pointed_cone, rng_for
from coneorder.serialize import (
    MAX_DIM,
    MAX_EXPR_DEPTH,
    MAX_ISO_DEPTH,
    MAX_ODD_POWER,
    canonical_dumps,
    vec_to_json,
)

from test_acceptance import PWL_DOUBLING, _criterion_3_cones, cone_automorphism_candidates
from test_iso import HalflineKink


@pytest.fixture()
def files(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    return {
        "square": write("square.json", {"dim": 3, "generators": [
            ["1", "1", "1"], ["-1", "1", "1"], ["1", "-1", "1"], ["-1", "-1", "1"]]}),
        "orthant2": write("orthant2.json", {"dim": 2, "generators": [["1", "0"], ["0", "1"]]}),
        "orthant3": write("orthant3.json", {"dim": 3, "generators": [
            ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}),
        "twonorm": write("twonorm.json", {"dim": 2, "generators": [["1", "1"], ["-1", "1"]]}),
        "whole": write("whole.json", {"dim": 2, "facets": []}),
        "pts_sup": write("pts_sup.json", {"points": [["1", "1", "1"], ["-1", "-1", "1"]]}),
        "pts_nlub": write("pts_nlub.json", {"points": [["1", "0", "1"], ["-1", "0", "1"]]}),
        "expr": write("expr.json", {"inf": [
            {"sup": [{"leaf": ["1", "0"]}, {"leaf": ["0", "1"]}]},
            {"sup": [{"leaf": ["2", "0"]}, {"leaf": ["0", "2"]}]}]}),
        "expr_bad": write("expr_bad.json", {"sup": [
            {"leaf": ["1", "0", "1"]}, {"leaf": ["-1", "0", "1"]}]}),
        "ident2": write("ident2.json", {"linear": {
            "matrix": [["1", "0"], ["0", "1"]],
            "source": {"dim": 2, "generators": [["1", "0"], ["0", "1"]]},
            "target": {"dim": 2, "generators": [["1", "0"], ["0", "1"]]}}}),
        "cube": write("cube.json", {"diagonal": {
            "source": {"dim": 2, "generators": [["0", "1"], ["1", "0"]]},
            "target_frame": [["0", "1"], ["1", "0"]],
            "maps": [{"odd_power": 1}, {"odd_power": 3}]}}),
        "pl": write("pl.json", {"product_lift": {
            "cone": {"dim": 2, "generators": [["1", "1"], ["-1", "1"]]},
            "ray_index": 1,
            "ray_map": {"piecewise": {"breakpoints": [["0", "0"], ["1", "2"]]}},
            "sub": {"linear": {"matrix": [["1"]],
                               "source": {"dim": 1, "generators": [["1"]]},
                               "target": {"dim": 1, "generators": [["1"]]}}}}}),
        "tmp": tmp_path,
    }


DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExtremeRays:
    def test_square(self, files, capsys):
        code, out, _ = run(capsys, "extreme-rays", files["square"])
        assert code == 0
        rep = json.loads(out)
        assert len(rep["generators"]) == 4
        assert rep["facets"] == [["-1", "0", "1"], ["0", "-1", "1"],
                                 ["0", "1", "1"], ["1", "0", "1"]]

    def test_orthant(self, files, capsys):
        code, out, _ = run(capsys, "extreme-rays", files["orthant3"])
        assert code == 0 and len(json.loads(out)["generators"]) == 3

    def test_whole_space_exit_3(self, files, capsys):
        code, _, err = run(capsys, "extreme-rays", files["whole"])
        assert code == 3

    def test_bad_file_exit_2(self, files, capsys):
        code, _, _ = run(capsys, "extreme-rays", str(files["tmp"] / "missing.json"))
        assert code == 2


# One run of each command, and of each of its exits that has its own report
# shape: (golden report name, argv, exit code, --summary line).  Arguments
# ending in .json name files in tests/data.  The psd inputs are diagonal
# matrices and basis vectors, so that their float output depends as little as
# it can on the summation order of the BLAS underneath.  A golden file changes
# only when a change to what a command reports is intended.
GOLDEN_RUNS = [
    ("flat.extreme-rays", ["extreme-rays", "flat.json"], 0,
     "conelab extreme-rays: ok (exit 0)"),
    ("square_cone.classify", ["classify", "square_cone.json"], 0,
     "conelab classify: hypothesis holds (exit 0)"),
    ("orthant3.classify", ["classify", "orthant3.json"], 1,
     "conelab classify: hypothesis fails (exit 1)"),
    # not pointed: a line along the third axis
    ("wedge.hypothesis", ["hypothesis", "wedge.json"], 1,
     "conelab hypothesis: hypothesis fails (exit 1)"),
    # pointed, spans a plane of Q^3
    ("flat.hypothesis", ["hypothesis", "flat.json"], 1,
     "conelab hypothesis: hypothesis fails (exit 1)"),
    ("square_pair.supremum", ["supremum", "square_cone.json", "square_pair.points.json"], 0,
     "conelab supremum: exists (exit 0)"),
    ("square_apart.supremum", ["supremum", "square_cone.json", "square_apart.points.json"], 5,
     "conelab supremum: no_least_upper_bound (exit 5)"),
    ("square_pair.infimum", ["infimum", "square_cone.json", "square_pair.points.json"], 0,
     "conelab infimum: exists (exit 0)"),
    ("orthant3.evalexpr", ["evalexpr", "orthant3.json", "orthant3.expr.json"], 0,
     "conelab evalexpr: ok (exit 0)"),
    ("square_apart.evalexpr", ["evalexpr", "square_cone.json", "square_apart.expr.json"], 5,
     "conelab evalexpr: undefined_lattice (exit 5)"),
    ("square_cone.unitnorm", ["unitnorm", "square_cone.json", "-u", "0,0,1", "-x", "1,0,0"], 0,
     "conelab unitnorm: ok (exit 0)"),
    ("square_identity", ["check-iso", "square_cone.json", "square_identity.iso.json",
                         "--samples", "500"], 0,
     "conelab check-iso: affine (exit 0)"),
    ("e1.psd-witness", ["psd", "witness", "--n", "3", "--x", "e1"], 0,
     "conelab psd-witness: ok (exit 0)"),
    ("diag2_3.psd-supcheck", ["psd", "supcheck", "--n", "2", "--b", "diag:2,3",
                              "--samples", "50"], 0,
     "conelab psd-supcheck: CONSISTENT (exit 0)"),
    ("diag1_half.psd-supcheck", ["psd", "supcheck", "--n", "2", "--b", "diag:1,0.5",
                                 "--samples", "50"], 1,
     "conelab psd-supcheck: NOT_UPPER_BOUND (exit 1)"),
    # psd_leq's pivot slack, caught by the eigenvalue test
    ("diag_slack.psd-supcheck", ["psd", "supcheck", "--b", "diag:0.999999,1e10",
                                 "--samples", "50"], 1,
     "conelab psd-supcheck: INCONSISTENT (exit 1)"),
    ("diag4_1.psd-conj", ["psd", "conj", "--n", "2", "--a", "diag:4,1", "--q", "proj:e1"], 0,
     "conelab psd-conj: ok (exit 0)"),
    ("diag2_1.psd-approx", ["psd", "approx", "--n", "2", "--a", "diag:2,1", "--kmax", "3"], 0,
     "conelab psd-approx: ok (exit 0)"),
]


def _data_argv(argv):
    return [str(DATA / a) if a.endswith(".json") else a for a in argv]


@pytest.mark.parametrize("golden, argv, code, summary", GOLDEN_RUNS,
                         ids=[run[0] for run in GOLDEN_RUNS])
def test_command_report_matches_golden_bytes(capsys, golden, argv, code, summary):
    got, out, err = run(capsys, *_data_argv(argv))
    assert out.encode("utf-8") == (DATA / f"{golden}.report.json").read_bytes()
    assert got == code and err == ""


@pytest.mark.parametrize("golden, argv, code, summary", GOLDEN_RUNS,
                         ids=[run[0] for run in GOLDEN_RUNS])
def test_summary_line(capsys, golden, argv, code, summary):
    got, out, err = run(capsys, *_data_argv(argv), "--summary")
    assert out.encode("utf-8") == (DATA / f"{golden}.report.json").read_bytes()
    assert got == code and err == summary + "\n"


def test_approx_out_matches_golden_bytes(capsys, tmp_path):
    # With --out the CSV table goes to the file and the rest of the report
    # to stdout.
    table = tmp_path / "table.csv"
    code, out, err = run(capsys, "psd", "approx", "--n", "2", "--a", "diag:2,1", "--kmax", "3",
                         "--out", str(table))
    assert code == 0 and err == ""
    assert out.encode("utf-8") == (DATA / "diag2_1.psd-approx.out.report.json").read_bytes()
    assert table.read_bytes() == (DATA / "diag2_1.psd-approx.csv").read_bytes()


class TestClassify:
    def test_square_all_engaged_exit_0(self, files, capsys):
        code, out, _ = run(capsys, "classify", files["square"])
        assert code == 0
        rep = json.loads(out)
        assert all(r["engaged"] for r in rep["rays"])
        assert rep["hypothesis"]["holds"]

    def test_orthant_disengaged_exit_1(self, files, capsys):
        code, out, _ = run(capsys, "classify", files["orthant3"])
        assert code == 1
        assert not any(r["engaged"] for r in json.loads(out)["rays"])

    def test_twonorm_two_disengaged(self, files, capsys):
        code, out, _ = run(capsys, "classify", files["twonorm"])
        assert code == 1
        rep = json.loads(out)
        assert [r["engaged"] for r in rep["rays"]] == [False, False]
        assert rep["hypothesis"]["disengaged_witness"] == 0


class TestBounds:
    def test_supremum_exists(self, files, capsys):
        code, out, _ = run(capsys, "supremum", files["square"], files["pts_sup"])
        assert code == 0
        assert json.loads(out)["result"]["value"] == ["0", "0", "2"]

    def test_supremum_witnesses_exit_5(self, files, capsys):
        code, out, _ = run(capsys, "supremum", files["square"], files["pts_nlub"])
        assert code == 5
        rep = json.loads(out)
        assert rep["result"]["witnesses"] == [["0", "-1", "2"], ["0", "1", "2"]]
        # witnesses re-verify through the library
        sq = square_cone()
        w1, w2 = (as_vec([int(c) for c in w]) for w in rep["result"]["witnesses"])
        assert not sq.leq(w1, w2) and not sq.leq(w2, w1)

    def test_infimum(self, files, capsys):
        code, out, _ = run(capsys, "infimum", files["square"], files["pts_sup"])
        assert code == 0
        assert json.loads(out)["result"]["value"] == ["0", "0", "0"]


class TestEvalExpr:
    def test_value(self, files, capsys):
        code, out, _ = run(capsys, "evalexpr", files["orthant2"], files["expr"])
        assert code == 0
        assert json.loads(out)["value"] == ["1", "1"]

    def test_undefined_exit_5_with_witnesses(self, files, capsys):
        code, out, _ = run(capsys, "evalexpr", files["square"], files["expr_bad"])
        assert code == 5
        rep = json.loads(out)
        assert rep["error"] == "undefined_lattice"
        assert len(rep["witnesses"]) == 2


@pytest.mark.parametrize("depth, code", [(MAX_EXPR_DEPTH, 0), (MAX_EXPR_DEPTH + 1, 2), (700, 2)])
def test_expression_depth_limit(files, capsys, depth, code):
    path = files["tmp"] / "deep.json"
    path.write_text('{"sup":[' * depth + '{"leaf":["1","2"]}' + ']}' * depth)
    got, out, err = run(capsys, "evalexpr", files["orthant2"], str(path))
    assert got == code
    if code == 0:
        assert json.loads(out)["value"] == ["1", "2"]
    else:
        assert out == "" and "Traceback" not in err
        assert err.startswith("conelab: parse error:")


class TestUnitNorm:
    def test_value(self, files, capsys):
        code, out, _ = run(capsys, "unitnorm", files["orthant2"], "-u", "1,1", "-x", "1,-2")
        assert code == 0
        assert json.loads(out)["norm"] == "2"

    def test_not_order_unit_exit_2(self, files, capsys):
        code, _, _ = run(capsys, "unitnorm", files["orthant2"], "-u", "e1", "-x", "1,1")
        assert code == 2


class TestCheckIso:
    def test_identity_affine_exit_0(self, files, capsys):
        code, out, _ = run(capsys, "check-iso", files["orthant2"], files["ident2"],
                           "--samples", "300")
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "affine"
        assert rep["battery"]["verdict"] == "PassedSampling"

    def test_cube_nonlinear_exit_1(self, files, capsys):
        code, out, _ = run(capsys, "check-iso", files["orthant2"], files["cube"],
                           "--samples", "300")
        assert code == 1
        assert json.loads(out)["verdict"] == "nonlinear"

    def test_product_lift_nonlinear_exit_1(self, files, capsys):
        code, out, _ = run(capsys, "check-iso", files["twonorm"], files["pl"],
                           "--samples", "300")
        assert code == 1
        rep = json.loads(out)
        assert rep["exact"] is True
        assert rep["verdict"] == "nonlinear"

    def test_cone_file_must_match_iso_source(self, files, capsys):
        code, _, err = run(capsys, "check-iso", files["square"], files["ident2"])
        assert code == 2
        assert err == "conelab: parse error: iso source cone does not match the cone file\n"

    def test_battery_refuses_a_cone_other_than_the_source(self):
        # The library call checks its cone argument as the CLI does.
        with pytest.raises(ParseError, match="iso source cone does not match the cone file"):
            run_full_battery(square_cone(), identity_iso(orthant(2)), 100, 0)

    def test_byte_identical_reports_for_fixed_seed(self, files, capsys):
        _, out1, _ = run(capsys, "check-iso", files["orthant2"], files["cube"],
                         "--samples", "200", "--seed", "9")
        _, out2, _ = run(capsys, "check-iso", files["orthant2"], files["cube"],
                         "--samples", "200", "--seed", "9")
        assert out1 == out2
        _, out3, _ = run(capsys, "check-iso", files["orthant2"], files["cube"],
                         "--samples", "200", "--seed", "10")
        assert out3 != out1

    def test_parser_is_built_once(self):
        assert cli_mod._build_parser() is cli_mod._build_parser()

    def test_parallel_flag_is_gone(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check-iso", files["orthant2"], files["cube"], "--parallel"])
        assert exc.value.code == 2
        assert "--parallel" in capsys.readouterr().err

    # Report bytes written by `conelab check-iso <cone> <iso> --samples 500`.
    # A change to them is a change to what the library reports, so they are
    # regenerated only when that is intended.
    @pytest.mark.parametrize("cone, iso", [
        ("square_cone", "square_identity"),
        ("interval_cone", "interval_pwl_lift"),
        ("orthant3", "orthant3_cube"),
        # the identity between apexed domains with fractional bases: the
        # apex refit, homogeneous null and points with denominators
        ("square_cone", "square_apexed"),
        # a unimodular shear onto the sheared square cone, and a product lift
        # with an affine ray map over a coordinate swap of the subcone
        ("square_cone", "square_shear"),
        ("orthant3", "orthant3_affine_lift"),
    ])
    def test_report_matches_golden_bytes(self, capsys, cone, iso):
        code, out, _ = run(capsys, "check-iso", str(DATA / f"{cone}.json"),
                           str(DATA / f"{iso}.iso.json"), "--samples", "500")
        golden = (DATA / f"{iso}.report.json").read_bytes()
        assert out.encode("utf-8") == golden
        assert code == json.loads(golden)["exit_code"]

    def test_forged_rational_linear_report_matches_golden_bytes(self):
        # A rational map on the square cone, given a wrong inverse, that no
        # iso-spec file can carry (make_linear_iso validates both maps).  So
        # it enters check-iso at run_full_battery, as the forged benchmark
        # jobs do; its report holds violation pairs with denominators.
        sq = square_cone()
        m = [as_vec(r) for r in (("1", "1/3", "0"), ("-1/5", "1", "0"), ("0", "0", "3/2"))]
        wrong = [as_vec(r) for r in (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "2/3"))]
        report = run_full_battery(sq, LinearIso(m, sq, sq, inverse=wrong), 500, 0)
        report["command"] = "check-iso"
        golden = (DATA / "square_rational.report.json").read_bytes()
        assert canonical_dumps(report).encode("utf-8") == golden
        assert report["exit_code"] == 4

    def test_forged_partial_diagonal_report_matches_golden_bytes(self):
        # PWL doubling, cube, PWL doubling over three of the square's four
        # generators: no order-isomorphism and no iso-spec file, so it enters
        # at run_full_battery.  Its report carries identity witnesses, a
        # NotColinear g_r entry and a fractional residual of an inexact spec.
        sq = square_cone()
        pwl = PiecewiseLinearMap(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(2))))
        frame = sq.generators[:3]
        spec = DiagonalIso(sq, frame, (pwl, OddPowerMap(3), pwl), frame, sq)
        report = run_full_battery(sq, spec, 500, 0)
        report["command"] = "check-iso"
        golden = (DATA / "square_forged_diagonal.report.json").read_bytes()
        assert canonical_dumps(report).encode("utf-8") == golden
        assert report["exit_code"] == 4 and report["exact"] is False
        assert report["parallelogram"]["witness"] and report["additivity"]["witness"]
        assert {"error": "NotColinear"}.items() <= report["g_r"][-1].items()
        assert "/" in report["affine"]["max_residual"]

    def test_trivial_cone_identity_is_a_degenerate_span(self, tmp_path, capsys):
        # {0} in dim 2: every sampled point is the apex, so the affine fit
        # is left with one point after deduplication.
        cone = {"dim": 2, "generators": []}
        (tmp_path / "c.json").write_text(json.dumps(cone))
        (tmp_path / "i.json").write_text(json.dumps({"linear": {
            "matrix": [["1", "0"], ["0", "1"]], "source": cone, "target": cone}}))
        code, out, err = run(capsys, "check-iso", str(tmp_path / "c.json"),
                             str(tmp_path / "i.json"), "--samples", "50")
        assert code == 2 and out == ""
        assert err == "conelab: input error (DegenerateSpan): need at least two points\n"

    def test_identity_on_a_ray_is_affine(self, tmp_path, capsys):
        cone = {"dim": 1, "generators": [["1"]]}
        (tmp_path / "c.json").write_text(json.dumps(cone))
        (tmp_path / "i.json").write_text(json.dumps({"linear": {
            "matrix": [["1"]], "source": cone, "target": cone}}))
        code, out, err = run(capsys, "check-iso", str(tmp_path / "c.json"),
                             str(tmp_path / "i.json"), "--samples", "50")
        assert code == 0 and err == ""
        assert json.loads(out)["verdict"] == "affine"

    def test_product_lift_affine_off_the_apex_is_nonlinear(self, files, capsys):
        # The PWL-doubling lift on orthant(2) is t + 1 for t >= 1.  With seed
        # 166666 every affine-fit point has t >= 1, so the fit is exact
        # there; the apex, which the map fixes, refutes it.
        iso = files["tmp"] / "lift2.json"
        iso.write_text(json.dumps({"product_lift": {
            "cone": {"dim": 2, "generators": [["1", "0"], ["0", "1"]]},
            "ray_index": 0,
            "ray_map": {"piecewise": {"breakpoints": [["0", "0"], ["1", "2"]]}},
            "sub": {"linear": {"matrix": [["1"]],
                               "source": {"dim": 1, "generators": [["1"]]},
                               "target": {"dim": 1, "generators": [["1"]]}}}}}))
        code, out, _ = run(capsys, "check-iso", files["orthant2"], str(iso),
                           "--samples", "60", "--seed", "166666")
        rep = json.loads(out)
        assert rep["affine"]["affine"] is False
        assert rep["verdict"] == "nonlinear"
        assert code == rep["exit_code"] == 1


def _lift(cone, ray_map, sub_of):
    """make_product_lift along the cone's first disengaged ray, with the sub
    spec sub_of(subcone)."""
    ray = next(r.ray_index for r in classify_engaged(cone) if not r.engaged)
    return make_product_lift(cone, ray, ray_map, sub_of(disengaged_split(cone, ray).subcone))


def _certified_corpus():
    """(cone, spec) pairs that are exact order-isomorphisms, of every kind
    the certificate covers."""
    corpus = []
    for ci, cone in enumerate(_criterion_3_cones()):
        corpus += [(cone, s) for s in cone_automorphism_candidates(cone, rng_for(0, "cert", ci))]
    rng = rng_for(1, "cert-random")
    for dim in (1, 2, 3, 4, 5, 5):
        cone = random_pointed_cone(rng, dim, rng.randint(1, dim + 3))
        corpus += [(cone, s) for s in cone_automorphism_candidates(cone, rng)]
    sq = square_cone()
    ident, uni = cone_automorphism_candidates(sq, rng)
    a, b = as_vec(("1/3", "0", "1/2")), as_vec(("2", "-1/5", "7/3"))
    corpus += [
        (sq, make_affine_iso(uni, a, b)),
        (sq, compose_isos(uni, identity_iso(uni.target_cone))),
        (sq, compose_isos(make_affine_iso(ident, a, b), make_affine_iso(ident, b, a))),
    ]

    def unimodular(sub):
        return cone_automorphism_candidates(sub, rng)[1]

    for cone in (orthant(2), orthant(3), interval_cone()):
        for ray_map in (PWL_DOUBLING, AffineMap(Fraction(3, 2))):
            corpus.append((cone, _lift(cone, ray_map, unimodular)))
    o3 = orthant(3)
    corpus.append((o3, _lift(o3, AffineMap(Fraction(1, 3)),
                             lambda sub: _lift(sub, PWL_DOUBLING, identity_iso))))
    # An odd-power ray map is an order-isomorphism whose inverse is inexact.
    corpus.append((o3, _lift(o3, OddPowerMap(3), identity_iso)))
    return corpus + _diagonal_corpus()


def _diagonal_corpus():
    """Diagonal specs over simplicial frames, inexact odd powers included,
    alone and as parts of the other kinds."""
    corpus = []
    for d in (2, 3, 4):  # the odd-power diagonals of the check-iso benchmark
        o = orthant(d)
        corpus.append((o, make_diagonal_iso(o, list(o.generators), [OddPowerMap(3)] * d)))
    # A simplicial cone that is not an orthant, onto one over a rational frame
    simp = cone_from_generators(3, [(2, 1, 0), (0, 1, 3), (1, -1, 1)])
    frame = [as_vec(w) for w in (("1/2", "1/3", 0), (0, "2/5", "-1/7"), ("3/4", 0, 1))]
    image = cone_from_generators(3, frame)
    for maps in ([OddPowerMap(3)] * 3, [OddPowerMap(5)] * 3, [OddPowerMap(7)] * 3,
                 [PWL_DOUBLING] * 3,
                 [AffineMap(Fraction(1, 3)), AffineMap(2), AffineMap(Fraction(5, 4))],
                 [PWL_DOUBLING, AffineMap(Fraction(3, 2)), OddPowerMap(5)]):
        corpus.append((simp, make_diagonal_iso(simp, frame, maps)))
    # Source frames that permute and positively rescale the generators
    g = simp.generators
    permuted = [tuple(Fraction(5, 2) * c for c in g[2]), g[0], tuple(7 * c for c in g[1])]
    corpus.append((simp, DiagonalIso(simp, permuted, [PWL_DOUBLING, OddPowerMap(3),
                                                      AffineMap(Fraction(2, 3))],
                                     frame, image)))
    # Frame entries of 2^40 and more, where the float root is furthest from
    # exact.  The source cones stay orthants: over a source whose primitive
    # generators have such entries, the facet normals do too, and the float
    # order test of the sampled battery (iso._leq_tol) is then not exact
    # enough to pass the inexact preimages of an order-isomorphism.
    big = 1 << 40
    o3 = orthant(3)
    huge = [(big + 1, 1, 0), (0, big + 3, -1), (1, 0, big - 1)]
    scaled = [(big, 0, 0), (0, big + 1, 0), (0, 0, 3 * big)]
    for k in (3, 5, 7):
        corpus.append((o3, make_diagonal_iso(o3, huge, [OddPowerMap(k)] * 3)))
        corpus.append((o3, make_diagonal_iso(o3, scaled, [OddPowerMap(k)] * 3)))
    corpus.append((o3, DiagonalIso(o3, scaled, [OddPowerMap(3), PWL_DOUBLING, OddPowerMap(7)],
                                   list(o3.generators), o3)))
    # A certified diagonal as a product-lift sub, inside compositions and
    # under a translate
    corpus.append((o3, _lift(o3, PWL_DOUBLING, lambda sub: make_diagonal_iso(
        sub, list(sub.generators), [OddPowerMap(3), PWL_DOUBLING]))))
    diag = make_diagonal_iso(simp, frame, [OddPowerMap(3), PWL_DOUBLING, OddPowerMap(5)])
    back = make_diagonal_iso(image, list(simp.generators), [OddPowerMap(3)] * 3)
    corpus += [
        (simp, compose_isos(diag, identity_iso(image))),
        (simp, compose_isos(diag, back)),
        (simp, make_affine_iso(diag, as_vec(("1/3", "0", "1/2")), as_vec(("2", "-1/5", "7/3")))),
    ]
    return corpus


def _battery_json(pairs):
    """The violation pairs run_full_battery prints out of a full list."""
    return [[vec_to_json(x), vec_to_json(y)] for x, y in pairs[:cli_mod.SHOWN_PAIRS]]


class TestCertifiedBattery:
    """check-iso decides a spec that passes its integer certificate without
    drawing samples, and draws the rest only until the report is settled."""

    def test_certified_reports_equal_sampled_reports(self, monkeypatch):
        for i, (cone, spec) in enumerate(_certified_corpus()):
            assert spec._certified()
            with monkeypatch.context() as m:
                m.setattr(cli_mod, "check_order_iso_sampled", None)
                got = run_full_battery(cone, spec, 300, i)
            with monkeypatch.context() as m:
                m.setattr(IsoSpec, "_certified", lambda self: False)
                want = run_full_battery(cone, spec, 300, i)
            assert got == want
            assert got["battery"] == {"verdict": "PassedSampling", "samples_run": 300,
                                      "order_preserving_violations": [],
                                      "inverse_violations": []}

    @staticmethod
    def _forged(kind):
        """A spec of the kind that must not certify, on its source cone."""
        sq, o2, o3 = square_cone(), orthant(2), orthant(3)
        eye = [as_vec(r) for r in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        bad_inverse = LinearIso(eye, sq, sq, inverse=[[2 * c for c in r] for r in eye])
        split = disengaged_split(o2, 0)
        flat = identity_iso(split.subcone)
        if kind == "bad_inverse":
            return sq, bad_inverse
        if kind == "leaves_target":  # (1, 1, 1) goes to (2, 1, 1)
            return sq, LinearIso([(2, 0, 0), (0, 1, 0), (0, 0, 1)], sq, sq)
        if kind == "misses_target":  # into the target, not onto it
            return sq, LinearIso([("1/2", 0, 0), (0, 1, 0), (0, 0, 1)], sq, sq)
        if kind == "compose":
            return sq, compose_isos(identity_iso(sq), bad_inverse)
        if kind == "forged_sub_lift":
            return o3, _lift(o3, PWL_DOUBLING, lambda sub: LinearIso(
                ((1, 0), (0, 1)), sub, sub, inverse=((1, 0), (0, 2))))
        if kind == "moved_zero_lift":  # t -> t + 1 on the ray
            return o2, ProductLiftIso(o2, 0, AffineMap(1, 1), flat, split, o2)
        # diagonals built below make_diagonal_iso, each frame pair failing
        # one condition of the certificate
        g = o2.generators
        if kind == "partial_frame_diagonal":  # as the check-iso benchmark forges them
            frame = [sq.generators[i] for i in (2, 0, 3)]
            return sq, DiagonalIso(sq, frame, [PWL_DOUBLING, OddPowerMap(3), PWL_DOUBLING],
                                   frame, sq)
        if kind == "non_simplicial_diagonal":  # all four generators, dependent
            return sq, DiagonalIso(sq, sq.generators, [PWL_DOUBLING] * 4, sq.generators, sq)
        if kind == "non_generator_frame":
            return o2, DiagonalIso(o2, [g[0], (1, 1)], [OddPowerMap(3)] * 2, g, o2)
        if kind == "negated_frame":
            return o2, DiagonalIso(o2, g, [OddPowerMap(3)] * 2, [g[0], (0, -1)], o2)
        if kind == "duplicated_frame":
            return o2, DiagonalIso(o2, [(1, 0), (2, 0)], [PWL_DOUBLING] * 2, g, o2)
        if kind == "moved_zero_diagonal":  # t -> t + 1 on one coordinate
            return o2, DiagonalIso(o2, g, [AffineMap(1, 1), PWL_DOUBLING], g, o2)
        if kind == "non_inverse_projection_lift":  # split coordinates doubled
            doubled = replace(split, projection=[[2 * c for c in r] for r in split.projection])
            return o2, ProductLiftIso(o2, 0, PWL_DOUBLING, flat, doubled, o2)
        # a source or target cone that is not R+ ray (+) subcone in the split
        # coordinates, where the ray is (0, 1) and the subcone's generator
        # (1, 0): without the ray, with a generator at t < 0 or at w < 0, or
        # without the subcone's generator
        wedge = cone_from_generators(2, [(1, 0), (1, 1)])
        unsplit = {"negative_ray_coordinate_lift": [(0, 1), (1, -1)],
                   "negative_sub_coordinate_lift": [(-1, 1), (1, 0)],
                   "missing_sub_generator_lift": [(0, 1), (1, 1)]}
        if kind in unsplit:
            cone = cone_from_generators(2, unsplit[kind])
            return cone, ProductLiftIso(cone, 0, PWL_DOUBLING, flat, split, o2)
        if kind == "unsplit_source_lift":
            return wedge, ProductLiftIso(wedge, 0, PWL_DOUBLING, flat, split, o2)
        return o2, ProductLiftIso(o2, 0, PWL_DOUBLING, flat, split, wedge)

    @pytest.mark.parametrize("kind, verdict", [
        ("bad_inverse", "Violation"), ("leaves_target", "Violation"),
        ("misses_target", "Violation"), ("compose", "Violation"),
        ("forged_sub_lift", "Violation"),
        # maps the cone onto its translate by the ray: the battery compares
        # differences, so it sees no violation; the apex check of
        # run_full_battery refutes it (test_moved_apex_is_a_violation)
        ("moved_zero_lift", "PassedSampling"),
        ("non_inverse_projection_lift", "Violation"),
        ("unsplit_source_lift", "Violation"),
        ("unsplit_target_lift", "Violation"),
        ("negative_ray_coordinate_lift", "Violation"),
        ("negative_sub_coordinate_lift", "Violation"),
        ("missing_sub_generator_lift", "Violation"),
        ("partial_frame_diagonal", "Violation"), ("non_simplicial_diagonal", "Violation"),
        ("non_generator_frame", "Violation"), ("negated_frame", "Violation"),
        ("duplicated_frame", "Violation"),
        # caught by the apex check, as moved_zero_lift is
        ("moved_zero_diagonal", "PassedSampling"),
    ])
    def test_forged_specs_keep_their_sampled_report(self, monkeypatch, kind, verdict):
        cone, spec = self._forged(kind)
        assert not spec._certified()
        report = run_full_battery(cone, spec, 600, 3)
        with monkeypatch.context() as m:
            m.setattr(IsoSpec, "_certified", lambda self: False)
            assert run_full_battery(cone, spec, 600, 3) == report
        full = check_order_iso_sampled(spec, 600, 3)
        assert report["battery"] == {
            "verdict": full.verdict, "samples_run": 600,
            "order_preserving_violations": _battery_json(full.order_preserving_violations),
            "inverse_violations": _battery_json(full.inverse_violations)}
        assert full.verdict == verdict
        assert (report["verdict"], report["exit_code"]) == ("violation", 4)

    def test_moved_apex_is_a_violation(self):
        # t -> t + 1 on the ray sends 0 to (0, 1): every sampled stage passes,
        # and the map is affine, but it is not onto the cone.  The one
        # evaluation at the apex notes NotConeMap in the affine section.
        cone, spec = self._forged("moved_zero_lift")
        assert spec.eval((0, 0)) == (0, 1)
        report = run_full_battery(cone, spec, 2000, 3)
        g_r = [{"ray_index": i, "engaged": False, "colinear": True,
                "basepoint_independent": True, "identity": True} for i in range(2)]
        assert report == {
            "seed": 3, "samples": 2000, "exact": True,
            "battery": {"verdict": "PassedSampling", "samples_run": 2000,
                        "order_preserving_violations": [], "inverse_violations": []},
            "halfline": {"checked": 2, "passed": 2, "failures": []},
            "parallelogram": {"checked": 20, "passed": 20, "witness": None},
            "additivity": {"checked": 20, "passed": 20, "witness": None},
            "g_r": g_r,
            "affine": {"affine": True, "max_residual": "0", "error": "NotConeMap"},
            "homogeneous": False,
            "verdict": "violation", "exit_code": 4}

    def test_lift_over_an_apexed_sub_does_not_certify(self):
        # The sub is defined on [1, oo) only, so the lift is undefined at
        # some cone points; the identities of run_full_battery raise there.
        o2 = orthant(2)
        split = disengaged_split(o2, 0)
        sub = make_affine_iso(identity_iso(split.subcone), [1], [1])
        spec = ProductLiftIso(o2, 0, PWL_DOUBLING, sub, split, o2)
        assert sub._certified() and not spec._certified()
        assert check_order_iso_sampled(spec, 300, 0, limit=5).verdict == "Violation"

    def test_lift_of_the_wrong_dimension_does_not_certify(self):
        # _splits reads the split coordinates of each generator, which do
        # not show a target or sub cone of the wrong dimension
        o2, o3 = orthant(2), orthant(3)
        split = disengaged_split(o2, 0)
        flat = identity_iso(split.subcone)
        for target in (orthant(1), o3):
            assert not ProductLiftIso(o2, 0, PWL_DOUBLING, flat, split, target)._certified()
        assert not ProductLiftIso(o2, 0, PWL_DOUBLING, identity_iso(o2), split, o2)._certified()
        assert not ProductLiftIso(o3, 0, PWL_DOUBLING, identity_iso(orthant(1)),
                                  disengaged_split(o3, 0), o3)._certified()

    def test_identity_stages_report_an_undefined_spec_as_a_violation(self, monkeypatch):
        # The lift above is undefined at some cone points: the halfline,
        # additivity and affine-fit stages note the exception in their
        # sections and count it as a violation, as the g_r stage does,
        # instead of raising.
        o2 = orthant(2)
        split = disengaged_split(o2, 0)
        sub = make_affine_iso(identity_iso(split.subcone), [1], [1])
        spec = ProductLiftIso(o2, 0, PWL_DOUBLING, sub, split, o2)
        report = run_full_battery(o2, spec, 300, 0)
        assert (report["verdict"], report["exit_code"]) == ("violation", 4)
        assert report["halfline"] == {"checked": 2, "passed": 1, "failures": [0],
                                      "error": "OutOfDomain"}
        assert report["additivity"]["error"] == "OutOfDomain"
        assert report["additivity"]["witness"] is not None
        assert report["affine"] == {"affine": None, "max_residual": None,
                                    "error": "OutOfDomain"}
        canonical_dumps(report)
        # Homogeneity runs on its own sample points; an undefined point there
        # is noted next to the (undecided) verdict.  The identity's stages
        # are forced to run, not read off its certificate.
        def undefined(*args):
            raise OutOfDomain("point outside the apexed source domain")
        monkeypatch.setattr(cli_mod, "check_positively_homogeneous", undefined)
        _prove_at_most_iso(monkeypatch)
        report = run_full_battery(o2, identity_iso(o2), 300, 0)
        assert (report["homogeneous"], report["homogeneous_error"]) == (None, "OutOfDomain")
        assert (report["verdict"], report["exit_code"]) == ("violation", 4)

    def test_undefined_lift_report_matches_golden_bytes(self):
        # The lift over an apexed sub above, whole: the halfline, additivity
        # and affine sections meet its undefined points, so its report pins
        # how each stage notes one.
        o2 = orthant(2)
        split = disengaged_split(o2, 0)
        sub = make_affine_iso(identity_iso(split.subcone), [1], [1])
        spec = ProductLiftIso(o2, 0, PWL_DOUBLING, sub, split, o2)
        report = run_full_battery(o2, spec, 300, 0)
        report["command"] = "check-iso"
        golden = (DATA / "orthant2_undefined_lift.report.json").read_bytes()
        assert canonical_dumps(report).encode("utf-8") == golden


# The identity stages of run_full_battery, by their names in coneorder.cli
STAGES = ("halfline_image_check", "check_parallelogram", "check_additivity",
          "extract_g_r", "check_affine_on", "check_positively_homogeneous")


def _stage_calls(monkeypatch, cone, spec, samples, seed):
    """(report, {stage: calls}) of one run_full_battery."""
    entered = dict.fromkeys(STAGES, 0)
    with monkeypatch.context() as m:
        for name in STAGES:
            def shim(*args, _name=name, _orig=getattr(cli_mod, name)):
                entered[_name] += 1
                return _orig(*args)
            m.setattr(cli_mod, name, shim)
        report = run_full_battery(cone, spec, samples, seed)
    return report, entered


def _prove_at_most_iso(m):
    """Make no spec prove more than ISO: a certified spec still skips the
    sampled battery, and its identity stages run instead of being written
    from its certificate."""
    proves = IsoSpec._certified
    m.setattr(IsoSpec, "_certified", lambda self: min(proves(self), ISO))


def _every_stage(cone, spec):
    """The stages run_full_battery runs on spec: parallelogram and additivity
    need two generators, and homogeneity a cone-based spec."""
    stages = set(STAGES)
    if len(cone._gen_ints) < 2:
        stages -= {"check_parallelogram", "check_additivity"}
    if spec._bases != (None, None):
        stages.discard("check_positively_homogeneous")
    return stages


class TestCertifiedAffineStages:
    """A certified linear map, an affine translate of one or a chain of such
    maps has its identity sections written by its certificate; every other
    spec runs the stages."""

    def test_certificate_writes_the_sections_the_stages_would(self, monkeypatch):
        # Keeps the cross-check the stages give the certificate: the report
        # bytes equal those with the stages forced to run.  300 and 2000
        # samples give 5 and 20 parallelogram and additivity configurations.
        affine = [(i, cone, spec) for i, (cone, spec) in enumerate(_certified_corpus())
                  if spec._certified() == AFFINE]
        assert {type(spec) for _, _, spec in affine} == {LinearIso, AffineIso, ComposeIso}
        assert any(spec._bases != (None, None) for _, _, spec in affine)
        for samples in (300, 2000):
            for i, cone, spec in affine:
                report, entered = _stage_calls(monkeypatch, cone, spec, samples, i)
                assert not any(entered.values()), (i, entered)
                with monkeypatch.context() as m:
                    _prove_at_most_iso(m)
                    forced = run_full_battery(cone, spec, samples, i)
                assert canonical_dumps(report) == canonical_dumps(forced), i

    @pytest.mark.parametrize("kind", ["bad_inverse", "leaves_target", "misses_target",
                                      "compose"])
    def test_forged_linear_specs_run_every_stage(self, monkeypatch, kind):
        cone, spec = TestCertifiedBattery._forged(kind)
        assert not spec._certified()
        report, entered = _stage_calls(monkeypatch, cone, spec, 300, 0)
        assert {name for name, calls in entered.items() if calls} == set(STAGES)
        assert report["verdict"] == "violation"

    def test_certified_maps_that_are_not_affine_run_every_stage(self, monkeypatch):
        others = [(i, cone, spec) for i, (cone, spec) in enumerate(_certified_corpus())
                  if spec._certified() != AFFINE]
        assert {type(spec) for _, _, spec in others} == {
            DiagonalIso, ProductLiftIso, AffineIso, ComposeIso}
        for i, cone, spec in others:
            assert spec._certified() == ISO
            _, entered = _stage_calls(monkeypatch, cone, spec, 300, i)
            assert {name for name, calls in entered.items() if calls} == _every_stage(
                cone, spec), i


class TestVerdictRule:
    """run_full_battery reads its verdict off the finished sections: a failed
    or undefined identity is a violation (exit 4); a map that is not
    homogeneous, or not affine, is not (a non-affine fit is nonlinear, exit
    1).  Each case replaces
    one stage's check, by its name in coneorder.cli, on the identity of the
    square cone, whose report is otherwise "affine", exit 0.  The identity
    is certified affine, so every case forces its stages to run instead of
    reading them off the certificate."""

    # a failing return value for each identity whose failure is a violation;
    # every ray of the square cone is engaged, so a g_r value other than lam
    # breaks the identity g_r = id
    FAILING = {
        "halfline_image_check": False,
        "check_parallelogram": False,
        "check_additivity": False,
        "extract_g_r": [GRow(Fraction(1), (0, 0, 1), Fraction(2))],
    }

    @pytest.fixture(autouse=True)
    def _forced_stages(self, monkeypatch):
        _prove_at_most_iso(monkeypatch)

    @staticmethod
    def _verdict(spec=None):
        sq = square_cone()
        report = run_full_battery(sq, spec or identity_iso(sq), 200, 0)
        return report["verdict"], report["exit_code"]

    def test_unchanged_identity_is_affine(self):
        assert self._verdict() == ("affine", 0)

    @pytest.mark.parametrize("name", sorted(FAILING))
    def test_a_failing_identity_is_a_violation(self, monkeypatch, name):
        monkeypatch.setattr(cli_mod, name, lambda *args, _v=self.FAILING[name]: _v)
        assert self._verdict() == ("violation", 4)

    @pytest.mark.parametrize("name", sorted(FAILING) + ["check_affine_on",
                                                        "check_positively_homogeneous"])
    def test_an_undefined_identity_is_a_violation(self, monkeypatch, name):
        def undefined(*args):
            raise OutOfDomain("point outside the source domain")
        monkeypatch.setattr(cli_mod, name, undefined)
        assert self._verdict() == ("violation", 4)

    def test_a_sampled_violation_is_a_violation(self, monkeypatch):
        spec = identity_iso(square_cone())
        monkeypatch.setattr(spec, "_certify", lambda: False)
        monkeypatch.setattr(cli_mod, "check_order_iso_sampled",
                            lambda spec, n, seed, limit: IsoReport((), (), n, "Violation"))
        assert self._verdict(spec) == ("violation", 4)

    @pytest.mark.parametrize("image", [(0, 0, 1), None])
    def test_a_moved_or_undefined_apex_is_a_violation(self, monkeypatch, image):
        def at_apex(x):
            if image is None:
                raise OutOfDomain("point outside the source domain")
            return image
        spec = identity_iso(square_cone())
        monkeypatch.setattr(spec, "eval", at_apex)
        assert self._verdict(spec) == ("violation", 4)

    def test_not_homogeneous_is_no_violation(self, monkeypatch):
        # the verdict between affine and nonlinear is the fit's alone
        monkeypatch.setattr(cli_mod, "check_positively_homogeneous", lambda *args: False)
        assert self._verdict() == ("affine", 0)

    def test_not_affine_is_nonlinear(self, monkeypatch):
        fit = cli_mod.check_affine_on
        monkeypatch.setattr(cli_mod, "check_affine_on", lambda spec, pts: replace(
            fit(spec, pts), affine=False, max_residual=Fraction(1)))
        assert self._verdict() == ("nonlinear", 1)

    def test_a_small_odd_power_is_not_affine(self):
        # x -> (x / 2^40)^3 per coordinate: forward images are exact, so the
        # tiny residual of the fit is not rounded away, although the spec's
        # inverse is approximate.
        o3 = orthant(3)
        t = 2**40
        frame = [(t, 0, 0), (0, t + 1, 0), (0, 0, 3 * t)]
        spec = DiagonalIso(o3, frame, [OddPowerMap(3)] * 3, o3.generators, o3)
        assert not spec.exact
        report = run_full_battery(o3, spec, 200, 0)
        assert report["affine"]["affine"] is False
        assert (report["verdict"], report["exit_code"]) == ("nonlinear", 1)


class TestStoppingOrder:
    """A stage notes the first exception its check raises, so a check that
    stops at its first failure notes none where the spec is undefined only
    behind that failure.  The kinked half-line starts at the point the stage
    draws, as run_full_battery draws it, on orthant(1)."""

    SEED = 3

    def test_halfline_section_notes_no_error(self):
        o1 = orthant(1)
        apex = cone_point_ints(o1, rng_for(self.SEED, "hl", 0))
        spec = HalflineKink(o1, apex, [1], Fraction(1, 2), [Fraction(-1, 2)])
        report = run_full_battery(o1, spec, 300, self.SEED)
        assert report["halfline"] == {"checked": 1, "passed": 0, "failures": [0]}
        assert report["verdict"] == "violation"

    def test_g_r_section_notes_not_colinear(self):
        o1 = orthant(1)
        base = cone_point_ints(o1, rng_for(self.SEED, "gr", 0, 0))
        spec = HalflineKink(o1, base, [1], 1, [-1])
        report = run_full_battery(o1, spec, 300, self.SEED)
        assert report["g_r"] == [{"ray_index": 0, "engaged": False, "colinear": False,
                                  "error": "NotColinear"}]


class TestPsdCommands:
    def test_witness(self, files, capsys):
        code, out, _ = run(capsys, "psd", "witness", "--n", "3", "--x", "e1")
        assert code == 0
        rep = json.loads(out)
        assert rep["residual"] <= 1e-10
        assert rep["w"] == [0.0, 1.0, 0.0]

    def test_supcheck_flags_violation(self, files, capsys):
        code, out, _ = run(capsys, "psd", "supcheck", "--n", "2", "--b", "diag:1,0.5",
                           "--samples", "200")
        assert code == 1
        rep = json.loads(out)
        assert rep["verdict"] == "NOT_UPPER_BOUND"
        assert abs(rep["witness"][0]) < 1e-6 and abs(abs(rep["witness"][1]) - 1) < 1e-6

    def test_conj(self, files, capsys):
        code, out, _ = run(capsys, "psd", "conj", "--n", "2", "--a", "diag:4,1",
                           "--q", "proj:e1")
        assert code == 0
        rep = json.loads(out)
        assert rep["image"] == [[4.0, 0.0], [0.0, 0.0]]

    def test_not_positive_definite_exit_6(self, files, capsys):
        code, _, _ = run(capsys, "psd", "conj", "--n", "2", "--a", "diag:1,0",
                         "--q", "eye")
        assert code == 6

    def test_diag_division_by_zero_exit_2(self, capsys):
        code, out, err = run(capsys, "psd", "supcheck", "--n", "2", "--b", "diag:1/0,1")
        assert code == 2 and out == ""
        assert "bad rational '1/0'" in err

    @pytest.mark.parametrize("entry", ["NaN", "1e400"])
    def test_non_finite_matrix_file_exit_2(self, capsys, tmp_path, entry):
        path = tmp_path / "m.json"
        path.write_text('{"n":2,"rows":[[1,0],[0,%s]]}' % entry)
        for argv in (["supcheck", "--b", str(path)],
                     ["conj", "--n", "2", "--a", "eye", "--q", str(path)]):
            code, out, err = run(capsys, "psd", *argv, "--samples", "50")
            assert code == 2 and out == ""
            assert "matrix entries must be finite" in err

    @pytest.mark.parametrize("argv, message", [
        (["supcheck", "--n", "2", "--b", "diag:1e308,1e308"],
         "conelab: invalid value: matrix entries overflow the float range when symmetrized"),
        (["supcheck", "--n", "2", "--b", "proj:1e300,1e300"],
         "conelab: parse error: the norm of 'proj:1e300,1e300' overflows the float range"),
        (["witness", "--n", "2", "--x", "1e300,1e300"],
         "conelab: parse error: the norm of '1e300,1e300' overflows the float range"),
        (["conj", "--n", "2", "--a", "diag:4,4", "--q", "diag:3e307,3e307"],
         "conelab: invalid value: matrix entries must be finite"),
        (["conj", "--a", "diag:1e300,1", "--q", "diag:1e300,1"],
         "conelab: invalid value: matrix entries must be finite"),
    ])
    def test_overflow_is_named_without_warnings(self, capsys, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "psd", *argv, "--samples", "20")
        assert code == 2 and out == ""
        assert err == message + "\n"

    @pytest.mark.parametrize("argv", [
        ["supcheck", "--n", "2", "--b", "diag:1e200,1e200"],
        ["conj", "--a", "diag:1e200,1", "--q", "eye"],
        ["approx", "--a", "diag:1e160,1", "--kmax", "3"],
    ])
    def test_huge_finite_entries_exit_0_without_warnings(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "psd", *argv, "--samples", "20")
        assert code == 0 and out and err == ""

    def test_peak_entry_near_the_float_limit(self, capsys, tmp_path):
        # A matrix file with entries up to 8e307 gets the verdict, witness
        # and scaled lambda_min of the same matrix at peak 1, with no warning.
        rng = np.random.default_rng(1)
        a = rng.normal(size=(8, 8))
        a = (a + a.T) / 2
        a /= np.max(np.abs(a))
        reports = []
        for scale in (1.0, 8e307):
            path = tmp_path / f"m{scale}.json"
            path.write_text(json.dumps({"n": 8, "rows": (a * scale).tolist()}))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(capsys, "psd", "supcheck", "--b", str(path),
                                     "--samples", "20")
            assert err == ""
            reports.append((code, json.loads(out)))
        (code, small), (code_big, big) = reports
        assert code_big == code == 1 and big["verdict"] == small["verdict"] == "NOT_UPPER_BOUND"
        assert np.allclose(big["witness"], small["witness"], atol=1e-10)
        assert math.isclose(big["lambda_min"] / 8e307, small["lambda_min"], rel_tol=1e-12)

    def test_conj_image_of_a_symmetric_input_is_symmetric(self, capsys):
        # The float product A^(1/2) Q A^(1/2) of these inputs is asymmetric
        # past 1e-14 relative; it is symmetrized, not refused as input.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "psd", "conj",
                                 "--a", str(DATA / "ill_conditioned.conj-a.json"),
                                 "--q", str(DATA / "ill_conditioned.conj-q.json"))
        assert code == 0 and err == ""
        image = np.array(json.loads(out)["image"])
        assert np.array_equal(image, image.T)

    @pytest.mark.parametrize("entry", [1e20, 1e300, 8.9e307])
    def test_approx_of_a_large_psd_matrix_names_float_precision(self, capsys, tmp_path,
                                                                 entry):
        # A rank-one PSD matrix with every entry huge: A + I rounds back to A,
        # which is singular, so the conjugation by A + I cannot be formed.
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"n": 8, "rows": [[entry] * 8] * 8}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "psd", "approx", "--a", str(path), "--kmax", "2")
        assert code == 2 and out == ""
        assert "A + I is not positive definite in float precision" in err

    def test_approx_of_a_non_psd_matrix_exit_6(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "psd", "approx", "--a", "diag:-2,1")
        assert code == 6 and out == ""
        assert err == "conelab: lambda_min = -1.0\n"

    def test_approx_csv_output(self, files, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, _, _ = run(capsys, "psd", "approx", "--a", "diag:1,1", "--n", "2",
                         "--kmax", "4", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "k,d_k,e_k"
        assert len(lines) == 5


@pytest.mark.parametrize("count", ["0", "-5"])
def test_nonpositive_samples_exit_2(files, capsys, count):
    code, out, err = run(capsys, "check-iso", files["orthant2"], files["ident2"],
                         "--samples", count)
    assert code == 2 and out == ""
    assert "--samples" in err
    code, out, _ = run(capsys, "psd", "supcheck", "--n", "2", "--b", "eye", "--samples", count)
    assert code == 2 and out == ""


@pytest.mark.parametrize("count", [0, -3])
def test_batteries_refuse_nonpositive_samples(count):
    """A battery that runs no samples must not pass, called as a library too."""
    spec = identity_iso(orthant(2))
    message = f"^samples must be at least 1, got {count}$"
    with pytest.raises(ValueError, match=message):
        check_order_iso_sampled(spec, count)
    with pytest.raises(ValueError, match=message):
        run_full_battery(orthant(2), spec, count, 0)


@pytest.mark.parametrize("kmax", ["0", "-1", "-5"])
def test_negative_kmax_exit_2(files, capsys, kmax):
    code, out, err = run(capsys, "psd", "approx", "--a", "diag:1,1", "--n", "2",
                         "--kmax", kmax)
    assert code == 2 and out == ""
    assert "--kmax" in err


def test_kmax_above_the_cap_exit_2(files, capsys):
    # refused before a matrix is parsed or a row of the table is held
    kmax = cli_mod.MAX_KMAX + 1
    code, out, err = run(capsys, "psd", "approx", "--a", "diag:1,1", "--n", "2",
                         "--kmax", str(kmax))
    assert (code, out) == (2, "")
    assert f"--kmax must be from 1 to {cli_mod.MAX_KMAX}, got {kmax}" in err


@pytest.mark.parametrize("argv", [["supcheck", "--n", "2", "--b", "eye"],
                                  ["approx", "--n", "2", "--a", "diag:2,1", "--kmax", "2"]])
def test_negative_seed_of_a_seeded_psd_command_exit_2(capsys, argv):
    # numpy takes no negative seed; the flag is refused by name before it
    # reaches numpy, whose own message does not name it
    code, out, err = run(capsys, "psd", *argv, "--seed", "-1")
    assert (code, out) == (2, "")
    assert err == "conelab: parse error: --seed must be non-negative, got -1\n"
    assert run(capsys, "psd", *argv, "--seed", "0")[0] == 0


def test_negative_seed_elsewhere_is_accepted(files, capsys):
    assert run(capsys, "psd", "witness", "--n", "2", "--x", "e1", "--seed", "-1")[0] == 0
    assert run(capsys, "psd", "conj", "--a", "diag:1,2", "--q", "eye", "--n", "2",
               "--seed", "-1")[0] == 0
    assert run(capsys, "classify", files["square"], "--seed", "-1")[0] == 0


def _matrix_file(tmp_path, name, n, rows):
    path = tmp_path / name
    path.write_text(json.dumps({"n": n, "rows": rows}))
    return str(path)


@pytest.mark.parametrize("argv, message", [
    # --q must have the size of --a, and is refused before any product
    (["conj", "--a", "diag:1,2", "--q", "{eye3}"], "is 3 x 3, expected 2 x 2"),
    # with --n, a matrix file of another size is refused, as an inline one is
    (["supcheck", "--n", "3", "--b", "{eye2}"], "is 2 x 2, expected 3 x 3"),
    (["approx", "--n", "3", "--a", "{eye2}"], "is 2 x 2, expected 3 x 3"),
    (["conj", "--n", "3", "--a", "{eye2}", "--q", "eye"], "is 2 x 2, expected 3 x 3"),
    (["supcheck", "--n", "2", "--b", "diag:1,2,3"], "'diag:1,2,3' is 3 x 3, expected 2 x 2"),
    # a matrix file's "n" is an int, as a cone's "dim" is
    (["supcheck", "--b", "{float_n}"], "'n' of matrix must be a JSON int"),
])
def test_matrix_of_the_wrong_size_exit_2(capsys, tmp_path, argv, message):
    files = {"eye3": _matrix_file(tmp_path, "eye3.json", 3, np.eye(3).tolist()),
             "eye2": _matrix_file(tmp_path, "eye2.json", 2, np.eye(2).tolist()),
             "float_n": _matrix_file(tmp_path, "float_n.json", 2.0, np.eye(2).tolist())}
    code, out, err = run(capsys, "psd", *[a.format(**files) for a in argv], "--samples", "5")
    assert code == 2 and out == ""
    assert err.startswith("conelab: parse error:") and message in err
    assert "matmul" not in err


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_bad_tol_exit_2(files, capsys, tol):
    code, out, err = run(capsys, "psd", "supcheck", "--n", "2", "--b", "diag:1,0.5",
                         "--tol", tol)
    assert code == 2 and out == ""
    assert "tolerances must be finite and positive" in err


@pytest.mark.parametrize("n", ["1", "9", str(10**6)])
def test_witness_of_an_unsupported_size_exit_2(capsys, n):
    # the sizes every other psd command supports, refused before any
    # n-vector is built
    code, out, err = run(capsys, "psd", "witness", "--n", n, "--x", "e1")
    assert code == 2 and out == ""
    assert err == ("conelab: input error (DimensionMismatch): "
                   "supported sizes are 2 <= n <= 8\n")


def test_witness_refuses_the_tol_it_does_not_read(files, capsys):
    code, out, err = run(capsys, "psd", "witness", "--n", "2", "--x", "e1", "--tol", "0")
    assert code == 2 and out == ""
    assert "tolerances must be finite and positive" in err


def test_out_flag_writes_report(files, capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "classify", files["square"], "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["hypothesis"]["holds"]


ORTHANT1 = {"dim": 1, "generators": [["1"]]}
LINEAR1 = {"linear": {"matrix": [["1"]], "source": ORTHANT1, "target": ORTHANT1}}


@pytest.mark.parametrize("exponent, code", [(MAX_ODD_POWER, 1), (MAX_ODD_POWER + 2, 2)])
def test_odd_power_exponent_limit(files, capsys, tmp_path, exponent, code):
    # Far above the limit, a report runs into the interpreter's limit on
    # the digits of a printed int (exponent 9999 here), after minutes of
    # work for exponent 1000001.
    o2 = {"dim": 2, "generators": [["1", "0"], ["0", "1"]]}
    iso = tmp_path / "power.json"
    iso.write_text(json.dumps({"diagonal": {
        "source": o2, "target_frame": o2["generators"],
        "maps": [{"odd_power": exponent}, {"odd_power": 1}]}}))
    got, out, err = run(capsys, "check-iso", files["orthant2"], str(iso), "--samples", "10")
    assert got == code
    if code == 2:
        assert out == "" and err == (f"conelab: parse error: odd_power exponent {exponent} "
                                     f"exceeds the limit {MAX_ODD_POWER}\n")
    else:
        assert json.loads(out)["verdict"] == "nonlinear"


O2 = {"dim": 2, "generators": [["1", "0"], ["0", "1"]]}


class TestConeReuse:
    """check-iso builds each distinct cone JSON of a run once: a cone field
    of the spec that repeats the cone file, or another field, shares its
    cone.  Repeats are told apart by JSON text, not by Python equality."""

    @pytest.mark.parametrize("matrix, target, builds", [
        ([["1", "0"], ["0", "1"]], {"generators": O2["generators"], "dim": 2}, 1),
        ([["1", "1"], ["0", "1"]], {"dim": 2, "generators": [["1", "0"], ["1", "1"]]}, 2),
    ], ids=["identity", "unimodular"])
    def test_each_distinct_cone_is_built_once(self, files, capsys, monkeypatch,
                                              matrix, target, builds):
        # files["orthant2"] holds O2; key order does not make a cone distinct
        path = files["tmp"] / "iso.json"
        path.write_text(json.dumps({"linear": {"matrix": matrix, "source": O2,
                                               "target": target}}))
        calls = []
        real = cones_mod._build
        monkeypatch.setattr(cones_mod, "_build", lambda *a: calls.append(a) or real(*a))
        code, out, _ = run(capsys, "check-iso", files["orthant2"], str(path), "--samples", "10")
        assert code == 0 and json.loads(out)["verdict"] == "affine"
        assert len(calls) == builds

    @pytest.mark.parametrize("source, message", [
        ({"dim": 2.0, "generators": [[1, 0], [0, 1]]}, "'dim' of cone must be a JSON int"),
        ({"dim": 2, "generators": [[True, 0], [0, 1]]}, "expected a rational, got True"),
    ], ids=["float-dim", "true-entry"])
    def test_a_python_equal_cone_of_other_json_types_is_refused(self, files, capsys,
                                                                source, message):
        # 2 == 2.0 and 1 == True: read as the cone file's cone, these
        # sources would pass the checks that refuse them
        ints = {"dim": 2, "generators": [[1, 0], [0, 1]]}
        cone, iso = files["tmp"] / "ints.json", files["tmp"] / "iso.json"
        cone.write_text(json.dumps(ints))
        iso.write_text(json.dumps({"linear": {"matrix": [[1, 0], [0, 1]], "source": source,
                                              "target": ints}}))
        code, out, err = run(capsys, "check-iso", str(cone), str(iso))
        assert (code, out, err) == (2, "", f"conelab: parse error: {message}\n")

    def test_a_cone_nested_as_deep_as_the_reader_accepts_is_a_parse_error(self, files, capsys,
                                                                           monkeypatch):
        # The key's encoder nests as deep as the reader did on the deepest
        # file the reader accepts, and a frame deeper under a wrapper of
        # parse_iso, such as a tracer's: it then runs out of stack, and the
        # cone gets parse_cone's error
        path = files["tmp"] / "deep.json"

        def check_iso(depth):
            generators = "[" * depth + "]" * depth
            path.write_text('{"linear": {"matrix": [["1"]], "source": {"dim": 1, "generators": '
                            + generators + '}, "target": {"dim": 1, "generators": [["1"]]}}}')
            code, out, err = run(capsys, "check-iso", files["orthant2"], str(path))
            assert (code, out) == (2, "") and "Traceback" not in err
            return err

        lo, hi = 3, 5000  # the reader accepts depth lo and refuses depth hi
        assert "nested too deep" in check_iso(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if "nested too deep" in check_iso(mid):
                hi = mid
            else:
                lo = mid
        assert check_iso(lo) == "conelab: parse error: expected a rational, got list\n"
        real = cli_mod.parse_iso
        monkeypatch.setattr(cli_mod, "parse_iso", lambda *args: real(*args))
        assert check_iso(lo) == "conelab: parse error: expected a rational, got list\n"


_O1 = {"dim": 1, "generators": [["1"]]}
_O2 = {"dim": 2, "generators": [["1", "0"], ["0", "1"]]}
_O3 = {"dim": 3, "generators": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
_ID1 = {"linear": {"matrix": [["1"]], "source": _O1, "target": _O1}}
_ID2 = {"linear": {"matrix": [["1", "0"], ["0", "1"]], "source": _O2, "target": _O2}}
_DOUBLE = {"affine": {"slope": "2"}}


@pytest.mark.parametrize("spec, error", [
    ({"compose": []}, "parse error: compose needs a nonempty list of specs"),
    ({"foo": 1}, "parse error: unknown iso kind 'foo'"),
    ({"product_lift": {"cone": _O3, "ray_index": 7, "ray_map": _DOUBLE, "sub": _ID2}},
     "invalid value: ray index 7 out of range"),
    ({"affine": {"linear": {"affine": {"linear": _ID2, "source_base": ["1", "1"],
                                       "target_base": ["1", "1"]}},
                 "source_base": ["0", "1"], "target_base": ["0", "1"]}},
     "invalid value: inner spec of an affine translate must be cone-based"),
    ({"product_lift": {"cone": _O2, "ray_index": 0, "ray_map": _DOUBLE,
                       "sub": {"affine": {"linear": _ID1, "source_base": ["1"],
                                          "target_base": ["1"]}}}},
     "invalid value: sub iso of a product lift must be cone-based"),
    ({"linear": {"matrix": [["1", "0", "0"], ["0", "1", "0"]], "source": _O3, "target": _O2}},
     "input error (NotConeMap): invertible linear maps need equal dimensions"),
    ({"diagonal": {"source": {"dim": 2, "generators": []}, "target_frame": [], "maps": []}},
     "input error (NotSimplicial): the trivial cone has no generator frame"),
], ids=["empty-compose", "unknown-kind", "ray-index", "apexed-inner", "apexed-sub",
        "unequal-dims", "trivial-diagonal"])
def test_refused_iso_spec_is_one_error_line(files, capsys, spec, error):
    path = files["tmp"] / "refused.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "check-iso", files["orthant2"], str(path))
    assert (code, out, err) == (2, "", f"conelab: {error}\n")


class TestInputLimits:
    """A short file that would make conelab build a huge int or matrix, or
    recurse past the interpreter's limit, is a parse error that names its
    limit.  Only limit + 1 is tried: without its guard each case still ends
    fast, in a report or another error."""

    @staticmethod
    def _limit_error(capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and "Traceback" not in err
        return err

    @pytest.mark.parametrize("entry", [f"1e{MAX_RATIONAL_DIGITS + 1}",
                                       f"1E-{MAX_RATIONAL_DIGITS + 1}",
                                       "1" * (MAX_RATIONAL_DIGITS + 1)],
                             ids=["exponent", "negative-exponent", "length"])
    def test_rational_string(self, files, capsys, entry):
        path = files["tmp"] / "big.json"
        path.write_text(json.dumps({"dim": 2, "generators": [[entry, "1"], ["0", "1"]]}))
        err = self._limit_error(capsys, "classify", str(path))
        assert err == (f"conelab: parse error: a rational string may have at most "
                       f"{MAX_RATIONAL_DIGITS} characters and an exponent of at most "
                       f"{MAX_RATIONAL_DIGITS}\n")

    def test_cone_dim(self, files, capsys):
        path = files["tmp"] / "wide.json"
        path.write_text(json.dumps({"dim": MAX_DIM + 1, "generators": []}))
        err = self._limit_error(capsys, "classify", str(path))
        assert err == f"conelab: parse error: cone dim {MAX_DIM + 1} exceeds the limit {MAX_DIM}\n"

    @pytest.mark.parametrize("depth", [MAX_ISO_DEPTH, MAX_ISO_DEPTH + 1])
    def test_iso_depth(self, files, capsys, depth):
        # a certified composition recurses deepest: it certifies its parts
        # in a generator, three frames a level
        o2 = {"dim": 2, "generators": [["1", "0"], ["0", "1"]]}
        spec = {"linear": {"matrix": [["1", "0"], ["0", "1"]], "source": o2, "target": o2}}
        for _ in range(depth - 1):
            spec = {"compose": [spec]}
        path = files["tmp"] / "deep.json"
        path.write_text(json.dumps(spec))
        argv = ("check-iso", files["orthant2"], str(path), "--samples", "10")
        if depth == MAX_ISO_DEPTH:
            code, out, _ = run(capsys, *argv)
            assert code == 0 and json.loads(out)["verdict"] == "affine"
        else:
            err = self._limit_error(capsys, *argv)
            assert err == f"conelab: parse error: iso spec nests more than {MAX_ISO_DEPTH} specs deep\n"

    def test_report_value(self, files, capsys):
        # the exponent limit admits 10**4300, whose 4301 digits no report prints
        path = files["tmp"] / "wide_entry.json"
        path.write_text(json.dumps({"dim": 2, "generators": [[f"1e{MAX_RATIONAL_DIGITS}", "1"],
                                                             ["0", "1"]]}))
        err = self._limit_error(capsys, "classify", str(path))
        assert err == (f"conelab: invalid value: a report value has more than "
                       f"{MAX_RATIONAL_DIGITS} digits (linalg.MAX_RATIONAL_DIGITS)\n")

    @pytest.mark.parametrize("content", [b'{"dim": 2, "generators": [["\xff", "1"]]}',
                                         b'{"dim": 2, "generators": [[1' + b"0" * 4300 + b', 1]]}'],
                             ids=["not-utf-8", "int-over-4300-digits"])
    def test_unreadable_file(self, files, capsys, content):
        path = files["tmp"] / "unreadable.json"
        path.write_bytes(content)
        err = self._limit_error(capsys, "classify", str(path))
        assert err.startswith(f"conelab: parse error: cannot read {path}: ")


@pytest.mark.parametrize("iso, field", [
    ({"linear": {"source": ORTHANT1, "target": ORTHANT1}}, "matrix"),
    ({"linear": {"matrix": "1", "source": ORTHANT1, "target": ORTHANT1}}, "matrix"),
    ({"diagonal": {"source": ORTHANT1, "target_frame": [["1"]],
                   "maps": [{"affine": {"intercept": "0"}}]}}, "slope"),
    ({"affine": 5}, "affine iso"),
])
def test_incomplete_iso_spec_exit_2(files, capsys, iso, field):
    path = files["tmp"] / "iso.json"
    path.write_text(json.dumps(iso))
    code, out, err = run(capsys, "check-iso", files["orthant2"], str(path))
    assert code == 2 and out == ""
    assert err.startswith("conelab: parse error") and field in err


@pytest.mark.parametrize("ray_index", ["1", 1.5, True, None])
def test_non_integer_ray_index_exit_2(files, capsys, ray_index):
    iso = {"product_lift": {"cone": {"dim": 2, "generators": [["1", "1"], ["-1", "1"]]},
                            "ray_index": ray_index,
                            "ray_map": {"affine": {"slope": "2"}}, "sub": LINEAR1}}
    path = files["tmp"] / "lift.json"
    path.write_text(json.dumps(iso))
    code, out, err = run(capsys, "check-iso", files["twonorm"], str(path))
    assert code == 2 and out == ""
    assert "ray_index" in err


def test_ragged_diagonal_frame_exit_2(files, capsys):
    iso = {"diagonal": {"source": {"dim": 2, "generators": [["1", "0"], ["0", "1"]]},
                        "target_frame": [["1"], ["0", "1"]],
                        "maps": [{"odd_power": 1}, {"odd_power": 3}]}}
    path = files["tmp"] / "ragged.json"
    path.write_text(json.dumps(iso))
    code, out, err = run(capsys, "check-iso", files["orthant2"], str(path))
    assert code == 2 and out == ""
    assert "DimensionMismatch" in err


def test_product_lift_into_the_wrong_dimension_exit_2(files, capsys):
    # The sub maps the 2-dim split subcone of orthant(3) into Q^3, not Q^2:
    # no lift of Q^3 is described, however the extra coordinate is read.
    iso = {"product_lift": {
        "cone": {"dim": 3, "generators": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
        "ray_index": 0,
        "ray_map": {"odd_power": 1},
        "sub": {"diagonal": {"source": {"dim": 2, "generators": [["1", "0"], ["0", "1"]]},
                             "target_frame": [["1", "0", "0"], ["0", "1", "0"]],
                             "maps": [{"odd_power": 1}, {"odd_power": 1}]}}}}
    path = files["tmp"] / "lift3.json"
    path.write_text(json.dumps(iso))
    code, out, err = run(capsys, "check-iso", files["orthant3"], str(path))
    assert code == 2 and out == ""
    assert err == ("conelab: input error (DimensionMismatch): "
                   "sub iso target has dimension 3, expected 2\n")


def test_unwritable_out_exit_2(files, capsys, tmp_path):
    target = tmp_path / "missing" / "r.json"
    code, out, err = run(capsys, "classify", files["square"], "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("conelab: cannot write") and not target.exists()
    code, out, err = run(capsys, "psd", "approx", "--a", "eye", "--n", "2",
                         "--out", str(target))
    assert code == 2 and out == ""


# Fuzzing of the psd commands at the CLI boundary: every input gives an exit
# code from the table in coneorder.cli and never an escaping exception.
EXIT_CODES = {0, 1, 2, 3, 4, 5, 6}

_json_entry = st.one_of(
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400,
                     "true", "false", "null", '"x"', '"1"', "{}", "[]", "[1]", "1e-400"]),
    st.integers(-3, 3).map(str),
    st.floats(-1e3, 1e3).map(repr),
)


def _json_list(items):
    return "[" + ",".join(items) + "]"


_ragged_rows = st.lists(st.lists(_json_entry, max_size=4).map(_json_list), max_size=4)
_symmetric_rows = st.integers(1, 4).flatmap(lambda n: st.lists(
    _json_entry, min_size=n * n, max_size=n * n).map(
    lambda v: [_json_list(v[min(i, j) * n + max(i, j)] for j in range(n)) for i in range(n)]))
_n_token = st.sampled_from(["2", "3", "4", "0", "-1", "9", "true", "null", '"2"', "2.0"])


@st.composite
def _matrix_text(draw):
    rows = _json_list(draw(st.one_of(_ragged_rows, _symmetric_rows)))
    n = draw(st.one_of(_n_token, st.just(str(rows.count("[") - 1))))
    text = '{"n":%s,"rows":%s}' % (n, rows)
    if draw(st.booleans()) and draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    return text


_diag_token = st.one_of(
    st.sampled_from(["1", "0", "-1", "1/2", "3/-4", "1/0", "0/0", "1e400", "-1e400",
                     "1e-400", "1e308", "nan", "inf", "abc", "", " 2", "2.5", "0x1"]),
    st.integers(-5, 5).map(str),
)
_diag_text = st.lists(_diag_token, max_size=4).map(lambda ts: "diag:" + ",".join(ts))


@given(st.data())
def test_psd_commands_fuzzed_exit_codes(data):
    with tempfile.TemporaryDirectory() as tmp:
        def matrix_arg():
            if data.draw(st.booleans()):
                return data.draw(_diag_text)
            path = Path(tmp) / f"m{len(list(Path(tmp).iterdir()))}.json"
            path.write_text(data.draw(_matrix_text()))
            return str(path)

        command = data.draw(st.sampled_from(["supcheck", "conj", "approx"]))
        if command == "supcheck":
            argv = ["supcheck", "--b", matrix_arg()]
        elif command == "conj":
            argv = ["conj", "--a", matrix_arg(), "--q", matrix_arg()]
        else:
            argv = ["approx", "--a", matrix_arg(), "--kmax", "2"]
        if data.draw(st.booleans()):
            argv += ["--n", str(data.draw(st.integers(1, 4)))]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(["psd", *argv, "--samples", "3"])
    assert code in EXIT_CODES


# Fuzzing of the exact-side commands.  Each input file starts as a valid
# cone, points, expression or iso-spec document; then one node may be
# replaced by a malformed value or a key dropped, and the text may be cut
# short.  Dims, entries and exponents stay small, so that no case allocates
# much or runs long.
_small_entry = st.integers(-2, 2).map(str)
_garbage = st.sampled_from([None, True, False, -1, 0, 1, 3, 2.5, "", "x", "1/0", "0/0",
                            "1e400", "-1/3", [], [[]], {}, {"x": 1}, ["1"], ["1", "0", "1"]])
_bijection_doc = st.one_of(
    st.sampled_from(["1", "2", "1/2", "0", "-1"]).map(lambda s: {"affine": {"slope": s}}),
    st.just({"piecewise": {"breakpoints": [["0", "0"], ["1", "2"], ["3", "3"]]}}),
    st.sampled_from([1, 3, 5, 2, 0, -1]).map(lambda e: {"odd_power": e}),
)
_LIFT_CONE = {"dim": 2, "generators": [["1", "1"], ["-1", "1"]]}
_ORTHANT1 = {"dim": 1, "generators": [["1"]]}


def _vec_doc(dim):
    return st.lists(_small_entry, min_size=dim, max_size=dim)


@st.composite
def _random_cone_doc(draw):
    dim = draw(st.integers(1, 4))
    key = draw(st.sampled_from(["generators", "facets"]))
    return {"dim": dim, key: draw(st.lists(_vec_doc(dim), max_size=5))}


_cone_doc = st.one_of(_random_cone_doc(), st.sampled_from([
    _ORTHANT1, _LIFT_CONE,
    {"dim": 2, "generators": [["1", "0"], ["0", "1"]]},
    {"dim": 3, "facets": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
    {"dim": 3, "generators": [["1", "1", "1"], ["-1", "1", "1"], ["1", "-1", "1"],
                              ["-1", "-1", "1"]]},
]))


@st.composite
def _expr_doc(draw, dim, depth=3):
    if depth == 0 or draw(st.booleans()):
        return {"leaf": draw(_vec_doc(dim))}
    children = st.lists(_expr_doc(dim, depth - 1), min_size=1, max_size=3)
    return {draw(st.sampled_from(["sup", "inf"])): draw(children)}


def _identity_doc(cone):
    dim = cone["dim"]
    matrix = [[str(int(i == j)) for j in range(dim)] for i in range(dim)]
    return {"linear": {"matrix": matrix, "source": cone, "target": cone}}


@st.composite
def _iso_doc(draw, cone):
    """(iso-spec document, its source cone document)."""
    dim = cone["dim"]
    kind = draw(st.sampled_from(["linear", "affine", "diagonal", "product_lift", "compose"]))
    if kind == "linear":
        doc = _identity_doc(cone)
        if draw(st.booleans()):
            doc["linear"]["matrix"] = draw(st.lists(_vec_doc(dim), min_size=dim, max_size=dim))
        return doc, cone
    if kind == "affine":
        return {"affine": {"linear": _identity_doc(cone), "source_base": draw(_vec_doc(dim)),
                           "target_base": draw(_vec_doc(dim))}}, cone
    if kind == "diagonal":
        frame = cone.get("generators", cone.get("facets"))
        maps = draw(st.lists(_bijection_doc, min_size=len(frame), max_size=len(frame)))
        return {"diagonal": {"source": cone, "target_frame": frame, "maps": maps}}, cone
    if kind == "product_lift":
        return {"product_lift": {"cone": _LIFT_CONE, "ray_index": draw(st.integers(-1, 2)),
                                 "ray_map": draw(_bijection_doc),
                                 "sub": _identity_doc(_ORTHANT1)}}, _LIFT_CONE
    return {"compose": [_identity_doc(cone), _identity_doc(cone)]}, cone


def _nodes(obj, path=()):
    yield path
    children = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in children:
        yield from _nodes(value, path + (key,))


@st.composite
def _malformed_text(draw, doc):
    """doc as JSON text, possibly with one node replaced or one key dropped
    (on a deep copy), possibly cut short."""
    doc = json.loads(json.dumps(doc))
    mode = draw(st.sampled_from(["replace", "drop", "cut"])) if draw(st.booleans()) else "valid"
    if mode in ("replace", "drop"):
        path = draw(st.sampled_from(list(_nodes(doc))))
        if not path:
            doc = draw(_garbage)
        else:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if mode == "drop" and isinstance(parent, dict):
                del parent[path[-1]]
            else:
                parent[path[-1]] = draw(_garbage)
    text = json.dumps(doc)
    if mode == "cut":
        text = text[:draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_exact_commands_fuzzed_exit_codes(data):
    command = data.draw(st.sampled_from(["extreme-rays", "classify", "hypothesis", "supremum",
                                         "infimum", "evalexpr", "unitnorm", "check-iso"]))
    cone = data.draw(_cone_doc)
    dim = cone["dim"]
    with tempfile.TemporaryDirectory() as tmp:
        def write(doc):
            path = Path(tmp) / f"f{len(list(Path(tmp).iterdir()))}.json"
            path.write_text(data.draw(_malformed_text(doc)))
            return str(path)

        if command == "check-iso":
            iso, source = data.draw(_iso_doc(cone))
            argv = [command, write(source), write(iso)]
        else:
            argv = [command, write(cone)]
        if command in ("supremum", "infimum"):
            argv.append(write({"points": data.draw(st.lists(_vec_doc(dim), max_size=3))}))
        elif command == "evalexpr":
            argv.append(write(data.draw(_expr_doc(dim))))
        elif command == "unitnorm":
            vec_text = st.one_of(
                st.lists(_small_entry, min_size=max(dim - 1, 0), max_size=dim + 1).map(",".join),
                st.sampled_from(["e1", "e0", f"e{dim}", "e9", "ex", "1/0", "", "a,b"]))
            # "-u=..." keeps a value that starts with "-" from reading as a flag
            argv += [f"-u={data.draw(vec_text)}", f"-x={data.draw(vec_text)}"]
        argv += ["--samples", "3", "--seed", str(data.draw(st.integers(0, 3)))]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in EXIT_CODES
