import io
import json
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from coneorder.cli import main, run_full_battery
from coneorder.cones import square_cone
from coneorder.iso import LinearIso
from coneorder.linalg import as_vec
from coneorder.serialize import MAX_EXPR_DEPTH, canonical_dumps


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


@pytest.mark.parametrize("cone,command", [
    ("wedge", "hypothesis"),         # not pointed: a line along the third axis
    ("flat", "hypothesis"),          # pointed, spans a plane of Q^3
    ("flat", "extreme-rays"),
])
def test_cone_report_matches_golden_bytes(capsys, cone, command):
    code, out, _ = run(capsys, command, str(DATA / f"{cone}.json"))
    golden = (DATA / f"{cone}.{command}.report.json").read_bytes()
    assert out.encode("utf-8") == golden
    assert code == (0 if command == "extreme-rays" else 1)


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
        code, _, _ = run(capsys, "check-iso", files["square"], files["ident2"])
        assert code == 2

    def test_byte_identical_reports_for_fixed_seed(self, files, capsys):
        _, out1, _ = run(capsys, "check-iso", files["orthant2"], files["cube"],
                         "--samples", "200", "--seed", "9")
        _, out2, _ = run(capsys, "check-iso", files["orthant2"], files["cube"],
                         "--samples", "200", "--seed", "9")
        assert out1 == out2
        _, out3, _ = run(capsys, "check-iso", files["orthant2"], files["cube"],
                         "--samples", "200", "--seed", "10")
        assert out3 != out1

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


@pytest.mark.parametrize("kmax", ["0", "-1", "-5"])
def test_negative_kmax_exit_2(files, capsys, kmax):
    code, out, err = run(capsys, "psd", "approx", "--a", "diag:1,1", "--n", "2",
                         "--kmax", kmax)
    assert code == 2 and out == ""
    assert "--kmax" in err


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_bad_tol_exit_2(files, capsys, tol):
    code, out, err = run(capsys, "psd", "supcheck", "--n", "2", "--b", "diag:1,0.5",
                         "--tol", tol)
    assert code == 2 and out == ""
    assert "tolerances must be finite and positive" in err


def test_out_flag_writes_report(files, capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "classify", files["square"], "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["hypothesis"]["holds"]


ORTHANT1 = {"dim": 1, "generators": [["1"]]}
LINEAR1 = {"linear": {"matrix": [["1"]], "source": ORTHANT1, "target": ORTHANT1}}


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
