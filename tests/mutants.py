"""Mutants of the decisions a silent weakening could change without breaking a
golden report, and a runner that checks that the tests kill each of them.

Each row of ``MUTANTS`` names a file under src/coneorder, an exact text that
occurs once under src/, its replacement, and the test node ids expected to
fail once the replacement is made.

    python tests/mutants.py [NAME ...]

copies src/, tests/, perfbench/ and pyproject.toml to a temporary directory
and runs the listed tests there, unmutated: they must pass.  Then it applies
each mutant (all of them, or those named) in turn and runs that mutant's
tests with -x, each run in its own process with a timeout and a cap on its
address space.  A mutant whose tests all pass survives.  The exit status is
0 when every mutant is killed, and 1 otherwise.

A tier-1 test (tests/test_tooling.py) checks only that every old text still
occurs exactly once under src/ and that every listed test exists, so the
table cannot rot silently; the run itself stays out of tier-1.
"""
from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600
# A mutant that breaks a termination argument can grow without bound (an
# adjacency test that accepts too many rays multiplies the DD's rays), so
# each run gets a capped address space and fails with MemoryError instead.
ADDRESS_SPACE = 3 << 30


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


_ISO = "tests/test_iso.py::"
_CLI = "tests/test_cli.py::"
_CONES = "tests/test_cones.py::"
_PSD = "tests/test_psd.py::"
_ORDER = "tests/test_order.py::"
_SERIALIZE = "tests/test_serialize.py::"
_FORGED = _CLI + "TestCertifiedBattery::test_forged_specs_keep_their_sampled_report"
_DIAGONAL = (_CLI + "TestCertifiedBattery::test_forged_specs_keep_their_sampled_report",
             _CLI + "TestCertifiedBattery::test_certified_reports_equal_sampled_reports",
             _ISO + "TestDiagonalIso::test_every_accepted_spec_is_certified")

MUTANTS = [
    # The check-iso image comparisons: _minus, _ratio and primitive.
    Mutant("ratio-without-colinearity", "iso.py",
           "    if any(a * vi[j] != b * ui[j] for a, b in zip(ui, vi)):\n"
           "        return None\n", "",
           (_ISO + "TestGrExtraction::test_not_colinear_flags_non_isomorphism",)),
    Mutant("ratio-inverted", "iso.py",
           "    return Fraction(ui[j] * vd, vi[j] * ud)",
           "    return Fraction(vi[j] * ud, ui[j] * vd)",
           (_ISO + "TestGrExtraction::test_cube_map_gives_power",)),
    Mutant("halfline-accepts-a-changed-ray", "iso.py",
           "        elif primitive(diff) != ray:\n            return False\n", "",
           (_ISO + "TestHalflineImages::test_corrupted_map_fails",
            _ISO + "TestStoppingOrder::test_halfline_fails_before_an_undefined_point")),
    Mutant("halfline-accepts-a-zero-difference", "iso.py",
           "            if lam != 0:\n                return False\n",
           "            pass\n",
           (_ISO + "TestStoppingOrder::test_halfline_fails_before_an_undefined_point",
            _CLI + "TestStoppingOrder::test_halfline_section_notes_no_error")),
    Mutant("g-r-evaluates-before-its-colinearity-test", "iso.py",
           "        if not any(d0[0]):\n"
           "            raise NotColinear(\"f(x + r) equals f(x); map cannot be injective\")\n"
           "        basepoint = _fractions((xi, den))\n",
           "        basepoint = _fractions((xi, den))\n"
           "        [f(_axpy(xi, frac(lam), ri, den)) for lam in lambdas]\n"
           "        if not any(d0[0]):\n"
           "            raise NotColinear(\"f(x + r) equals f(x); map cannot be injective\")\n",
           (_ISO + "TestStoppingOrder::test_not_colinear_wins_over_a_later_undefined_point",
            _CLI + "TestStoppingOrder::test_g_r_section_notes_not_colinear")),
    Mutant("homogeneity-against-f-of-u", "iso.py",
           "([p * c for c in fu], q * fd)", "(fu, fd)",
           (_ISO + "TestAffineAndHomogeneity::test_homogeneity",)),
    Mutant("exact-round-trip-always-holds", "iso.py",
           "            return not any(_minus(r2, x2)[0])\n", "            return True\n",
           (_CLI + "TestCertifiedAffineStages::test_forged_linear_specs_run_every_stage",)),
    # The simplicial diagonal certificate (BENCH_29).
    Mutant("diagonal-frame-need-not-be-the-generators", "iso.py",
           "{primitive(scaled_ints(v)[0]) for v in frame} == cone._generator_set", "True",
           _DIAGONAL),
    Mutant("diagonal-frame-need-not-be-independent", "iso.py",
           "len(coords.normals) == cone.dim - n", "True", _DIAGONAL),
    Mutant("scalar-map-need-not-fix-0", "iso.py",
           "PiecewiseLinearMap) and m.fixes_zero()", "PiecewiseLinearMap)", _DIAGONAL),
    Mutant("diagonal-source-frame-unchecked", "iso.py",
           "                and _simplicial_frame(self.source_frame, self._src_coords,"
           " self.source_cone, n)\n", "", _DIAGONAL),
    Mutant("diagonal-target-frame-unchecked", "iso.py",
           "                and _simplicial_frame(self.target_frame, self._tgt_coords,"
           " self.target_cone, n)\n", "", _DIAGONAL),
    Mutant("odd-powers-refused", "iso.py",
           "type(m) in (OddPowerMap, AffineMap, PiecewiseLinearMap)",
           "type(m) in (AffineMap, PiecewiseLinearMap)", _DIAGONAL),
    # The certificates of the linear, product-lift and composed kinds.
    Mutant("linear-inverse-unchecked", "iso.py",
           "        return (src.dim == tgt.dim and _inverse_pair(self._fwd, self._bwd, src.dim)\n",
           "        return (src.dim == tgt.dim\n",
           (_FORGED + "[bad_inverse-Violation]",)),
    Mutant("linear-image-of-a-generator-unchecked", "iso.py",
           "                and all(tgt._in_cone(self._fwd.apply(g)) for g in src._gen_ints)\n",
           "", (_FORGED + "[leaves_target-Violation]",)),
    Mutant("linear-preimage-of-a-generator-unchecked", "iso.py",
           "                and all(src._in_cone(self._bwd.apply(h)) for h in tgt._gen_ints)\n",
           "", (_FORGED + "[misses_target-Violation]",)),
    Mutant("lift-ray-map-unchecked", "iso.py",
           "        return (_fixes_zero_monotone(self.ray_map)\n"
           "                and self.target_cone.dim == dim\n",
           "        return (self.target_cone.dim == dim\n",
           (_FORGED + "[moved_zero_lift-PassedSampling]",)),
    Mutant("lift-target-dimension-unchecked", "iso.py",
           "                and self.target_cone.dim == dim\n", "",
           (_CLI + "TestCertifiedBattery::test_lift_of_the_wrong_dimension_does_not_certify",)),
    Mutant("lift-sub-dimension-unchecked", "iso.py",
           "                and sub.source_cone.dim == sub.target_cone.dim == dim - 1\n", "",
           (_CLI + "TestCertifiedBattery::test_lift_of_the_wrong_dimension_does_not_certify",)),
    Mutant("lift-apexed-sub-certifies", "iso.py",
           "                and sub._bases == (None, None)\n", "",
           (_CLI + "TestCertifiedBattery::test_lift_over_an_apexed_sub_does_not_certify",)),
    Mutant("lift-projection-unchecked", "iso.py",
           "                and _inverse_pair(self._proj, self._unsplit, dim)\n", "",
           (_FORGED + "[non_inverse_projection_lift-Violation]",)),
    Mutant("lift-source-split-unchecked", "iso.py",
           "                and self._splits(self.source_cone, sub.source_cone)\n", "",
           (_FORGED + "[unsplit_source_lift-Violation]",)),
    Mutant("lift-target-split-unchecked", "iso.py",
           "                and self._splits(self.target_cone, sub.target_cone)\n", "",
           (_FORGED + "[unsplit_target_lift-Violation]",)),
    Mutant("lift-sub-uncertified", "iso.py",
           "                and sub._certified() and ISO)", "                and ISO)",
           (_FORGED + "[forged_sub_lift-Violation]",)),
    Mutant("splits-accepts-a-negative-ray-coordinate", "iso.py",
           "            if t < 0 or not subcone._in_cone(w):",
           "            if not subcone._in_cone(w):",
           (_FORGED + "[negative_ray_coordinate_lift-Violation]",)),
    Mutant("splits-accepts-any-sub-coordinates", "iso.py",
           "            if t < 0 or not subcone._in_cone(w):", "            if t < 0:",
           (_FORGED + "[negative_sub_coordinate_lift-Violation]",)),
    Mutant("splits-skips-the-ray", "iso.py",
           "        return (cone._in_cone(self._unsplit.apply([1, *zeros]))\n"
           "                and all(", "        return (all(",
           (_FORGED + "[unsplit_source_lift-Violation]",
            _FORGED + "[unsplit_target_lift-Violation]")),
    Mutant("splits-skips-the-subcone-generators", "iso.py",
           "                and all(cone._in_cone(self._unsplit.apply([0, *k]))"
           " for k in subcone._gen_ints))", ")",
           (_FORGED + "[missing_sub_generator_lift-Violation]",)),
    # What a certificate proves (ISO or AFFINE), which decides the certified
    # affine shortcut of run_full_battery (BENCH_33, BENCH_40).
    Mutant("composition-proves-the-most-of-its-parts", "iso.py",
           "        return min(p._certified() for p in self.parts)",
           "        return max(p._certified() for p in self.parts)",
           (_FORGED + "[compose-Violation]",
            _CLI + "TestCertifiedAffineStages::"
            "test_certified_maps_that_are_not_affine_run_every_stage")),
    Mutant("linear-proves-only-iso", "iso.py",
           "                and AFFINE)", "                and ISO)",
           (_CLI + "TestCertifiedAffineStages::"
            "test_certificate_writes_the_sections_the_stages_would",)),
    Mutant("affine-translate-proves-affine", "iso.py",
           "        return self.inner._certified()",
           "        return self.inner._certified() and AFFINE",
           (_CLI + "TestCertifiedAffineStages::"
            "test_certified_maps_that_are_not_affine_run_every_stage",)),
    Mutant("shortcut-skips-the-span-test", "cli.py",
           "        affine_span(src, pts)\n", "        pass\n",
           (_CLI + "TestCheckIso::test_trivial_cone_identity_is_a_degenerate_span",)),
    Mutant("shortcut-evaluates-homogeneity", "cli.py",
           "report[\"homogeneous\"] = proved_affine or attempt(",
           "report[\"homogeneous\"] = attempt(",
           (_CLI + "TestCertifiedAffineStages::"
            "test_certificate_writes_the_sections_the_stages_would",)),
    # The one verdict rule of run_full_battery (BENCH_30), each clause
    # dropped in turn, the apex check and the battery's one stopping rule.
    Mutant("verdict-ignores-the-sampled-battery", "cli.py",
           "    if (report[\"battery\"][\"verdict\"] == \"Violation\" or hl[\"failures\"]",
           "    if (hl[\"failures\"]",
           (_CLI + "TestVerdictRule::test_a_sampled_violation_is_a_violation",)),
    Mutant("verdict-ignores-halfline-failures", "cli.py",
           "\"Violation\" or hl[\"failures\"]", "\"Violation\"",
           (_CLI + "TestVerdictRule::test_a_failing_identity_is_a_violation",)),
    Mutant("verdict-ignores-parallelogram-and-additivity", "cli.py",
           "            or any(s[\"passed\"] < s[\"checked\"] for s in (par, add))\n", "",
           (_CLI + "TestVerdictRule::test_a_failing_identity_is_a_violation",)),
    Mutant("verdict-ignores-non-colinear-g-r", "cli.py",
           "any(not e[\"colinear\"] or e[\"engaged\"]", "any(e[\"engaged\"]",
           (_CLI + "TestVerdictRule::test_an_undefined_identity_is_a_violation",)),
    Mutant("verdict-ignores-g-r-identity", "cli.py",
           "            or any(not e[\"colinear\"] or e[\"engaged\"] and not e[\"identity\"]"
           " for e in g_report)\n",
           "            or any(not e[\"colinear\"] for e in g_report)\n",
           (_CLI + "TestVerdictRule::test_a_failing_identity_is_a_violation",)),
    Mutant("verdict-ignores-affine-errors", "cli.py",
           "or \"error\" in aff or", "or",
           (_CLI + "TestVerdictRule::test_a_moved_or_undefined_apex_is_a_violation",)),
    Mutant("verdict-ignores-homogeneity-errors", "cli.py",
           " or \"homogeneous_error\" in report):", "):",
           (_CLI + "TestVerdictRule::test_an_undefined_identity_is_a_violation",)),
    Mutant("apex-may-move", "cli.py",
           "    if attempt(aff, \"error\", spec.eval, a) != spec.target_base:\n"
           "        aff.setdefault(\"error\", \"NotConeMap\")\n",
           "    attempt(aff, \"error\", spec.eval, a)\n",
           (_CLI + "TestVerdictRule::test_a_moved_or_undefined_apex_is_a_violation",)),
    Mutant("limit-stops-at-the-first-full-list", "iso.py",
           "min(map(len, found)) >= limit", "max(map(len, found)) >= limit",
           (_ISO + "TestSampledBatteryIntegerPath::test_limit_stops_drawing_once_both_lists_are_full",
            _ISO + "TestSampledBatteryIntegerPath::test_limit_keeps_verdict_and_first_pairs")),
    # The battery's skip of evaluations only a full list could use, and
    # check-iso's one build per distinct cone JSON.
    Mutant("skip-fires-one-pair-early", "iso.py",
           "run_index(i, rng, len(found[0]) >= limit, len(found[1]) >= limit)",
           "run_index(i, rng, len(found[0]) >= limit - 1, len(found[1]) >= limit - 1)",
           (_ISO + "TestSampledBatteryIntegerPath::"
            "test_a_full_forward_list_skips_the_samples_it_cannot_use",)),
    Mutant("mode-0-skips-forward-checks-on-a-full-list", "iso.py",
           "            if not tgt._in_cone(_minus(y1, b)[0]) or not tgt._in_cone(_minus(y2, y1)[0]):\n",
           "            if not fwd_full and (not tgt._in_cone(_minus(y1, b)[0])\n"
           "                                 or not tgt._in_cone(_minus(y2, y1)[0])):\n",
           (_ISO + "TestSampledBatteryIntegerPath::"
            "test_a_full_forward_list_skips_the_samples_it_cannot_use",)),
    Mutant("reuse-key-reads-2.0-as-2", "serialize.py",
           "    return json.dumps(obj, sort_keys=True)\n",
           "    return json.dumps(json.loads(json.dumps(obj), parse_float=lambda t: int(float(t))),\n"
           "                      sort_keys=True)\n",
           (_CLI + "TestConeReuse::test_a_python_equal_cone_of_other_json_types_is_refused",)),
    Mutant("reuse-key-unguarded-past-the-stack", "serialize.py",
           "    try:\n        key = cone_key(obj)\n    except RecursionError:",
           "    key = cone_key(obj)\n    if False:",
           (_CLI + "TestConeReuse::"
            "test_a_cone_nested_as_deep_as_the_reader_accepts_is_a_parse_error",)),
    # The psd order's semidefinite Cholesky on lists of floats.
    Mutant("cholesky-skips-the-semidefinite-row-test", "psd.py",
           "            if any(abs(x) > bound for x in row[1:]):\n"
           "                return False\n", "",
           (_PSD + "TestLoewnerOrder::test_zero_pivot_with_a_nonzero_row_is_not_psd",
            _PSD + "TestCholeskyKernel::test_matches_numpy_reference")),
    Mutant("cholesky-negative-pivot-at-minus-the-tolerance", "psd.py",
           "        if d < -lim:", "        if d <= -lim:",
           (_PSD + "TestLoewnerOrder::test_a_pivot_at_minus_the_tolerance_counts_as_zero",)),
    Mutant("cholesky-skips-the-rescaling", "psd.py",
           "    e = _rescale_exponent(peak)\n", "    e = 0\n",
           (_PSD + "TestLoewnerOrder::test_rescaled_semidefinite_pivot_checks_its_row",
            _PSD + "TestCholeskyKernel::test_matches_numpy_reference")),
    # The inf/sup table computed up to row n and padded with row n.
    Mutant("approx-pads-with-row-1", "psd.py",
           "ConvergenceRow(k, rows[-1].d_k, rows[-1].e_k)",
           "ConvergenceRow(k, rows[0].d_k, rows[0].e_k)",
           (_PSD + "TestInfSupApprox::test_equals_a_table_computed_row_by_row",)),
    Mutant("approx-stops-a-row-early", "psd.py",
           "    for k in range(1, min(k_max, n) + 1):\n",
           "    for k in range(1, min(k_max, n)):\n",
           (_PSD + "TestInfSupApprox::test_equals_a_table_computed_row_by_row",)),
    Mutant("kmax-uncapped", "cli.py",
           "    if not 1 <= getattr(args, \"kmax\", 1) <= MAX_KMAX:\n",
           "    if not 1 <= getattr(args, \"kmax\", 1):\n",
           (_CLI + "test_kmax_above_the_cap_exit_2",)),
    # The one reader of a cone-space vector scaled to integers.
    Mutant("scaled-reads-no-strings", "cones.py",
           "        except AttributeError:\n"
           "            return scaled_rows([as_vec(v) for v in vecs])\n",
           "        except AttributeError:\n            raise\n",
           (_CONES + "TestMembershipAndOrder::"
            "test_queries_read_rational_strings_and_refuse_floats",)),
    # The wrapper bindings of the iso kinds and the length check of their
    # integer matrices.
    Mutant("kinds-bind-only-eval", "iso.py",
           "        for name in (\"eval\", \"invert\"):\n",
           "        for name in (\"eval\",):\n",
           (_ISO + "TestWrapperBindings::test_a_subclass_gets_both_wrappers",
            "tests/test_tooling.py::test_every_iso_kind_binds_and_is_traced")),
    Mutant("int-matrix-takes-any-length", "iso.py",
           "        if len(xi) != self.cols and self.rows:\n"
           "            raise DimensionMismatch(f\"vector of length {len(xi)}"
           " for {self.cols} columns\")\n",
           "",
           (_ISO + "TestIntMatrix::test_vector_of_the_wrong_length_refused",
            _ISO + "TestProductLift::"
            "test_direct_lift_with_a_sub_of_the_wrong_dimension_refuses_to_evaluate")),
    # The one evaluator of affine pieces and the one signed bound row.
    Mutant("piece-without-its-no-knots-guard", "iso.py",
           "    if not knots or t <= knots[0] * d:\n", "    if t <= knots[0] * d:\n",
           (_ISO + "TestMonotoneBijections::test_affine_map",)),
    Mutant("lower-bound-row-unsigned", "order.py",
           "    s = 1 if upper else -1\n", "    s = 1\n",
           (_ORDER + "TestSupremumInfimum::test_infimum_examples",)),
    # The input limits: each off by one toward accepting limit + 1, and
    # each guard removed.
    Mutant("rational-length-limit-off-by-one", "linalg.py",
           "len(x) > MAX_RATIONAL_DIGITS", "len(x) > MAX_RATIONAL_DIGITS + 1",
           (_SERIALIZE + "TestRationals::test_string_length_and_exponent_are_bounded",
            _CLI + "TestInputLimits::test_rational_string")),
    Mutant("rational-exponent-limit-off-by-one", "linalg.py",
           "abs(int(exp)) > MAX_RATIONAL_DIGITS:", "abs(int(exp)) > MAX_RATIONAL_DIGITS + 1:",
           (_SERIALIZE + "TestRationals::test_string_length_and_exponent_are_bounded",
            _CLI + "TestInputLimits::test_rational_string")),
    Mutant("rational-limit-removed", "linalg.py",
           "        if len(x) > MAX_RATIONAL_DIGITS or e and abs(int(exp)) > MAX_RATIONAL_DIGITS:\n",
           "        if False:\n",
           (_SERIALIZE + "TestRationals::test_string_length_and_exponent_are_bounded",
            _CLI + "TestInputLimits::test_rational_string")),
    Mutant("dim-limit-off-by-one", "serialize.py",
           "    if dim > MAX_DIM:\n", "    if dim > MAX_DIM + 1:\n",
           (_SERIALIZE + "test_cone_dim_is_bounded", _CLI + "TestInputLimits::test_cone_dim")),
    Mutant("dim-limit-removed", "serialize.py",
           "    if dim > MAX_DIM:\n", "    if False:\n",
           (_SERIALIZE + "test_cone_dim_is_bounded", _CLI + "TestInputLimits::test_cone_dim")),
    Mutant("iso-depth-limit-off-by-one", "serialize.py",
           "    if depth_left == 0:\n        raise ParseError(f\"iso spec",
           "    if depth_left == -1:\n        raise ParseError(f\"iso spec",
           (_SERIALIZE + "test_iso_depth_counts_every_nesting_kind",
            _CLI + "TestInputLimits::test_iso_depth")),
    Mutant("iso-depth-limit-removed", "serialize.py",
           "    if depth_left == 0:\n        raise ParseError(f\"iso spec",
           "    if False:\n        raise ParseError(f\"iso spec",
           (_SERIALIZE + "test_iso_depth_counts_every_nesting_kind",
            _CLI + "TestInputLimits::test_iso_depth")),
    Mutant("iso-file-keeps-a-permuted-frame", "serialize.py",
           "        if spec.source_frame != spec.source_cone.generators:\n",
           "        if False:\n",
           (_SERIALIZE + "TestIsoFiles::test_a_permuted_source_frame_is_refused",)),
    Mutant("load-json-reads-decode-errors-as-values", "serialize.py",
           "    except (OSError, ValueError) as exc:\n",
           "    except (OSError, json.JSONDecodeError) as exc:\n",
           (_CLI + "TestInputLimits::test_unreadable_file",)),
    # The double description without its duplicate-ray filter (BENCH_34).
    Mutant("dd-repeats-a-new-ray", "cones.py",
           "        rays = [rays[j] for j in pos] + [rays[j] for j in zer] + new_rays\n"
           "        tight = [tight[j] for j in pos] + [tight[j] | bit for j in zer] + new_tight\n",
           "        rays = [rays[j] for j in pos] + [rays[j] for j in zer] + new_rays"
           " + new_rays[:1]\n"
           "        tight = [tight[j] for j in pos] + [tight[j] | bit for j in zer] + new_tight"
           " + new_tight[:1]\n",
           (_CONES + "TestRoundTrip::test_double_description_equals_fraction_lineality_reference",
            _CONES + "TestRoundTrip::test_double_description_does_not_depend_on_constraint_order")),
    Mutant("dd-adjacency-accepts-three-rays", "cones.py",
           "                if count != 2:\n", "                if count > 3:\n",
           (_CONES + "TestRoundTrip::test_double_description_equals_fraction_lineality_reference",
            _CONES + "TestRoundTrip::test_double_description_does_not_depend_on_constraint_order")),
]


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _pytest(workdir: Path, tests, *flags) -> tuple[str, float]:
    """Run the tests in workdir; the outcome is "passed", "failed" with
    the first failing test, "timeout" or "error <pytest exit code>"."""
    env = {**os.environ, "PYTHONPATH": str(workdir / "src"), "OPENBLAS_NUM_THREADS": "1"}
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *flags, *tests],
            cwd=workdir, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
            preexec_fn=_limit_address_space)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    outcome = {0: "passed", 1: "failed"}.get(proc.returncode, f"error {proc.returncode}")
    if outcome == "failed":
        outcome += next((" by " + line.split()[1] for line in proc.stdout.splitlines()
                         if line.startswith("FAILED ")), "")
    elif outcome != "passed":
        print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n", file=sys.stderr)
    return outcome, time.perf_counter() - start


def main(names) -> int:
    rows = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(prefix="coneorder-mutants-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, work / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work)
        listed = list(dict.fromkeys(t for m in rows for t in m.tests))
        outcome, seconds = _pytest(work, listed)
        print(f"unmutated: {len(listed)} tests {outcome} ({seconds:.1f} s)")
        if outcome != "passed":
            return 1
        survivors = []
        for m in rows:
            path = work / "src" / "coneorder" / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"{m.name}: old text does not occur exactly once in {m.file}")
                survivors.append(m.name)
                continue
            path.write_text(text.replace(m.old, m.new))
            try:
                outcome, seconds = _pytest(work, m.tests, "-x")
            finally:
                path.write_text(text)
            killed = outcome.startswith("failed")
            shown = outcome if killed else "SURVIVED" if outcome == "passed" else outcome.upper()
            print(f"{m.name}: {shown} ({seconds:.1f} s)")
            if not killed:
                survivors.append(m.name)
    print(f"{len(rows) - len(survivors)} of {len(rows)} mutants killed"
          + (f"; not killed: {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
