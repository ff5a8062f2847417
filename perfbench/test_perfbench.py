"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import coneorder  # noqa: E402
import coneorder.cones  # noqa: E402
import coneorder.iso  # noqa: E402
import coneorder.order  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import SpanTable, Tracer  # noqa: E402


@pytest.fixture(params=sorted(workloads.WORKLOADS))
def workload(request):
    return workloads.WORKLOADS[request.param]


def _build(workload, seed, path: Path):
    path.mkdir()
    return workload.build(seed, path)


def test_job_list_is_deterministic_for_a_seed(workload, tmp_path):
    a = _build(workload, 3, tmp_path / "a")
    b = _build(workload, 3, tmp_path / "b")
    assert [(j.label, j.inputs) for j in a.jobs] == [(j.label, j.inputs) for j in b.jobs]


def test_second_seed_keeps_the_job_mix_shape(workload, tmp_path):
    a = _build(workload, 3, tmp_path / "a")
    b = _build(workload, 4, tmp_path / "b")
    assert Counter(j.label for j in a.jobs) == Counter(j.label for j in b.jobs)
    assert {j.inputs for j in a.jobs} != {j.inputs for j in b.jobs}


def test_smoke_round_passes_every_check(workload, tmp_path):
    rnd = _build(workload, 5, tmp_path / "w")
    judge = bench.Judge(rnd.jobs)
    raws, times = bench.run_round(rnd.jobs)
    for i, raw in enumerate(raws):
        judge(i, raw, "smoke")
    assert judge.attempted == len(rnd.jobs) == len(times)
    assert judge.failed == 0


def test_tracer_rebinds_aliases_and_restores_them():
    dd = coneorder.cones.double_description
    point = coneorder.iso.cone_point
    leq = coneorder.cones.PolyhedralCone.leq
    tracer = Tracer()
    tracer.install()
    try:
        assert coneorder.order.double_description is coneorder.cones.double_description
        assert coneorder.order.double_description is not dd
        assert coneorder.iso.cone_point is coneorder.sampling.cone_point is not point
        assert coneorder.supremum is coneorder.order.supremum
        cone = coneorder.square_cone()
        assert coneorder.supremum(cone, [(1, 1, 1), (-1, -1, 1)]).exists
        assert cone.leq((0, 0, 1), (0, 0, 2))
    finally:
        tracer.uninstall()
    assert coneorder.order.double_description is dd
    assert coneorder.iso.cone_point is point
    assert coneorder.cones.PolyhedralCone.leq is leq
    names = {tracer.names[i] for i in tracer.name}
    assert {"cones.build", "cones.dd", "order.bounds", "cones.leq"} <= names


def test_span_table_self_time_and_outer_calls():
    tracer = Tracer()

    def leaf():
        return sum(range(2000))

    traced_leaf = tracer.wrap("leaf", leaf)

    def outer(depth):
        if depth:
            return traced_outer(depth - 1)
        return traced_leaf() + traced_leaf()

    traced_outer = tracer.wrap("outer", outer)
    tracer.job_id = 0
    traced_outer(2)
    table = SpanTable(tracer)
    assert table.calls("outer") == 1 and table.all_calls("outer") == 3
    assert table.calls("leaf") == 2
    assert table.under("leaf", "outer") == 2
    incl = table.incl_s("outer")
    parts = table.self_total_s("outer") + table.self_total_s("leaf")
    assert parts == pytest.approx(incl, rel=1e-9)
    assert table.root_time_in_jobs() == pytest.approx(incl, rel=1e-9)


def test_traced_run_matches_untraced_output(tmp_path):
    wl = workloads.WORKLOADS["psd"]
    rnd = _build(wl, 2, tmp_path / "w")
    judge, metrics, info = bench.traced_run(wl, rnd, 0, tmp_path / "spans.npz")
    assert judge.failed == 0 and judge.attempted == 2 * len(rnd.jobs)
    assert metrics["trace.coverage_frac"][0] >= 0.9
    assert metrics["psd.eigh_jacobi.calls"][0] > 0
    assert metrics["cones.dd.calls"][0] == 0
    assert (tmp_path / "spans.npz").is_file()


def test_tail_percentile_leaves_ten_job_runs_beyond_it(workload, tmp_path):
    size = len(_build(workload, 1, tmp_path / "w").jobs)
    q = bench.tail_percentile(workload.min_rounds, size)
    per_job = list(range(size))
    cut = bench.percentile_lower(per_job, q)
    beyond = sum(v > cut for v in per_job)
    assert beyond * workload.min_rounds >= bench.TAIL_BEYOND
