"""The conformance matrix runner and its CLI entry point."""

from __future__ import annotations

import json

import pytest

from repro.bench.scale import BenchScale
from repro.joins.symmetric_hash import SymmetricHashJoin
from repro.testing import conformance
from repro.testing.conformance import (
    OPERATORS,
    build_report,
    main,
    run_matrix,
    workload_cases,
)


def test_workload_cases_cover_all_six_figures():
    cases = workload_cases(BenchScale(n_per_source=100, seed=7))
    assert sorted(cases) == [f"fig{n:02d}" for n in range(9, 15)]
    assert "stop_after" in cases["fig13"]
    assert "blocking_threshold" in cases["fig14"]


def test_run_matrix_quick_subset_is_clean():
    scale = BenchScale(n_per_source=100, seed=7)
    outcomes = run_matrix(
        scale, quick=True, operators=["hmj", "shj"], workloads=["fig11"]
    )
    # 2 operators x 1 workload x 2 delivery paths, no resize cells,
    # plus one scalar merge-path cell for hmj (shj has no merge phase).
    assert len(outcomes) == 5
    assert all(o.ok for o in outcomes), [o.violations for o in outcomes]
    assert all(not o.resize for o in outcomes)
    deliveries = {(o.operator, o.delivery) for o in outcomes}
    assert ("hmj", "batched") in deliveries
    assert ("hmj", "per-event") in deliveries
    scalar_cells = [o for o in outcomes if o.merge_path == "scalar"]
    assert [o.operator for o in scalar_cells] == ["hmj"]


def test_run_matrix_full_mode_adds_resize_cells():
    scale = BenchScale(n_per_source=100, seed=7)
    outcomes = run_matrix(scale, quick=False, operators=["hmj"], workloads=["fig11"])
    # {plain, resize} x (2 delivery paths + 1 scalar merge-path cell).
    assert len(outcomes) == 6
    assert sum(o.resize for o in outcomes) == 3
    assert all(o.ok for o in outcomes), [o.violations for o in outcomes]


def test_run_matrix_merge_path_axis_can_be_pinned():
    scale = BenchScale(n_per_source=100, seed=7)
    columnar_only = run_matrix(
        scale,
        quick=True,
        operators=["pmj"],
        workloads=["fig11"],
        merge_paths=("columnar",),
    )
    assert len(columnar_only) == 2  # no scalar cross-check cell
    assert {o.merge_path for o in columnar_only} == {"columnar"}
    scalar_only = run_matrix(
        scale,
        quick=True,
        operators=["pmj"],
        workloads=["fig11"],
        merge_paths=("scalar",),
    )
    assert {o.merge_path for o in scalar_only} == {"scalar"}
    assert all(o.ok for o in columnar_only + scalar_only)
    # Both pinned runs agree on the triple even without the cross-check.
    assert {(o.count, o.clock, o.io) for o in columnar_only} == {
        (o.count, o.clock, o.io) for o in scalar_only
    }


def test_run_matrix_rejects_unknown_names():
    scale = BenchScale(n_per_source=100, seed=7)
    with pytest.raises(ValueError, match="unknown operator"):
        run_matrix(scale, operators=["nope"])
    with pytest.raises(ValueError, match="unknown workload"):
        run_matrix(scale, workloads=["fig99"])
    with pytest.raises(ValueError, match="unknown merge path"):
        run_matrix(scale, merge_paths=("heap",))


def test_build_report_schema():
    scale = BenchScale(n_per_source=100, seed=7)
    outcomes = run_matrix(
        scale, quick=True, operators=["shj"], workloads=["fig11"]
    )
    report = build_report(scale, True, outcomes)
    assert report["schema"] == 1
    assert report["mode"] == "quick"
    assert report["cells_total"] == len(outcomes)
    assert report["cells_failed"] == 0
    assert report["violations_total"] == 0
    assert {c["workload"] for c in report["cells"]} == {"fig11"}


def test_main_writes_report_and_exits_zero(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main([
        "--quick", "--scale", "100",
        "--operators", "shj", "--workloads", "fig11",
        "--plan-shape", "none",
        "--report", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["cells_failed"] == 0
    out = capsys.readouterr().out
    assert "fig11" in out
    assert "0 failed" in out


class _DuplicatingSHJ(SymmetricHashJoin):
    def on_tuple(self, t):
        self.charge_tuple()
        matches, candidates, _ = self.table.probe_insert(t)
        self.charge_probe(candidates)
        for match in matches:
            self.emit(t, match, self.PHASE)
            self.emit(t, match, self.PHASE)


def test_main_exits_nonzero_on_violation(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(
        OPERATORS, "shj", lambda memory, scale: _DuplicatingSHJ()
    )
    assert isinstance(conformance.OPERATORS["shj"](None, None), _DuplicatingSHJ)
    report_path = tmp_path / "report.json"
    code = main([
        "--quick", "--scale", "100",
        "--operators", "shj", "--workloads", "fig11",
        "--plan-shape", "none",
        "--report", str(report_path),
    ])
    assert code == 1
    report = json.loads(report_path.read_text())
    assert report["cells_failed"] == report["cells_total"] == 2
    assert report["violations_total"] > 0
    assert any("duplicate" in v for c in report["cells"] for v in c["violations"])
    assert "FAIL" in capsys.readouterr().out


def test_run_matrix_tenants_collapses_delivery_axis():
    scale = BenchScale(n_per_source=100, seed=7)
    outcomes = run_matrix(
        scale, quick=True, operators=["hmj"], workloads=["fig11"], tenants=3
    )
    assert len(outcomes) == 1  # no batched/per-event split in tenant mode
    outcome = outcomes[0]
    assert outcome.tenants == 3
    assert outcome.delivery == "session"
    assert outcome.ok, outcome.violations


def test_tenant_cells_cover_stop_after_and_resize():
    scale = BenchScale(n_per_source=100, seed=7)
    outcomes = run_matrix(
        scale, quick=False, operators=["hmj"], workloads=["fig13"], tenants=2
    )
    assert [o.resize for o in outcomes] == [False, True]
    assert all(o.ok for o in outcomes), [o.violations for o in outcomes]
    # Two tenants, each stopping at the scaled first-k threshold.
    stop = workload_cases(scale)["fig13"]["stop_after"]
    assert outcomes[0].count == 2 * stop


def test_tenant_isolation_divergence_is_reported(monkeypatch):
    # An operator whose behaviour depends on ambient shared state will
    # produce a different triple in a session than solo; the tenant
    # cell must flag that as a violation rather than average it away.
    from repro.testing.conformance import run_cell_tenants

    calls = {"n": 0}
    real = OPERATORS["shj"]

    def flaky(memory, scale):
        op = real(memory, scale)
        calls["n"] += 1
        if calls["n"] <= 2:  # the two session tenants drop results
            original = op.on_tuple

            def lossy(t, _orig=original, _op=op):
                if t.tid % 7 == 0:
                    _op.charge_tuple()
                    _op.table.insert(t)
                    return
                _orig(t)

            op.on_tuple = lossy
        return op

    monkeypatch.setitem(OPERATORS, "shj", flaky)
    scale = BenchScale(n_per_source=100, seed=7)
    case = workload_cases(scale)["fig11"]
    outcome = run_cell_tenants(scale, "fig11", case, "shj", False, 2)
    assert not outcome.ok
    assert any("solo triple" in v or "oracle" in v for v in outcome.violations)


def test_main_accepts_tenants_flag(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main([
        "--quick", "--scale", "100", "--tenants", "2",
        "--operators", "shj", "--workloads", "fig11",
        "--report", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["tenants"] == 2
    assert all(c["tenants"] == 2 for c in report["cells"])
    assert "x2" in capsys.readouterr().out


def test_main_rejects_non_positive_tenants(tmp_path):
    with pytest.raises(SystemExit):
        main(["--tenants", "0", "--report", str(tmp_path / "r.json")])


# -- the skew-theta axis ------------------------------------------------------


def test_skew_workloads_run_the_fixed_operator_pair():
    from repro.testing.conformance import skew_workload_cases

    scale = BenchScale(n_per_source=100, seed=7)
    cases = skew_workload_cases(scale, (0.0, 1.0))
    assert sorted(cases) == ["skew-t0", "skew-t1"]
    assert all(c["skew"] for c in cases.values())
    assert cases["skew-t1"]["spec"].zipf_theta == 1.0
    assert cases["skew-t0"]["spec"].distribution == "zipf"


def test_skew_axis_is_clean_with_adaptivity_on_and_off():
    scale = BenchScale(n_per_source=100, seed=7)
    outcomes = run_matrix(
        scale, quick=True, workloads=["skew-t1"], skew_thetas=(1.0,)
    )
    # The fixed pair (baseline hmj, skew-adaptive hmj) x 2 deliveries,
    # plus one scalar merge-path cell each.
    assert {o.operator for o in outcomes} == {"hmj", "hmj-skew"}
    assert len(outcomes) == 6
    assert all(o.ok for o in outcomes), [o.violations for o in outcomes]
    # All delivery paths AND both merge paths of each operator agree
    # on the triple.
    for op in ("hmj", "hmj-skew"):
        triples = {(o.count, o.clock, o.io) for o in outcomes if o.operator == op}
        assert len(triples) == 1


def test_default_matrix_excludes_the_skew_operator():
    from repro.testing.conformance import DEFAULT_OPERATORS

    assert "hmj-skew" in OPERATORS
    assert "hmj-skew" not in DEFAULT_OPERATORS
    scale = BenchScale(n_per_source=100, seed=7)
    outcomes = run_matrix(scale, quick=True, workloads=["fig11"])
    assert "hmj-skew" not in {o.operator for o in outcomes}


def test_skew_axis_tenant_mode_is_clean():
    scale = BenchScale(n_per_source=100, seed=7)
    outcomes = run_matrix(
        scale,
        quick=True,
        workloads=["skew-t1"],
        skew_thetas=(1.0,),
        tenants=2,
    )
    assert len(outcomes) == 2  # the fixed pair, session delivery
    assert all(o.ok for o in outcomes), [o.violations for o in outcomes]


def test_main_accepts_skew_theta_flag(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main([
        "--quick", "--scale", "100",
        "--operators", "shj", "--workloads", "skew-t1",
        "--skew-theta", "1.0", "--plan-shape", "none",
        "--report", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["skew_thetas"] == [1.0]
    assert {c["operator"] for c in report["cells"]} == {"hmj", "hmj-skew"}
    assert "skew-t1" in capsys.readouterr().out


def test_main_skew_theta_none_disables_axis(tmp_path):
    report_path = tmp_path / "report.json"
    code = main([
        "--quick", "--scale", "100",
        "--operators", "shj", "--workloads", "fig11",
        "--skew-theta", "none", "--plan-shape", "none",
        "--report", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["skew_thetas"] == []


# -- the plan-shape axis ------------------------------------------------------


def test_plan_shape_axis_is_clean_and_crossed_with_delivery():
    from repro.testing.conformance import DELIVERY_PATHS

    scale = BenchScale(n_per_source=100, seed=7)
    outcomes = run_matrix(
        scale,
        quick=True,
        operators=["shj"],
        workloads=["fig11"],
        plan_shapes=("chain", "bushy"),
    )
    plan_cells = [o for o in outcomes if o.workload.startswith("plan-")]
    assert {(o.workload, o.delivery) for o in plan_cells} == {
        (f"plan-{shape}", delivery)
        for shape in ("chain", "bushy")
        for delivery in DELIVERY_PATHS
    }
    assert all(o.ok for o in plan_cells), [o.violations for o in plan_cells]
    # Both delivery paths of a shape agree on the triple.
    for shape in ("chain", "bushy"):
        triples = {
            (o.count, o.clock, o.io)
            for o in plan_cells
            if o.workload == f"plan-{shape}"
        }
        assert len(triples) == 1


def test_plan_shape_axis_off_by_default_in_library():
    scale = BenchScale(n_per_source=100, seed=7)
    outcomes = run_matrix(
        scale, quick=True, operators=["shj"], workloads=["fig11"]
    )
    assert not any(o.workload.startswith("plan-") for o in outcomes)


def test_plan_shape_axis_skipped_in_tenant_mode():
    scale = BenchScale(n_per_source=100, seed=7)
    outcomes = run_matrix(
        scale,
        quick=True,
        operators=["hmj"],
        workloads=["fig11"],
        tenants=2,
        plan_shapes=("chain",),
    )
    assert not any(o.workload.startswith("plan-") for o in outcomes)


def test_run_matrix_rejects_unknown_plan_shape():
    scale = BenchScale(n_per_source=100, seed=7)
    with pytest.raises(ValueError, match="unknown plan shape"):
        run_matrix(scale, plan_shapes=("ring",))


def test_plan_cell_reports_watermark_divergence(monkeypatch):
    # Sabotage the disordered run's operator memory so its triple
    # diverges from the twin: the cell must flag it, not hide it.
    from repro.testing import conformance as conf

    real = conf.OPERATORS["hmj"]
    calls = {"n": 0}

    def flaky(memory, scale, merge_path="columnar"):
        calls["n"] += 1
        # Builds go: oracle-count factories are never invoked (pure
        # counting); runs are in-order, twin, then disordered — three
        # plans x 3 join nodes.  Shrink the last plan's operators.
        if calls["n"] > 6:
            return real(max(4, memory // 3), scale, merge_path)
        return real(memory, scale, merge_path)

    monkeypatch.setitem(conf.OPERATORS, "hmj", flaky)
    scale = BenchScale(n_per_source=100, seed=7)
    outcome = conf.run_plan_cell(scale, "chain", "batched")
    assert not outcome.ok
    assert any("watermark divergence" in v for v in outcome.violations)


def test_main_accepts_plan_shape_flag(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main([
        "--quick", "--scale", "100",
        "--operators", "shj", "--workloads", "fig11",
        "--skew-theta", "none", "--plan-shape", "star",
        "--report", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["plan_shapes"] == ["star"]
    plan_cells = [
        c for c in report["cells"] if c["workload"].startswith("plan-")
    ]
    assert {c["workload"] for c in plan_cells} == {"plan-star"}
    assert "plan-star" in capsys.readouterr().out


def test_main_rejects_unknown_plan_shape(tmp_path):
    with pytest.raises(SystemExit):
        main(["--plan-shape", "ring", "--report", str(tmp_path / "r.json")])
