"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_run_default_algorithm(capsys):
    code, out = run_cli(capsys, "run", "--n", "500")
    assert code == 0
    assert "algorithm : HMJ" in out
    assert "results" in out
    assert "phase split" in out


@pytest.mark.parametrize("algo,label", [
    ("xjoin", "XJoin"),
    ("pmj", "PMJ"),
    ("dphj", "DPHJ"),
    ("shj", "SHJ"),
])
def test_run_each_algorithm(capsys, algo, label):
    code, out = run_cli(capsys, "run", "--n", "300", "--algorithm", algo)
    assert code == 0
    assert f"algorithm : {label}" in out


def test_run_series_flag(capsys):
    code, out = run_cli(capsys, "run", "--n", "400", "--series")
    assert code == 0
    assert "I/O [pages]" in out


def test_run_stop_after(capsys):
    code, out = run_cli(capsys, "run", "--n", "800", "--stop-after", "5")
    assert code == 0
    assert "results   : 5" in out


def test_run_arrival_models(capsys):
    for arrival in ("constant", "poisson", "pareto", "bursty"):
        code, out = run_cli(capsys, "run", "--n", "300", "--arrival", arrival)
        assert code == 0


def test_run_policies(capsys):
    for policy in ("adaptive", "all", "smallest", "largest"):
        code, _ = run_cli(capsys, "run", "--n", "300", "--policy", policy)
        assert code == 0


def test_run_zipf_distribution(capsys):
    code, _ = run_cli(
        capsys, "run", "--n", "300", "--distribution", "zipf", "--zipf-theta", "1.3"
    )
    assert code == 0


def test_compare_prints_side_by_side(capsys):
    code, out = run_cli(capsys, "compare", "--n", "500", "--algorithms", "hmj,pmj")
    assert code == 0
    assert "HMJ (time)" in out
    assert "PMJ (time)" in out
    assert "total I/O" in out


def test_compare_rejects_unknown_algorithm(capsys):
    code, out = run_cli(capsys, "compare", "--algorithms", "hmj,nope")
    assert code == 2
    assert "unknown algorithms" in out


def test_compare_with_rate_skew(capsys):
    code, out = run_cli(
        capsys, "compare", "--n", "400", "--algorithms", "hmj,xjoin", "--rate-skew", "5"
    )
    assert code == 0


def test_figures_rejects_unknown(capsys):
    code, out = run_cli(capsys, "figures", "nope")
    assert code == 2
    assert "unknown figures" in out


def test_figures_runs_one_small(capsys):
    # Shape checks are scale-sensitive; just verify the report renders
    # and the harness returns (0 or 1, never a crash) at a tiny scale.
    code, out = run_cli(capsys, "figures", "fig09", "--n", "1200")
    assert code in (0, 1)
    assert "fig09" in out
    assert "shape checks:" in out


def test_ablations_rejects_unknown(capsys):
    code, out = run_cli(capsys, "ablations", "nope")
    assert code == 2
    assert "unknown ablations" in out


def test_ablations_runs_one_small(capsys):
    code, out = run_cli(capsys, "ablations", "finalflush", "--n", "1200")
    assert code == 0
    assert "ablation-finalflush" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_report_command_writes_markdown(capsys, tmp_path):
    out = tmp_path / "report.md"
    code, text = run_cli(capsys, "report", str(out), "--n", "1200")
    assert code in (0, 1)  # shape checks are scale-sensitive at 1200
    content = out.read_text()
    assert content.startswith("# Hash-Merge Join reproduction report")
    assert "fig09" in content and "Robustness" in content


def test_run_csv_export(capsys, tmp_path):
    out = tmp_path / "events.csv"
    code, text = run_cli(capsys, "run", "--n", "400", "--csv", str(out))
    assert code == 0
    assert f"wrote" in text
    header = out.read_text().splitlines()[0]
    assert header == "k,time,io,phase"


def test_compare_csv_export(capsys, tmp_path):
    out = tmp_path / "series.csv"
    code, text = run_cli(
        capsys, "compare", "--n", "400", "--algorithms", "hmj,pmj", "--csv", str(out)
    )
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("k,")
    assert "HMJ" in header and "PMJ" in header


def test_run_timeline_flag(capsys):
    code, out = run_cli(
        capsys, "run", "--n", "800", "--arrival", "bursty", "--timeline"
    )
    assert code == 0
    assert "timeline" in out


def test_serve_parses_and_forwards_to_the_server(monkeypatch):
    import repro.service.server as server_mod

    captured = {}

    def fake_main(argv):
        captured["argv"] = list(argv)
        return 0

    monkeypatch.setattr(server_mod, "main", fake_main)
    code = main([
        "serve", "--port", "0", "--memory", "500", "--max-concurrent", "4"
    ])
    assert code == 0
    assert captured["argv"] == [
        "--host", "127.0.0.1", "--port", "0",
        "--memory", "500", "--max-concurrent", "4",
    ]


def test_serve_defaults_omit_optional_flags(monkeypatch):
    import repro.service.server as server_mod

    captured = {}
    monkeypatch.setattr(
        server_mod, "main", lambda argv: captured.setdefault("argv", argv) and 0
    )
    main(["serve"])
    assert captured["argv"] == ["--host", "127.0.0.1", "--port", "7654"]


@pytest.mark.parametrize("argv", [
    ["run", "--n", "500", "--fan-in", "1"],
    ["compare", "--n", "500", "--fan-in", "1"],
    ["run", "--n", "500", "--memory-fraction", "0"],
    ["compare", "--n", "500", "--memory-fraction", "0"],
    ["run", "--n", "300", "--algorithm", "shj", "--memory-schedule", "0.2:40"],
])
def test_bad_settings_print_an_error_and_exit_2(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert out.startswith("error: ")


# -- parity with hand-built runs -------------------------------------------


def _hand_built_run(algorithm, n, broker=None, **run_kwargs):
    """run_join over sources and an operator built without QuerySpec."""
    from repro.net.arrival import BurstyArrival, ConstantRate
    from repro.net.source import NetworkSource
    from repro.service.spec import make_operator
    from repro.sim.engine import run_join
    from repro.workloads.generator import WorkloadSpec, make_relation_pair

    workload = WorkloadSpec(n_a=n, n_b=n, key_range=2 * n, seed=7)
    rel_a, rel_b = make_relation_pair(workload)
    rate = n / 2.0
    if run_kwargs.pop("bursty", False):
        arrivals = [
            BurstyArrival(burst_size=n // 20, intra_gap=1 / rate, mean_silence=0.5)
            for _ in range(2)
        ]
    else:
        arrivals = [ConstantRate(rate), ConstantRate(rate)]
    return run_join(
        NetworkSource(rel_a, arrivals[0], seed=11),
        NetworkSource(rel_b, arrivals[1], seed=22),
        make_operator(algorithm, workload.memory_capacity(0.10)),
        blocking_threshold=0.05,
        keep_results=False,
        broker=broker,
        **run_kwargs,
    )


def test_run_prints_the_numbers_of_a_hand_built_run(capsys):
    from repro.sim.broker import ResourceBroker

    broker = ResourceBroker([(0.2, 40), (0.5, 500)])
    expected = _hand_built_run(
        "hmj", 2000, broker=broker, bursty=True, stop_after=700, journal=True
    )
    rec = expected.recorder
    code, out = run_cli(
        capsys, "run", "--n", "2000", "--arrival", "bursty",
        "--memory-schedule", "0.2:40,0.5:500", "--stop-after", "700",
        "--timeline",
    )
    assert code == 0
    fired = ", ".join(f"{g.time:g}s->{g.total}" for g in broker.applied)
    assert f"grants    : {fired}\n" in out
    assert f"results   : {rec.count}\n" in out
    assert f"first result : {rec.time_to_kth(1):.4f} virtual s\n" in out
    assert f"last result  : {rec.total_time():.4f} virtual s\n" in out
    assert f"total I/O    : {rec.total_io()} pages\n" in out
    split = ", ".join(
        f"{p}={rec.count_in_phase(p)}" for p in sorted({e.phase for e in rec.events})
    )
    assert f"phase split  : {split}\n" in out
    assert expected.journal.render(limit=40) in out


def test_compare_prints_the_numbers_of_hand_built_runs(capsys):
    from repro.metrics.report import format_table

    rows = []
    for name in ("hmj", "xjoin", "pmj"):
        result = _hand_built_run(name, 600)
        rec = result.recorder
        rows.append([result.operator.name, rec.count, rec.total_time(), rec.total_io()])
    code, out = run_cli(capsys, "compare", "--n", "600")
    assert code == 0
    table = format_table(["operator", "results", "total time [s]", "total I/O"], rows)
    assert table in out
