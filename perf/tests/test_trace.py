"""The tracer resolves every declared point and only observes."""

import pytest

from perf.trace import LAYERS, POINTS, Tracer, layer_metrics, resolve
from perf.workloads import build


@pytest.mark.parametrize("point", POINTS, ids=lambda p: p.target)
def test_every_trace_point_resolves(point):
    owner, attribute, original, _ = resolve(point.target)
    assert callable(original)
    assert getattr(owner, attribute) is original
    assert point.layer in LAYERS
    assert point.plan_layer in (None, *LAYERS)


def test_uninstall_restores_every_original():
    before = [getattr(*resolve(p.target)[:2]) for p in POINTS]
    with Tracer().installed():
        patched = [getattr(*resolve(p.target)[:2]) for p in POINTS]
    after = [getattr(*resolve(p.target)[:2]) for p in POINTS]
    assert after == before
    assert all(p is not b for p, b in zip(patched, before))


@pytest.mark.parametrize("name", ["stream-1m", "spill-bursty"])
def test_traced_job_triple_is_byte_identical(name):
    workload = build(name, seed=7, smoke=True)
    workload.setup()
    _, _, untraced, _ = workload.run()
    tracer = Tracer()
    with tracer.installed(), tracer.root("op", "op-1"):
        _, _, traced, _ = workload.run()
    assert traced == untraced
    metrics = layer_metrics(tracer.summary(), ops=1)
    count, _, io = traced["job"]
    # Page counts are exact: every page the disk charged is seen once.
    assert metrics["storage.pages_written"] + metrics["storage.pages_read"] == io
    assert metrics["recorder.rows"] == count
    assert metrics["net.rows"] == workload.tuples_per_op
    assert sum(metrics[f"{layer}.self_pct"] for layer in LAYERS) == pytest.approx(100.0)
