"""The functions the benchmark's traced run wraps must keep their names.

``perfbench/layers.py`` times each layer by replacing these functions on
their modules (``PartialSumGrid.compute`` as a classmethod) and indexes the
recorded spans; a rename or a call that bypasses the module attribute drops
a layer from ``perfbench/run.py --trace 1``.
"""

import inspect
from pathlib import Path

import numpy as np

from sncusum import cli, simulation, stats
from sncusum.blocks import PartialSumGrid, make_block_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_targets_exist_and_record_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracing

    targets = layers._targets()
    for owner, attr, name in targets:
        assert callable(getattr(owner, attr, None)), name
    assert isinstance(inspect.getattr_static(PartialSumGrid, "compute"), classmethod)

    x = np.random.default_rng(0).standard_normal(500)
    cfg = make_block_config(500)
    tracer = tracing.Tracer()
    with tracer.installed(targets):
        stats.full_statistic(x, cfg, 1 / 3, 1 / 2)
        stats.simple_statistic(x, cfg)
    assert tracer.counts["blocks.PartialSumGrid.compute"] == 2
    assert tracer.counts["stats.full_statistic_from_grid"] == 1
    assert tracer.counts["stats.simple_statistic_from_grid"] == 1

    # the traced simulation probe reads one run_scenario span per call, with
    # the per-replication series spans inside it
    cell = simulation.Scenario(mean_id=0, sigma_id=0, c_sigma=1.0, error_model="iid",
                               n=100, replications=5)
    tracer = tracing.Tracer()
    with tracer.installed(targets):
        simulation.run_scenario(cell, tests=("r_lrv",), workers=1)
    assert tracer.counts["simulation.run_scenario"] == 1
    assert tracer.counts["simulation.gen_series"] == 5


def test_cli_test_records_one_decide_span(monkeypatch, tmp_path, capsys):
    # the main probe reads the decision time of a cold `test` from this span
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracing

    assert cli.main(["nulldist", "--steps", "100", "--reps", "1000", "--out", str(tmp_path)]) == 0
    series = tmp_path / "x.csv"
    np.savetxt(series, np.random.default_rng(1).standard_normal(500))
    for method, span in (("full-v2", "stats.decide_full"), ("simple", "stats.decide_simple")):
        tracer = tracing.Tracer()
        with tracer.installed(layers._targets()):
            argv = ["test", "--input", str(series), "--method", method,
                    "--null-cache", str(tmp_path)]
            assert cli.main(argv) == 0
        assert tracer.counts[span] == 1, method
    capsys.readouterr()


def test_workload_decide_full_call_matches_the_rule(null_full_small):
    # ``perfbench/workloads.py`` decides through this exact import and call shape
    from sncusum import TestParams, decide_full

    x = np.random.default_rng(2).standard_normal(500)
    cfg = make_block_config(500)
    for params, test_id in ((TestParams.v1(0.05), "sn_full_v1"),
                            (TestParams.v2(0.05), "sn_full_v2")):
        outcome = decide_full(x, cfg, params, null_full_small)
        assert outcome == stats.RULES[test_id].decide(x, cfg, 0.05, null_full_small)
