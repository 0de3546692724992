"""Self-tests of the benchmark's trace accounting.

    python3 -m pytest perfbench/test_spans.py

The last test runs every workload briefly in traced mode (about two
minutes); select the others with ``-k "not workload"``.
"""

import json
import os
import subprocess
import sys

import pytest

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SELF_METRICS = ("weights.self_s", "quadrature.self_s", "kernel.factor_self_s",
                "kernel.escalation_s", "kernel.eval_self_s", "localexpansion.self_s",
                "asymptotics.self_s", "sampling.self_s", "reporting.self_s",
                "cli.self_s", "bench.self_s")


def _span(name, layer, start, end, parent=-1, group="", leaf_s=0.0):
    return spans.Span(name, layer, group, start, end, parent=parent, leaf_s=leaf_s)


def test_synthetic_tree_with_overlaps():
    tree = [
        _span("bench.segment", "bench", 0.0, 10.0),
        _span("kernel.a", "kernel", 1.0, 4.0, parent=0, group="eval"),
        _span("quadrature.b", "quadrature", 3.0, 6.0, parent=0, leaf_s=0.5),  # overlaps a
        _span("sampling.c", "sampling", 8.0, 12.0, parent=0),  # ends after its parent
        _span("cli.d", "cli", 2.0, 3.5, parent=1),
        _span("cli.e", "cli", 2.5, 3.0, parent=1),  # inside its sibling d
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 1.5, 2.5, 4.0, 1.5, 0.5])
    assert spans.layer_self_times(tree) == pytest.approx({
        ("bench", ""): 3.0, ("kernel", "eval"): 1.5, ("quadrature", ""): 2.5,
        ("sampling", ""): 4.0, ("cli", ""): 2.0, ("weights", ""): 0.5})


def test_install_wraps_every_import_site_and_undoes():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import polykernel as pk
    import polykernel.cli
    import polykernel.kernel

    originals = (pk.build_space, polykernel.cli.build_space,
                 polykernel.cli.write_csv, polykernel.kernel.log_moment_table,
                 pk.KernelEvaluator.weighted_kernel)
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        assert pk.build_space is polykernel.cli.build_space is not originals[0]
        assert polykernel.cli.write_csv is not originals[2]
        assert polykernel.kernel.log_moment_table is not originals[3]
        tracer.active = True
        root = tracer.begin("bench.segment", spans.BENCH_LAYER)
        K = pk.build_space(pk.parse_weight("ginibre"), pk.SpaceSpec(1, 5, 5.0))
        K.weighted_kernel(0.1, 0.2j)
        tracer.end(root)
        tracer.active = False
    finally:
        uninstall()
    assert (pk.build_space, polykernel.cli.build_space, polykernel.cli.write_csv,
            polykernel.kernel.log_moment_table,
            pk.KernelEvaluator.weighted_kernel) == originals
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["kernel.builds"] == 1
    assert metrics["quadrature.moments"] == 5
    assert metrics["kernel.eval_calls"] == 1
    assert metrics["kernel.eval_points"] == 1
    wall = tracer.spans[root].end - tracer.spans[root].start
    assert sum(metrics[m] for m in SELF_METRICS) == pytest.approx(wall, rel=1e-9)


@pytest.mark.parametrize("workload", ["ladder", "eval", "sample", "highq"])
def test_workload_self_times_sum_to_traced_wall(workload, tmp_path):
    # a fresh checkout-like directory: the benchmark writes only under it
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
         workload, "--seed", "5", "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert sum(metrics[m] for m in SELF_METRICS) == pytest.approx(
        metrics["bench.traced_wall_s"], rel=1e-9)
