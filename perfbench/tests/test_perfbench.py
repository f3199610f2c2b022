"""Tests of the benchmark's own machinery: corpus, recheck, time limit."""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402


def _snapshot(commands):
    return [(c.key, c.argv, json.dumps(c.graph), c.source, c.recheck) for c in commands]


def test_corpus_repeats_for_a_seed():
    golden, unfinished = corpus.load_golden()
    for workload in corpus.WORKLOADS:
        first = corpus.build_corpus(workload, 7, golden, unfinished)
        again = corpus.build_corpus(workload, 7, golden, unfinished)
        assert _snapshot(first) == _snapshot(again)
    a = corpus.build_corpus("epsilon-mix", 1, golden, unfinished)
    b = corpus.build_corpus("epsilon-mix", 2, golden, unfinished)
    assert sorted(c.key for c in a) != sorted(c.key for c in b)


def test_generated_graphs_put_every_edge_on_a_triangle():
    for seed in range(20):
        assert corpus.random_multigraph(seed) == corpus.random_multigraph(seed)
        assert not corpus.edges_off_triangles(corpus.random_multigraph(seed))
        union = corpus.triangle_union(seed)
        assert not corpus.edges_off_triangles(union)
    assert corpus.edges_off_triangles({"order": 4, "edges": [[0, 1, 1], [1, 2, 1], [2, 3, 1]]})


def test_recheck_rejects_a_certificate_missing_one_triangle(tmp_path):
    graph = corpus.fan_graph(7)
    path = tmp_path / "fan7.json"
    path.write_text(json.dumps(graph))
    code, out, _err, _s, timed_out = run.run_in_process(["epsilon", str(path)], 30.0)
    assert code == 0 and not timed_out
    assert check.recheck("epsilon", out, graph) is None

    data = json.loads(out)
    data["certificate"]["triangles"].pop()
    broken = json.dumps(data).encode()
    assert check.recheck("epsilon", broken, graph) is not None
    cmd = corpus.Command("epsilon fan7", ["epsilon", "{input}"], graph=graph, recheck="epsilon")
    assert check.classify(cmd, None, 0, broken, b"", False)[0] == check.WRONG


def test_golden_mismatch_is_wrong():
    cmd = corpus.setup_command()
    golden = {"exit": 0, "bytes": 2, "sha256": check.digest(b"{}")}
    assert check.classify(cmd, golden, 0, b"{}", b"", False)[0] == check.OK
    assert check.classify(cmd, golden, 0, b"[]", b"", False)[0] == check.WRONG
    assert check.classify(cmd, golden, 1, b"{}", b"", False)[0] == check.EXIT


def test_timed_out_command_counts_as_failed(tmp_path):
    sweep = corpus.Command("sweep epsilon 12", ["sweep", "epsilon", "12"])
    outcome = run.run_pass([sweep], run.run_child, 0.3, {}, tmp_path)
    assert [r["status"] for r in outcome.rows] == [check.TIMEOUT]
    counts = run.tally(outcome.rows)
    assert counts["failed"] == 1 and counts["timeouts"] == 1
    code, _out, _err, seconds, timed_out = run.run_in_process(["sweep", "epsilon", "12"], 0.3)
    assert timed_out and code is None and seconds < 5


def test_tail_has_ten_samples_beyond():
    samples = [float(i) for i in range(40)]
    value, pct = run.tail(samples)
    assert sum(s > value for s in samples) == run.TAIL_BEYOND
    assert pct == 75.0


def test_tracer_spans_every_binding_and_restores_it(tmp_path):
    import tracer
    from tridecomp import augment, cli, decomposer, families

    originals = (augment.epsilon_exact, cli.FAMILY_SPECS["fan"], families.find_decomposition,
                 decomposer.CoverInstance.__dict__["solve"])
    path = tmp_path / "fan7.json"
    path.write_text(json.dumps(corpus.fan_graph(7)))
    spans = tracer.Tracer()
    spans.install()
    try:
        assert run.run_in_process(["epsilon", str(path)], 30.0)[0] == 0
        assert run.run_in_process(["construct", "fan", "7"], 30.0)[0] == 0
    finally:
        spans.uninstall()
    assert originals == (augment.epsilon_exact, cli.FAMILY_SPECS["fan"],
                         families.find_decomposition, decomposer.CoverInstance.__dict__["solve"])
    named = {spans.names[s[tracer.NAME]] for s in spans.spans}
    assert {"cli.main", "augment.epsilon_exact", "decomposer.CoverInstance.solve",
            "families.fan", "families.validate_construction"} <= named
    table = tracer.per_layer(spans, 2.0, 1.0, 0)
    assert table["decomposer.solve.calls"][0] >= 1
    assert table["trace.overhead_ratio"][0] == 2.0
    # Self times split the root spans (one cli.main per command) without gap or overlap.
    layer_self = sum(table[f"{layer}.self_s"][0] for layer in tracer.LAYERS)
    roots = [s for s in spans.spans if s[tracer.PARENT] < 0]
    assert len(roots) == 2
    assert abs(layer_self - sum(s[tracer.END] - s[tracer.START] for s in roots)) < 1e-9
