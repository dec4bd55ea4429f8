"""Self-tests for the benchmark harness.

Run from the repository root with ``PYTHONPATH=src python -m pytest bench``.
"""

import contextlib
import importlib
import io
import json
from pathlib import Path

import pytest

import corpus
import run
import tracing
from tracing import Installed, Span, Tracer, layer_totals, self_times


def test_same_seed_gives_identical_corpora():
    for labeled in (False, True):
        first = corpus.to_csv(corpus.generate(7, 300), labeled)
        again = corpus.to_csv(corpus.generate(7, 300), labeled)
        assert first.encode() == again.encode()
        assert corpus.to_csv(corpus.generate(8, 300), labeled) != first


def test_self_time_on_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("leaf", 2.0, 3.0, 1),
        Span("b", 5.0, 7.0, 0),
        Span("a", 7.5, 8.0, 0),
    ]
    assert self_times(spans) == pytest.approx([4.5, 2.0, 1.0, 2.0, 0.5])
    totals = layer_totals(spans)
    assert totals["a"] == (pytest.approx(2.5), 2)
    assert totals["root"] == (pytest.approx(4.5), 1)


def test_overlapping_children_are_counted_once():
    spans = [Span("p", 0.0, 10.0, -1), Span("c", 1.0, 4.0, 0), Span("c", 3.0, 6.0, 0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def _originals():
    return {
        (t.module, t.attr): getattr(importlib.import_module(t.module), t.attr)
        for t in tracing.TARGETS
    }


def _cli_output(tmp_path: Path, workload: run.Workload, rows, seed: int) -> tuple[bytes, str]:
    """Run the CLI in-process on ``rows``; return its output and console text."""
    from soilfuzz import cli

    src = tmp_path / "in.csv"
    src.write_text(corpus.to_csv(rows, workload.iterations is not None), encoding="utf-8")
    out = tmp_path / "expected.out"
    console = io.StringIO()
    with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
        assert cli.main(workload.argv(seed, workload.iterations, src, out)) == 0
    return out.read_bytes(), console.getvalue()


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_wrappers_are_restored_after_a_traced_run(tmp_path, name):
    before = _originals()
    tracer = Tracer()
    with Installed(tracer) as installed:
        assert _originals() != before
        _cli_output(tmp_path, run.WORKLOADS[name], corpus.generate(3, 12), 3)
    assert installed.absent == set()
    assert tracer.spans and tracer.rows_read == 12
    assert _originals() == before

    with pytest.raises(RuntimeError):
        with Installed(Tracer()):
            raise RuntimeError("boom")
    assert _originals() == before


def test_missing_name_is_reported_absent():
    targets = tracing.TARGETS + (tracing.Target("soilfuzz.rules", "no_such_name", "rules.gone"),)
    with Installed(Tracer(), targets) as installed:
        pass
    assert installed.absent == {"rules.gone"}
    metrics = run.layer_metrics(Tracer(), {"rules.rule_dof"}, 1.0, 1.0, 0.0)
    assert "rules.rule_dof.s" not in metrics and "rules.rule_dof.calls" not in metrics


def _flip_last_digit(text: bytes, end: int) -> bytes:
    i = max(text.rfind(str(d).encode(), 0, end) for d in range(10))
    return text[:i] + str((int(text[i:i + 1]) + 1) % 10).encode() + text[i + 1:]


def _wrong(name: str, good: bytes) -> bytes:
    """Change one number: the printed accuracy for induce, else the last one."""
    if name == "induce_search":
        return _flip_last_digit(good, good.index(b"\n", good.index(b"# training accuracy")))
    return _flip_last_digit(good, len(good))


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_truncated_or_wrong_output_fails_the_check(tmp_path, monkeypatch, name):
    import checks

    workload = run.WORKLOADS[name]
    seed, rows = 5, corpus.generate(5, 20)
    good, console = _cli_output(tmp_path, workload, rows, seed)
    src = tmp_path / "corpus.csv"
    session = run.Session(workload, seed, tmp_path, {}, getattr(checks, workload.check_name))

    def fake_run_cli(output: bytes):
        def fake(argv, console_path, env):
            Path(argv[argv.index("-o") + 1]).write_bytes(output)
            Path(console_path).write_text(console, encoding="utf-8")
            return run.Child(0.5, 20.0, 0)
        return fake

    monkeypatch.setattr(run, "run_cli", fake_run_cli(good))
    session.run(rows, src, workload.iterations)
    assert (session.attempted, session.failed) == (20, 0), session.problems

    for bad in (good[: len(good) // 2], _wrong(name, good)):
        # A fresh session, so the check itself must catch the bad output
        # rather than the comparison with an earlier run's bytes.
        session = run.Session(workload, seed, tmp_path, {}, getattr(checks, workload.check_name))
        monkeypatch.setattr(run, "run_cli", fake_run_cli(bad))
        session.run(rows, src, workload.iterations)
        assert session.failed == session.attempted == 20
        assert session.problems


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    timed = [run.Child(1.0, 10.0, 0)]
    end_to_end = run.end_to_end_metrics(timed, [0.1], [0.5], 100)
    assert [m["name"] for m in spec["end_to_end"]] == list(end_to_end)
    per_layer = run.layer_metrics(Tracer(), set(), 1.0, 1.0, 0.0)
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == {**end_to_end, **per_layer}[m["name"]][1]
