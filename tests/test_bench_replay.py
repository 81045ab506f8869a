"""The benchmark's in-process replay, run on a small generated corpus.

`python3 bench/run.py --trace 1` replays each CLI step through the
package's public functions (bench/traced.py), with mailminer's internal
calls routed through traced wrappers, and checks that every replayed
output equals the CLI's bytes. This test does the same on a 60-message
corpus from bench/corpus.py, so a change under src/ that breaks a name
the replay needs fails here. Nothing under bench/ is changed: both files
are loaded as modules of their own names.
"""

import importlib.util
import math
import sys

from helpers import ROOT, run_cli

MESSAGES = 60
SEED = 3
# Each replayed step, as bench/run.py runs it: (name, CLI arguments without
# --out, the replay given the traced module, its layers and the paths).
STEPS = [
    ("convert_csv", ["convert", "{corpus}", "--format", "csv"], lambda t, L, p: t.convert(L, p, "csv")),
    ("convert_arff", ["convert", "{corpus}", "--format", "arff"], lambda t, L, p: t.convert(L, p, "arff")),
    ("top_senders", ["top-senders", "{corpus}", "-n", "10"], lambda t, L, p: t.top_senders(L, p)),
    ("filter_remove", ["filter", "{csv}", "--remove", "MessageId,CC"], lambda t, L, p: t.filter_step(L, p, "remove")),
    ("filter_sample", ["filter", "{csv}", "--sample", "0.5", "--seed", "7"], lambda t, L, p: t.filter_step(L, p, "sample")),
    ("filter_shuffle", ["filter", "{csv}", "--shuffle", "--seed", "7"], lambda t, L, p: t.filter_step(L, p, "shuffle")),
    ("filter_discretize", ["filter", "{csv}", "--discretize", "Date:10"], lambda t, L, p: t.filter_step(L, p, "discretize")),
    ("dupes", ["dupes", "{csv}", "--attrs", "From,Subject,HTML"], lambda t, L, p: t.dupes(L, p)),
    ("cluster_k", ["cluster", "{csv}", "--k", "8", "--seed", "42", "--max-iter", "8"], lambda t, L, p: t.cluster(L, p, auto=False)),
    ("cluster_auto_k", ["cluster", "{csv}", "--auto-k", "--kmax", "4", "--seed", "42"], lambda t, L, p: t.cluster(L, p, auto=True)),
]


def _load(name):
    """bench/<name>.py as a module of its own name, without putting bench/
    on sys.path."""
    spec = importlib.util.spec_from_file_location(f"mailminer_bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up
    spec.loader.exec_module(module)
    return module


def test_every_replayed_step_writes_the_cli_output(tmp_path):
    corpus, traced = _load("corpus"), _load("traced")
    paths = {"corpus": tmp_path / "corpus", "csv": tmp_path / "emails.csv"}
    corpus.generate(paths["corpus"], corpus.CorpusSpec(MESSAGES), SEED)
    for name, argv, _ in [("setup", STEPS[0][1], None), *STEPS]:
        out = paths["csv"] if name == "setup" else tmp_path / f"cli-{name}.out"
        proc = run_cli(*(a.format(**paths) for a in argv), "--out", out, cwd=tmp_path)
        assert proc.returncode == 0, (name, proc.stderr)

    tracer = traced.Tracer()
    layers = traced.Layers(tracer)
    with layers.installed():
        for name, _, replay in STEPS:
            replay(traced, layers, {**paths, "out": tmp_path / f"traced-{name}.out"})
    for name, _, _ in STEPS:
        assert (tmp_path / f"traced-{name}.out").read_bytes() == (tmp_path / f"cli-{name}.out").read_bytes(), name
    assert tracer.calls("cluster.select_k") and tracer.calls("ingest.parse_eml")

    probes = traced.scaling_probes(tracer)
    assert "tabular.filter_discretize" in probes
    assert all(ratio > 0 and math.isfinite(ratio) for ratio in probes.values())
