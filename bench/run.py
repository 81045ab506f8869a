"""mailminer benchmark: three generated workloads driven through the real CLI.

    python3 bench/run.py --workload ingest --seed 1 --seconds 30 --trace 0
    python3 bench/run.py            # every workload, every metric

Each run generates its inputs from --seed (bench/corpus.py), sets them up
SETUP_REPEATS times (corpus generation, plus the `convert` that makes the
CSV for `prep-fit` and `auto-k`) and reports the median as `setup_s`.
It then repeats the workload's command sequence, each command a fresh
`python -m mailminer` process run against this tree's src/, one after
another, for --seconds (at least MIN_REPS times). Between those children
the fixed program bench/reference.py runs as a child too, for about
REF_SHARE of the time the CLI children take. `wall_ref` is the
mean repetition over the mean reference child: the shared machine's speed
drifts by up to 2x over minutes, and both slow down together, so the ratio
holds still where the seconds do not. Means, not medians, because the
machine also flips between a fast and a slow state every second or so, and
a mean over the whole run weighs the two states as the run met them. The
raw mean repetition is the per-layer `cli.wall_s`. The children are
started by bench/spawn.py, which also reads their peak RSS. Every output is
checked against the corpus manifest (bench/checks.py) and against the first
repetition's digest.

With --trace 1 the run also replays the sequence in-process through the
package's public functions with a span around each call (bench/traced.py)
and reports the per-layer metrics instead of the end-to-end ones.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The full record (environment, manifest, digests, spans) goes to
.bench_work/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import corpus

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3
MIN_REPS = 3
STARTUP_PROBES = 5
REF_SHARE = 0.5  # reference-child time per second of timed repetition


@dataclass(frozen=True)
class Step:
    name: str  # reported as cli.<name>_s
    argv: tuple  # "{corpus}" and "{csv}" are filled in; "--out" is appended
    check: object  # checks.<fn>(out_path, ctx) -> failures
    replay: object  # (traced module, layers, paths) -> None, the in-process twin
    scans: bool = False  # reads the corpus, so stderr carries the skip-list


@dataclass(frozen=True)
class Workload:
    name: str
    spec: corpus.CorpusSpec
    from_csv: bool  # set-up converts the corpus to the CSV the steps read
    steps: tuple


def _small_bodies(messages):
    return corpus.CorpusSpec(messages, body_bytes=300)


def _filter(how):
    return lambda t, L, p: t.filter_step(L, p, how)


WORKLOADS = {
    w.name: w
    for w in (
        # Ingest-bound: three scans of a 4k-message, ~16 MB corpus. No
        # clustering, so a clustering change must leave it flat.
        Workload("ingest", corpus.CorpusSpec(4_000), False, (
            Step("convert_csv", ("convert", "{corpus}", "--format", "csv"),
                 checks.converted_csv, lambda t, L, p: t.convert(L, p, "csv"), True),
            Step("convert_arff", ("convert", "{corpus}", "--format", "arff"),
                 checks.converted_arff, lambda t, L, p: t.convert(L, p, "arff"), True),
            Step("top_senders", ("top-senders", "{corpus}", "-n", "10"),
                 checks.top_senders, lambda t, L, p: t.top_senders(L, p), True),
        )),
        # Tabular work on a 5k-row CSV: six reads, four writes, the
        # quadratic discretize, and one long fixed-k fit. No ingest, no
        # silhouette. Bodies never reach the CSV, so they are kept short
        # to spare set-up disk writes. The fit is capped at 8 iterations:
        # uncapped, it converges in 10 to 29 depending on the corpus seed,
        # which would swing the time of a repetition by a third between seeds.
        Workload("prep-fit", _small_bodies(5_000), True, (
            Step("filter_remove", ("filter", "{csv}", "--remove", "MessageId,CC"),
                 checks.removed, _filter("remove")),
            Step("filter_sample", ("filter", "{csv}", "--sample", "0.5", "--seed", "7"),
                 checks.sampled, _filter("sample")),
            Step("filter_shuffle", ("filter", "{csv}", "--shuffle", "--seed", "7"),
                 checks.shuffled, _filter("shuffle")),
            Step("filter_discretize", ("filter", "{csv}", "--discretize", "Date:10"),
                 checks.discretized, _filter("discretize")),
            Step("dupes", ("dupes", "{csv}", "--attrs", "From,Subject,HTML"),
                 checks.dupes, lambda t, L, p: t.dupes(L, p)),
            Step("cluster_k", ("cluster", "{csv}", "--k", "8", "--seed", "42", "--max-iter", "8"),
                 checks.cluster_fixed, lambda t, L, p: t.cluster(L, p, auto=False)),
        )),
        # Silhouette-bound auto-k. The silhouette is O(n^2) in time and
        # memory, so n is capped at 800 rows: 5k rows take ~95 s a run.
        Workload("auto-k", _small_bodies(800), True, (
            Step("cluster_auto_k", ("cluster", "{csv}", "--auto-k", "--kmax", "4", "--seed", "42"),
                 checks.cluster_auto, lambda t, L, p: t.cluster(L, p, auto=True)),
        )),
    )
}
ALL_STEPS = [s.name for w in WORKLOADS.values() for s in w.steps]


@dataclass
class Invocation:
    wall_s: float
    peak_rss_mb: float
    code: int
    stderr: str


class Spawner:
    """Starts CLI children through bench/spawn.py and returns their timings."""

    def __enter__(self):
        env = dict(os.environ, MAILMINER_LOG="info")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("spawn.py"))],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        if exc[0] is not None:
            self.proc.terminate()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, args, cwd):
        """One `python -m mailminer` child, run to completion."""
        return self.spawn([sys.executable, "-m", "mailminer", *map(str, args)], cwd)

    def reference(self, cwd):
        """One bench/reference.py child, run to completion."""
        return self.spawn([sys.executable, str(Path(__file__).with_name("reference.py"))], cwd)

    def spawn(self, argv, cwd):
        err_path = cwd / "stderr.txt"
        request = {"argv": argv, "cwd": str(cwd), "stderr": str(err_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Invocation(reply["wall_s"], reply["maxrss_kb"] / 1024, reply["code"],
                          err_path.read_text(encoding="utf-8", errors="replace"))


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, what, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(f"{what}: {f}" for f in failures[:3])


def _invocation_failures(inv, out, check, ctx, scans):
    if inv.code != 0:
        return [f"exit code {inv.code}: {inv.stderr.strip()[-200:]}"]
    failures = check(out, ctx)
    if scans:
        failures += checks.skip_list(inv.stderr, ctx.manifest)
    return failures


class Run:
    def __init__(self, workload, seed, seconds, spawner):
        self.w = workload
        self.cli = spawner.run
        self.reference = spawner.reference
        self.seed = seed
        self.seconds = seconds
        self.dir = WORK / workload.name
        self.corpus = None  # set by set_up()
        self.csv = self.dir / "emails.csv"
        self.tally = Tally()
        self.first_digest = {}
        self.refs = []  # wall times of the reference children
        self.ref_owed = 0.0  # reference seconds still to run, see calibrate()

    def out(self, step, tag="cli"):
        return self.dir / f"{tag}-{step.name}.out"

    def set_up(self):
        """Make the inputs SETUP_REPEATS times and return the times; the last
        copy is used.

        Each copy goes to a fresh directory and the spare ones are deleted
        afterwards: deleting thousands of files just before a timed
        generation slowed it by up to 3x on an ext4 disk.
        """
        times, digests = [], set()
        for i in range(SETUP_REPEATS):
            self.corpus = self.dir / f"corpus-{i}"
            self.csv.unlink(missing_ok=True)
            t0 = time.perf_counter()
            manifest = corpus.generate(self.corpus, self.w.spec, self.seed)
            if self.w.from_csv:
                inv = self.cli(("convert", self.corpus, "--format", "csv", "--out", self.csv), self.dir)
            times.append(time.perf_counter() - t0)
            digests.add(manifest["digest"])
            if self.w.from_csv:
                ctx = checks.Context(manifest)
                self.tally.record("setup convert", _invocation_failures(
                    inv, self.csv, checks.converted_csv, ctx, scans=True))
        for i in range(SETUP_REPEATS - 1):
            shutil.rmtree(self.dir / f"corpus-{i}")
        self.tally.record("corpus digest", [] if len(digests) == 1 else ["generator is not deterministic"])
        self.manifest = manifest
        self.ctx = checks.Context(manifest, self.csv if self.w.from_csv else None)
        return times

    def sequence(self):
        """One timed repetition of the command sequence, then its checks.

        Its time is the sum of its children's: reference children run
        between them, so that both sample the same seconds of the machine.
        """
        invs = []
        for step in self.w.steps:
            argv = [a.format(corpus=self.corpus, csv=self.csv) for a in step.argv]
            invs.append(self.cli((*argv, "--out", self.out(step)), self.dir))
            self.calibrate(REF_SHARE * invs[-1].wall_s)
        wall = sum(inv.wall_s for inv in invs)
        for step, inv in zip(self.w.steps, invs):
            out = self.out(step)
            failures = _invocation_failures(inv, out, step.check, self.ctx, step.scans)
            if inv.code == 0:
                digest = _digest(out)
                if self.first_digest.setdefault(step.name, digest) != digest:
                    failures.append("output differs from the first repetition")
            self.tally.record(step.name, failures)
        return wall, invs

    def calibrate(self, seconds):
        """Run reference children for about `seconds`, and at least one in
        all. What is left over carries to the next call, so over a run the
        reference takes REF_SHARE of the CLI's time, in small pieces."""
        self.ref_owed += seconds
        while not self.refs or self.ref_owed >= self.refs[-1] / 2:
            inv = self.reference(self.dir)
            self.tally.record("reference", [] if inv.code == 0 else [f"exit code {inv.code}"])
            self.refs.append(inv.wall_s)
            self.ref_owed -= inv.wall_s

    def timed_reps(self):
        reps = []
        t0 = time.perf_counter()
        self.calibrate(0.0)  # samples the speed before the first repetition
        while len(reps) < MIN_REPS or time.perf_counter() - t0 + reps[-1][0] * (1 + REF_SHARE) <= self.seconds:
            reps.append(self.sequence())
        return reps

    def startup(self, probes):
        walls = []
        for _ in range(probes):
            inv = self.cli(("--help",), self.dir)
            self.tally.record("--help", [] if inv.code == 0 else [f"exit code {inv.code}"])
            walls.append(inv.wall_s)
        return statistics.median(walls)

    def traced(self):
        """In-process replay of the sequence with spans; outputs must match."""
        sys.path.insert(0, str(SRC))
        import traced

        tracer = traced.Tracer()
        layers = traced.Layers(tracer)
        with layers.installed():
            t0 = time.perf_counter()
            for step in self.w.steps:
                step.replay(traced, layers, {"corpus": self.corpus, "csv": self.csv,
                                             "out": self.out(step, "traced")})
            total = time.perf_counter() - t0
        for step in self.w.steps:
            same = _digest(self.out(step, "traced")) == self.first_digest.get(step.name)
            self.tally.record(f"traced {step.name}", [] if same else ["in-process output differs from the CLI's"])
        return tracer, total, traced.scaling_probes(tracer)


# Spans recorded by bench/traced.py; each gives the per-layer metric <span>_s.
SPANS = (
    "ingest.scan", "ingest.read", "ingest.parse_eml", "ingest.extract_record",
    "tabular.records_to_dataset", "tabular.write_csv", "tabular.write_arff", "tabular.read_csv",
    "tabular.filter_remove", "tabular.filter_sample", "tabular.filter_randomize",
    "tabular.filter_discretize", "tabular.duplicate_profile",
    "cluster.attribute_ranges", "cluster.kmeans", "cluster.silhouette", "cluster.select_k",
    "analysis.top_senders", "analysis.summarize", "analysis.render_report",
)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(run, reps, startup_s, tracer, traced_s, probes):
    """Per-layer metrics; a layer the workload never calls reads 0."""
    m = {f"{name}_s": tracer.total(name) for name in SPANS}
    c = tracer.counter
    parsed, skipped = c("ingest.scan", "parsed"), c("ingest.scan", "skipped")
    m["ingest.enumerate_s"] = m["ingest.scan_s"] - (
        m["ingest.read_s"] + m["ingest.parse_eml_s"] + m["ingest.extract_record_s"]) if parsed else 0.0
    m.update({
        "ingest.msgs_per_s": _ratio(parsed, m["ingest.scan_s"]),
        "ingest.bytes_read": c("ingest.read", "bytes"),
        "ingest.files_seen": parsed + skipped,
        "ingest.parsed": parsed,
        "ingest.skipped": skipped,
        "ingest.parsed_ratio": _ratio(parsed, parsed + skipped),
        "tabular.csv_bytes": c("tabular.write_csv", "bytes"),
        "tabular.arff_bytes": c("tabular.write_arff", "bytes"),
        "tabular.read_csv_rows_per_s": _ratio(c("tabular.read_csv", "rows"), m["tabular.read_csv_s"]),
        "tabular.missing_cells": c("tabular.read_csv", "missing"),
        "tabular.filter_discretize_scaling": probes.get("tabular.filter_discretize", 0.0),
        "cluster.kmeans_iterations": c("cluster.kmeans", "iterations"),
        "cluster.kmeans_s_per_iter": _ratio(m["cluster.kmeans_s"], c("cluster.kmeans", "iterations")),
        "cluster.kmeans_dist_evals": c("cluster.kmeans", "dist_evals"),
        "cluster.silhouette_pair_evals": c("cluster.silhouette", "pair_evals"),
        "cluster.silhouette_scaling": probes.get("cluster.silhouette", 0.0),
        "cli.startup_s": startup_s,
        "cli.wall_s": statistics.mean(wall for wall, _ in reps),
        "calib.ref_s": statistics.mean(run.refs),
    })
    for name in ALL_STEPS:
        walls = [inv.wall_s for _, invs in reps for step, inv in zip(run.w.steps, invs) if step.name == name]
        m[f"cli.{name}_s"] = statistics.median(walls) if walls else 0.0
    net_wall = m["cli.wall_s"] - startup_s * len(run.w.steps)
    m["trace.net_wall_s"] = net_wall
    m["trace.layers_s"] = tracer.top_level_s()
    m["trace.overhead_s"] = traced_s - net_wall
    return m


def environment():
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            rev = None
    src = hashlib.sha256()
    for path in sorted((SRC / "mailminer").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_rev": rev,
        "src_digest": src.hexdigest()[:16],
        "load1_start": os.getloadavg()[0],
    }


def run_workload(w, seed, seconds, trace, spawner):
    """Returns (e2e metrics, per-layer metrics or None, tally, record)."""
    run = Run(w, seed, seconds, spawner)
    shutil.rmtree(run.dir, ignore_errors=True)
    run.dir.mkdir(parents=True)
    startup_s = run.startup(STARTUP_PROBES if trace else 1)  # also compiles the bytecode
    setup_times = run.set_up()
    reps = run.timed_reps()
    e2e = {
        "wall_ref": statistics.mean(wall for wall, _ in reps) / statistics.mean(run.refs),
        "peak_rss_mb": max(inv.peak_rss_mb for _, invs in reps for inv in invs),
        "setup_s": statistics.median(setup_times),
    }
    layers = spans = None
    if trace:
        tracer, traced_s, probes = run.traced()
        layers = layer_metrics(run, reps, startup_s, tracer, traced_s, probes)
        spans = tracer.dump()
    e2e["ok_ratio"] = 1.0 - run.tally.failed / run.tally.attempted
    shutil.rmtree(run.corpus, ignore_errors=True)
    record = {
        "workload": w.name, "seed": seed, "seconds": seconds, "setup_times_s": setup_times,
        "rep_walls_s": [wall for wall, _ in reps],
        "ref_samples_s": run.refs,
        "rep_step_walls_s": [{s.name: inv.wall_s for s, inv in zip(w.steps, invs)} for _, invs in reps],
        "manifest": {k: v for k, v in run.manifest.items() if k != "senders"},
        "output_digests": run.first_digest,
        "failures": run.tally.messages,
        "spans": spans,
    }
    return e2e, layers, run.tally, record


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}, {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=1)
    args = p.parse_args(argv)
    # SIGTERM unwinds like an exception, so the launcher and its child stop too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "mailminer" / "__main__.py").is_file():
        print(f"bench: no mailminer package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    e2e_units, layer_units = _declared()
    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        with Spawner() as spawner:
            e2e, layers, tally, record = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace, spawner)
        record["env"] = dict(env, load1_end=os.getloadavg()[0])
        attempted += tally.attempted
        failed += tally.failed
        print(f"== {name}: seed {args.seed}, corpus {record['manifest']['digest'][:16]}, "
              f"{len(record['rep_walls_s'])} reps, env {json.dumps(record['env'])}")
        for msg in tally.messages:
            print(f"   FAIL {msg}")
        print(f"   fail_ratio = {tally.failed / tally.attempted} ratio ({tally.failed}/{tally.attempted})")
        shown = dict(e2e, **(layers or {}))
        for metric, value in shown.items():
            print(f"   {metric} = {value:.6g} {e2e_units.get(metric) or layer_units[metric]}")
        chosen = layers if args.trace else e2e
        units = layer_units if args.trace else e2e_units
        if set(chosen) != set(units):
            raise SystemExit(f"bench: metrics {sorted(set(chosen) ^ set(units))} disagree with BENCHMARK.json")
        prefix = "" if len(names) == 1 else f"{name}/"
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in chosen.items()})
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(dict(record, metrics=shown), indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
