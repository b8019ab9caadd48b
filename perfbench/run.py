"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every workload runs the whole system
once on ZH-EN at scale 4 with Dual-AMN (dim 32, model seed 1): generate
the dataset, fit, run paper passes (explain every prediction, then
repair), deploy a one-shard cluster (cache of 512) and answer a seeded
stream of single explain / confidence / verify reads over the wire:

* ``serve-read``  — reads only;
* ``serve-churn`` — the same reads plus toggle writes at 2% of reads.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` wraps each layer's entry points in spans and prints the
per-layer metrics instead.  Every run checks its outputs first; a run
whose checks fail prints ``"correct": false`` and no metrics and exits 1.
The last stdout line is the result object; the line before it is the
full report (machine context, stream digests, sample counts), which is
also written under ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("serve-read", "serve-churn")
DATASET = "ZH-EN"
SCALE = 4.0
EMBED_DIM = 32
MODEL_SEED = 1
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Share of ``--seconds`` spent on paper passes; the reads get the rest.
PASS_SHARE = 0.3
MIN_PASSES = 3
#: Untraced passes a traced run times first, as the overhead reference.
REFERENCE_PASSES = 2
NUM_READS = 40_000
#: Completed reads per slice of the window; throughput is the median over
#: slices, so a burst of outside load moves one slice only.
SLICE_READS = 1_000
#: Untimed reads (10% of the stream) that fill the result cache and the
#: engine's memos before the window opens; with fewer, throughput still
#: climbs through the first seconds of the window.
WARMUP_READS = 4_000
#: Closed-loop callers; each waits for its reply.
CALLERS = 2
CACHE_CAPACITY = 512
#: Pairs read back after the churn replay and compared with a cold ExEA.
SAMPLE_PAIRS = 50


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {SRC / 'repro'} or {ROOT / 'BENCHMARK.json'} missing; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    scratch = OUT / "tmp"
    scratch.mkdir(exist_ok=True)
    # The cluster's snapshot and anything else temporary stays in the checkout.
    os.environ["TMPDIR"] = tempfile.tempdir = str(scratch)
    sys.path[:0] = [str(SRC), str(ROOT)]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    catalogue = spec["per_layer"] if args.trace else spec["end_to_end"]
    correct = not report["failures"]
    result = {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            metric["name"]: {"value": report["values"][metric["name"]], "unit": metric["unit"]}
            for metric in catalogue
        }
        if correct
        else {},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(json.dumps({**report, "result": result}, indent=1))
    for failure in report["failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({key: value for key, value in report.items() if key != "values"}))
    print(json.dumps(result))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Machine context
# ----------------------------------------------------------------------
def blas_threads() -> int | None:
    """Threads of NumPy's bundled OpenBLAS, when the library can be asked."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype, function.argtypes = ctypes.c_int, []
                return int(function())
    return None


def git_commit() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def machine_context() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_mb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "thread_env": {
            key: os.environ.get(key) for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": git_commit(),
    }


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def _pairs_size(_self, pairs, *args, **kwargs) -> int:
    return len(dict.fromkeys(pairs))


def _items_size(_self, items, *args, **kwargs) -> int:
    return len(items)


def paper_entry_points():
    """``(owner, attribute, span name, size)`` of the paper path's public entry points."""
    from repro.core import ADGBuilder
    from repro.core.engine import ExplanationEngine
    from repro.core.repair import pipeline
    from repro.core.repair.low_confidence import LowConfidenceRepairer
    from repro.models import EAModel

    return [
        (EAModel, "fit", "models.fit", None),
        (EAModel, "predict", "models.predict", None),
        (EAModel, "similarity_matrix", "models.similarity_matrix", None),
        (ExplanationEngine, "explain_batch", "engine.explain_batch", _pairs_size),
        (ADGBuilder, "build_many", "adg.build_many", _items_size),
        (pipeline.EARepairer, "confidence", "repair.confidence", None),
        (pipeline.EARepairer, "confidence_batch", "repair.confidence_batch", None),
        (pipeline, "repair_one_to_many", "repair.one_to_many", None),
        (LowConfidenceRepairer, "repair", "repair.low_confidence", None),
    ]


def client_entry_points():
    """The cluster client's calls, wrapped during the read window.

    The server-side layers are read from the cluster's own telemetry;
    per-layer paper metrics come from the passes alone.
    """
    from repro.service import ClusterClient

    return [(ClusterClient, kind, f"cluster.{kind}", None) for kind in ("explain", "confidence", "verify", "mutate")]


@contextmanager
def instrumented(tracer, entry_points):
    """Wrap *entry_points* while the block runs (no-op without a tracer)."""
    if tracer is None:
        yield
        return
    for owner, attribute, name, size in entry_points():
        tracer.wrap(owner, attribute, name, size)
    try:
        yield
    finally:
        tracer.unwrap_all()


@contextmanager
def root_span(tracer, name: str):
    if tracer is None:
        yield
    else:
        with tracer.span(name):
            yield


# ----------------------------------------------------------------------
# The workload phases
# ----------------------------------------------------------------------
def fresh_copy(dataset):
    """The dataset with private copies of both graphs (cold graph memo caches)."""
    from repro.kg import EADataset

    return EADataset(
        dataset.kg1.copy(), dataset.kg2.copy(), dataset.train_alignment, dataset.test_alignment, name=dataset.name
    )


def paper_pass(model, dataset) -> dict:
    """Explain every prediction and repair, on fresh graph copies.

    The heap is collected first (untimed), so every pass starts from the
    same state instead of paying for the previous pass's garbage.
    """
    from repro.core import ExEA

    exea = ExEA(model, fresh_copy(dataset))
    gc.collect()
    started = time.perf_counter()
    explanations = exea.explain_predictions()
    explained = time.perf_counter()
    result = exea.repair()
    repaired = time.perf_counter()
    return {
        "explain_s": explained - started,
        "repair_s": repaired - explained,
        "explanations": explanations,
        "result": result,
    }


def closed_loop(events, call, callers: int, seconds: float | None = None) -> dict:
    """Issue *events* from *callers* closed-loop callers; each waits for its reply.

    Without *seconds* the events are issued once.  With it, callers cycle
    over the events until the window closes.  Returns, for the completed
    reads, their finish times and latencies (compact arrays) and the first
    answer to each ``(kind, source, target)``; the writes in issue order
    as ``[spec, seconds, finished_at]`` (``None`` while unfinished); the
    failures; and the window's start and length.  Only first answers are
    kept, so the bookkeeping adds neither memory nor collector work that
    grows with the length of the window.
    """
    lock = threading.Lock()
    cursor = 0
    writes, failures = [], []
    finished_at, latency, answers = array("d"), array("d"), {}
    started = time.perf_counter()
    deadline = None if seconds is None else started + seconds

    def caller() -> None:
        nonlocal cursor
        my_finished, my_latency, my_answers = array("d"), array("d"), {}
        while True:
            with lock:
                if deadline is None and cursor >= len(events):
                    break
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                event = events[cursor % len(events)]
                cursor += 1
                if event[0] == "write":
                    slot = len(writes)
                    writes.append([event[1], None, None])
            began = time.perf_counter()
            try:
                value = call(event)
            except Exception as error:  # noqa: BLE001 - a failed call is counted, not fatal
                with lock:
                    failures.append(f"{event[0]}: {type(error).__name__}: {error}")
                continue
            finished = time.perf_counter()
            if event[0] == "write":
                writes[slot][1:] = [finished - began, finished]
            else:
                my_finished.append(finished)
                my_latency.append(finished - began)
                my_answers.setdefault(event[1], (*event[1], value))
        with lock:
            finished_at.extend(my_finished)
            latency.extend(my_latency)
            for key, answer in my_answers.items():
                answers.setdefault(key, answer)

    if callers == 1:
        caller()
    else:
        threads = [threading.Thread(target=caller, name=f"caller-{index}") for index in range(callers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return {
        "finished": finished_at,
        "latency": latency,
        "answers": answers,
        "writes": writes,
        "failures": failures,
        "attempted": cursor,
        "started": started,
        "elapsed": time.perf_counter() - started,
    }


def cluster_caller(client):
    """Answer an event through the cluster client: a read, or a mutation batch of one."""

    def call(event):
        if event[0] == "write":
            return client.mutate([event[1]])
        kind, source, target = event[1]
        return getattr(client, kind)(source, target)

    return call


def pin_to_one_cpu() -> int:
    """Run this thread, and every thread and server process it starts from now on, on one CPU.

    On a small shared VM a closed loop that hands every call between two
    CPUs waits on the host to wake an idle vCPU, which makes throughput
    swing by half with the host's load.  On one CPU a blocked caller hands
    over directly to the server, so the figure follows the request path's
    own cost.  New threads and child processes inherit the mask.  Returns
    the CPU.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def server_cpu_s(cluster) -> float:
    """CPU seconds (user + system) the cluster's server processes have used so far."""
    total = 0
    for shard in cluster.processes:
        fields = Path(f"/proc/{shard.process.pid}/stat").read_text().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])
    return total / os.sysconf("SC_CLK_TCK")


def stolen_cpu_s(cpu: int) -> float:
    """CPU seconds the hypervisor has taken back from CPU *cpu* since boot (``steal`` in /proc/stat)."""
    label = f"cpu{cpu}"
    with open("/proc/stat") as stat:
        for line in stat:
            fields = line.split()
            if fields[0] == label:
                return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    return 0.0


@contextmanager
def steal_samples(cpu: int, interval: float = 0.05):
    """``(time, stolen seconds so far)`` of CPU *cpu*, sampled by a thread while the block runs."""
    samples = [(time.perf_counter(), stolen_cpu_s(cpu))]
    stop = threading.Event()

    def sample() -> None:
        while not stop.wait(interval):
            samples.append((time.perf_counter(), stolen_cpu_s(cpu)))

    thread = threading.Thread(target=sample, name="steal-sampler", daemon=True)
    thread.start()
    try:
        yield samples
    finally:
        stop.set()
        thread.join()
        samples.append((time.perf_counter(), stolen_cpu_s(cpu)))


def start_cluster(model, dataset):
    from repro.service import ReplicatedLocalCluster, ServiceConfig

    return ReplicatedLocalCluster(
        model, dataset, num_shards=1, num_replicas=1, service_config=ServiceConfig(cache_capacity=CACHE_CAPACITY)
    ).start()


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run *workload* once; returns values, checks and the report."""
    from perfbench import checks, streams
    from perfbench.measure import mark_steal, quiet_slices, slices, tail
    from perfbench.spans import Tracer

    from repro.core import ExEA, ExEAConfig, low_confidence_threshold
    from repro.datasets import load_benchmark
    from repro.models import DualAMN, TrainingConfig

    tracer = Tracer() if trace else None
    report: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    report["meta"] = machine_context()
    values: dict = {}
    failures: list[str] = []

    # Set-up, part one: generate the dataset (several times; median reported).
    loads = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        dataset = load_benchmark(DATASET, scale=SCALE)
        loads.append(time.perf_counter() - started)

    # Fit (train_s); traced runs wrap it so models.fit_s comes from its span.
    model = DualAMN(TrainingConfig(dim=EMBED_DIM, seed=MODEL_SEED))
    gc.collect()
    with instrumented(tracer, paper_entry_points), root_span(tracer, "fit"):
        started = time.perf_counter()
        model.fit(dataset)
        values["train_s"] = time.perf_counter() - started

    # Paper passes: explain every prediction, then repair.
    reference_passes = []
    if tracer is not None:
        reference_passes = [paper_pass(model, dataset) for _ in range(REFERENCE_PASSES)]
    passes = []
    budget_end = time.perf_counter() + seconds * PASS_SHARE
    with instrumented(tracer, paper_entry_points):
        while len(passes) < MIN_PASSES or time.perf_counter() < budget_end:
            with root_span(tracer, "pass"):
                done = paper_pass(model, dataset)
            if passes:
                done["explanations"] = None  # only the first pass's serve as the reference
            passes.append(done)
    failures += checks.check_passes_agree([p["result"].repaired_alignment for p in passes])
    first = passes[0]
    values["explain_s"] = statistics.median([p["explain_s"] for p in passes])
    values["repair_s"] = statistics.median([p["repair_s"] for p in passes])
    values["hits1_base"] = first["result"].base_accuracy
    values["hits1_repaired"] = first["result"].repaired_accuracy
    report["passes"] = [{"explain_s": p["explain_s"], "repair_s": p["repair_s"]} for p in passes]

    # Set-up, part two: deploy the fitted model, client and server on one CPU.
    cpu = pin_to_one_cpu()
    deploys = [0.0] * SETUP_REPEATS
    started = time.perf_counter()
    cluster = start_cluster(model, dataset)
    deploys[0] = time.perf_counter() - started

    try:
        # The reads: the same seeded stream on both workloads.
        population = streams.pair_population(model.predict().pairs, seed)
        reads = streams.read_stream(population, NUM_READS, seed)
        warmup = [("read", request) for request in reads[:WARMUP_READS]]
        timed_reads = reads[WARMUP_READS:]
        report["digests"] = {"reads": streams.digest(reads)}
        if workload == "serve-churn":
            triples = streams.toggle_triples(dataset, seed)
            events = streams.churn_events(timed_reads, triples)
            report["digests"]["events"] = streams.digest(events)
        else:
            events = [("read", request) for request in timed_reads]

        threshold = low_confidence_threshold(ExEAConfig().adg.theta)
        call = cluster_caller(cluster.client)
        # The warm-up is paid from the reads' share of the seconds, so a run
        # lasts as long whatever the warm-up costs on the machine at hand.
        budget = seconds * (1.0 - PASS_SHARE)
        started = time.perf_counter()
        closed_loop(warmup, call, CALLERS)
        budget = max(budget - (time.perf_counter() - started), budget / 2)
        gc.collect()
        before = cluster.client.stats_snapshot()
        cpu_before = (time.process_time(), server_cpu_s(cluster))
        with instrumented(tracer, client_entry_points), steal_samples(cpu) as steal:
            window = closed_loop(events, call, CALLERS, budget)
        cpu_after = (time.process_time(), server_cpu_s(cluster))
        # The process peak is taken here, before the checks allocate.
        peak_self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        after = cluster.client.stats_snapshot()

        # Checks against a cold ExEA on the unmutated dataset.
        cold = ExEA(model, fresh_copy(dataset))
        explanations = first["explanations"]
        confidences = cold.repairer.confidence_batch(population, cold.reference_alignment())
        if workload == "serve-churn":
            issued = [spec for spec, _, _ in window["writes"]]
            restore = streams.restoring_writes(issued)
            for spec in restore:
                cluster.client.mutate([spec])
            replica = fresh_copy(dataset)
            streams.apply_writes(replica, issued + restore)
            failures += checks.check_graphs_equal(replica, dataset)
            sample = [
                (kind, source, target, getattr(cluster.client, kind)(source, target))
                for source, target in population[:SAMPLE_PAIRS]
                for kind in streams.KINDS
            ]
            failures += checks.check_reads(sample, explanations, confidences, threshold)
        else:
            failures += checks.check_reads(list(window["answers"].values()), explanations, confidences, threshold)
        if window["failures"]:
            report["call_failures"] = window["failures"][:10]
    finally:
        cluster.close()

    # The other deployments are timed after the reads, not before them: a
    # cluster started right after closing another one sometimes served about
    # 40% slower for its whole life on a 2-core box (see README, "Serving
    # on one CPU").
    for index in range(1, SETUP_REPEATS):
        started = time.perf_counter()
        extra = start_cluster(model, dataset)
        deploys[index] = time.perf_counter() - started
        extra.close()
    setups = [load + deploy for load, deploy in zip(loads, deploys)]
    values["setup_s"] = statistics.median(setups)
    report["setup_s_samples"] = setups

    finished_writes = [write for write in window["writes"] if write[1] is not None]
    read_ms = [took * 1000.0 for took in window["latency"]]
    cuts = slices(
        list(zip(window["finished"], read_ms)),
        [write[2] for write in finished_writes],
        window["started"],
        SLICE_READS,
    )
    if not cuts:
        failures.append(f"{len(read_ms)} reads in the window fill no slice of {SLICE_READS}")
        cuts = [{"begin": window["started"], "end": window["started"] + 1.0, "rps": 0.0, "p50": 0.0, "p99": 0.0}]
    # Throughput counts completions per second the host left the serving
    # CPU to the program (see README, "Serving on one CPU").  Latency
    # cannot be netted that way, so it is reported, not gated: p50 and p99
    # from the half of the slices in which the host took the least.
    mark_steal(cuts, steal)
    quiet = quiet_slices(cuts)
    values["throughput_rps"] = statistics.median([cut["unstolen_rps"] for cut in cuts])
    report["p50_ms"] = statistics.median([cut["p50"] for cut in quiet])
    report["p99_ms"] = statistics.median([cut["p99"] for cut in quiet])
    values["ok_rate"] = (len(read_ms) + len(finished_writes)) / window["attempted"]
    # Children count once reaped: the server's peak is known after cluster.close().
    values["peak_rss_mb"] = (peak_self_kb + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
    report["samples"] = {
        "passes": len(passes),
        "slices": len(cuts),
        "reads_per_slice": SLICE_READS,
        "quiet_slices": len(quiet),
        "slice_rps": [round(cut["rps"], 1) for cut in cuts],
        "slice_p99_ms": [round(cut["p99"], 2) for cut in cuts],
        "slice_steal_frac": [round(cut["steal"], 3) for cut in cuts],
        # The same medians with the host's share left in (wall-clock only).
        "wall_clock": {
            "throughput_rps": statistics.median([cut["rps"] for cut in cuts]),
            "p99_ms": statistics.median([cut["p99"] for cut in cuts]),
        },
        "reads": tail(read_ms),
        "writes": tail([write[1] * 1000.0 for write in finished_writes]),
        "window_s": window["elapsed"],
        "client_cpu_ms_per_call": (cpu_after[0] - cpu_before[0]) * 1000.0 / max(window["attempted"], 1),
        "server_cpu_ms_per_call": (cpu_after[1] - cpu_before[1]) * 1000.0 / max(window["attempted"], 1),
        # Share of the serving CPU's time the host took back during the
        # window: a run with a high share measured the host, not the program.
        "window_steal_frac": (steal[-1][1] - steal[0][1]) / window["elapsed"],
    }
    attempted = len(passes) + window["attempted"]
    failed = len(window["failures"])

    if tracer is not None:
        values.update(layer_values(tracer, passes, reference_passes, loads, window, before, after))
        tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")

    report.update(values=values, failures=failures, attempted=attempted, failed=failed)
    return report


# ----------------------------------------------------------------------
# Per-layer metrics (traced run)
# ----------------------------------------------------------------------
def layer_values(tracer, passes, reference_passes, loads, window, before, after) -> dict:
    """Every per-layer metric, from spans, RepairResult and telemetry deltas."""
    from perfbench.measure import counter_delta, percentile, stage_ms, tail
    from perfbench.spans import self_times

    own = self_times(tracer.spans)
    pass_traces = [span.trace_id for span in tracer.spans if span.name == "pass"]
    per_pass: dict[int, dict[str, list]] = {trace_id: {} for trace_id in pass_traces}
    for span in tracer.spans:
        if span.trace_id in per_pass:
            per_pass[span.trace_id].setdefault(span.name, []).append(span)

    def per_pass_median(name: str, measure) -> float:
        return statistics.median([measure(spans.get(name, [])) for spans in per_pass.values()])

    def calls(name):
        return per_pass_median(name, len)

    def total(name):
        return per_pass_median(name, lambda spans: sum(span.duration for span in spans))

    def own_total(*names):
        return statistics.median(
            [sum(own[span.span_id] for name in names for span in spans.get(name, [])) for spans in per_pass.values()]
        )

    def size(name):
        return per_pass_median(name, lambda spans: sum(span.size for span in spans))

    result = passes[0]["result"]
    one_to_many, low_confidence = result.one_to_many, result.low_confidence
    values = {
        "datasets.load_benchmark_s": statistics.median(loads),
        "models.fit_s": sum(span.duration for span in tracer.spans if span.name == "models.fit"),
        "models.predict_s": total("models.predict"),
        "models.predict_calls": calls("models.predict"),
        "models.similarity_matrix_s": total("models.similarity_matrix"),
        "models.similarity_matrix_calls": calls("models.similarity_matrix"),
        "engine.explain_batch_self_s": own_total("engine.explain_batch"),
        "engine.explain_batch_calls": calls("engine.explain_batch"),
        "engine.pairs_explained": size("engine.explain_batch"),
        "engine.pairs_per_call": size("engine.explain_batch") / max(calls("engine.explain_batch"), 1),
        "adg.build_many_self_s": own_total("adg.build_many"),
        "adg.build_many_calls": calls("adg.build_many"),
        "adg.graphs_built": size("adg.build_many"),
        "repair.confidence_calls": calls("repair.confidence"),
        "repair.confidence_batch_calls": calls("repair.confidence_batch"),
        "repair.confidence_self_s": own_total("repair.confidence", "repair.confidence_batch"),
        "repair.one_to_many_s": total("repair.one_to_many"),
        "repair.low_confidence_s": total("repair.low_confidence"),
        "repair.relation_conflicts": result.num_relation_conflicts,
        "repair.one_to_many_conflicts": one_to_many.num_conflicts if one_to_many else 0,
        "repair.reassigned": (one_to_many.num_reassigned if one_to_many else 0)
        + (low_confidence.num_reassigned if low_confidence else 0),
        "repair.greedy_fallback": low_confidence.num_greedy_fallback if low_confidence else 0,
    }
    reference = statistics.median([p["explain_s"] + p["repair_s"] for p in reference_passes])
    traced = statistics.median([p["explain_s"] + p["repair_s"] for p in passes])
    values["obs.trace_overhead_frac"] = traced / reference - 1.0

    # Server-side layers: deltas of the cluster's telemetry over the window.
    overall_before, overall_after = before.get("overall", {}), after.get("overall", {})

    def delta(*path):
        return counter_delta(overall_after, overall_before, *path)

    writes = [took for _, took, _ in window["writes"] if took is not None]

    def per_write(key):
        return delta("invalidation", key) / len(writes) if writes else 0.0

    lookups = delta("cache_hits") + delta("cache_misses")
    values.update(
        {
            "service.cache_hit_rate": delta("cache_hits") / lookups if lookups else 0.0,
            "service.batches": delta("num_batches"),
            "service.batch_occupancy": (
                delta("batched_requests") / delta("num_batches") if delta("num_batches") else 0.0
            ),
            "service.rejected": delta("rejected"),
            "service.expired": delta("expired"),
            "service.mutate_ms_p50": percentile(writes, 50.0) * 1000.0 if writes else 0.0,
            "service.mutate_ms_tail": tail(writes)["tail"] * 1000.0 if writes else 0.0,
            "service.entries_dropped_per_write": per_write("entries_dropped"),
            "service.blast_entities_per_write": per_write("blast_entities"),
            "service.wholesale_invalidations": delta("invalidation", "wholesale"),
        }
    )
    for stage in ("queue", "batch", "engine"):
        for label, quantile in (("p50", 0.50), ("p99", 0.99)):
            values[f"service.{stage}_ms_{label}"] = stage_ms(overall_after, overall_before, stage, quantile)

    client_before = before.get("client_wire", {}).get("overall", {})
    client_after = after.get("client_wire", {}).get("overall", {})
    server_before, server_after = overall_before.get("wire", {}), overall_after.get("wire", {})

    def wire(key):
        return counter_delta(client_after, client_before, key) + counter_delta(server_after, server_before, key)

    def failed_over(snapshot):
        return sum(replica["failures"] for replica in snapshot.get("routing", {}).get("replicas", []))

    requests = len(window["latency"]) + len(writes)
    read_ms = [took * 1000.0 for took in window["latency"]]
    values.update(
        {
            "transport.wire_encode_ms": wire("encode_ns") / 1e6 / wire("frames_sent") if wire("frames_sent") else 0.0,
            "transport.wire_decode_ms": (
                wire("decode_ns") / 1e6 / wire("frames_received") if wire("frames_received") else 0.0
            ),
            "transport.bytes_per_request": (
                counter_delta(client_after, client_before, "bytes_sent")
                + counter_delta(client_after, client_before, "bytes_received")
            )
            / requests,
            "transport.round_trip_overhead_ms": (
                percentile(read_ms, 50.0) - stage_ms(overall_after, overall_before, "request", 0.50)
            ),
            "cluster.retries": failed_over(after) - failed_over(before),
        }
    )
    return values


if __name__ == "__main__":
    sys.exit(main())
