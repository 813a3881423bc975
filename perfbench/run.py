"""facesim benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the benchmark imports facesim from the `src/` directory
beside this one and writes only under `.perfbench_work/` (scratch, removed at
exit) and `.perfbench_out/` (trace files) at the repository root.

Load model: closed loop, one client. One process runs the workload's CLI
commands in-process, one after another, with BLAS pinned to one thread.

Protocol: the import of facesim is timed five times in fresh interpreters
and input generation seven times, and `setup_s` is the sum of the two medians;
one warm-up round follows; then rounds (a timed CLI pass plus any library
work) repeat until the next round would overrun `--seconds`, and at least
twice. `setup_s` and `pass_s` are scaled to the reference host speed (see
`speed.py`). With `--trace 0` every round is untraced and the end-to-end
metrics are printed. With `--trace 1` rounds alternate untraced and traced,
and the per-layer metrics are printed: stage figures from the untraced
passes, layer figures from the traced ones. Every round's outputs are
checked; an operation that exits non-zero or fails its check counts as
failed, and so does a traced pass whose exact call counts differ from the
first traced pass's.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The line before it records
the run's provenance.
"""

import os

# pinned before anything imports numpy, so BLAS starts single-threaded
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import glob
import json
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

import speed
import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

SETUP_REPEATS = 7
IMPORT_REPEATS = 5
IMPORT_TIMEOUT_S = 60
# exact counts, which must repeat from one traced pass to the next
COUNT_FIELDS = re.compile(r"\.(calls|calls_per_\w+)$")
MIN_ROUNDS = 2
EXIT_INCORRECT = 1
EXIT_UNUSABLE = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input sizes; 'tiny' is for the self-test only",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def import_facesim():
    """Import facesim from this checkout's src/; an error message, or None."""
    if not os.path.isfile(os.path.join(SRC, "facesim", "__init__.py")):
        return f"no facesim sources under {SRC}"
    sys.path.insert(0, SRC)
    try:
        import facesim.cli  # noqa: F401  (imports every layer and numpy)
    except ImportError as exc:
        return f"cannot import facesim: {exc}"
    if not os.path.abspath(facesim.cli.__file__).startswith(SRC + os.sep):
        return f"imported facesim from {facesim.cli.__file__}, not from {SRC}"
    return None


def import_times():
    """Scaled seconds to import facesim.cli, each in a fresh interpreter."""
    from workloads import SetupError

    times = []
    for _ in range(IMPORT_REPEATS):
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "speed.py"), SRC],
                capture_output=True, text=True, timeout=IMPORT_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise SetupError(f"timing the import took over {IMPORT_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            raise SetupError(f"timing the import failed:\n{proc.stderr[-2000:]}")
        times.append(float(proc.stdout))
    return times


def load_metrics():
    """(end-to-end, per-layer) metrics of BENCHMARK.json as {name: unit}."""
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def git_sha():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def blas_threads():
    """Threads OpenBLAS reports it will use, or None when it cannot be asked."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance(args):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "reference_probe_s": speed.REFERENCE_PROBE_S,
    }


def run_cli(cli, argv):
    """Exit code of one in-process CLI command; a traceback counts as -1."""
    try:
        return cli.run(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_UNUSABLE
    except Exception:  # the loop must go on and count the failure
        traceback.print_exc()
        return -1


def run_commands(cli, workload):
    rcs, times = {}, {}
    for label, argv in workload.commands():
        start = perf_counter()
        rcs[label] = run_cli(cli, argv)
        times[label] = perf_counter() - start
    return rcs, times


def run_pass(cli, workload, tracer):
    """(scaled seconds, wall seconds, exit codes, wall seconds per command) of one pass."""
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink), (
        tracer or contextlib.nullcontext()
    ):
        pass_s, wall_s, (rcs, times) = speed.timed(run_commands, cli, workload)
    return pass_s, wall_s, rcs, times


def percentile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_figures(summary, workload, wall_s, names):
    """Per-layer metrics of one traced pass."""
    stats = summary["stats"]

    def per(count, denominator):
        return count / denominator if denominator else 0.0

    def rate(name):
        s = stats[name]
        return per(s["items"], s["busy_s"])

    out = {}
    for name in names:
        span, _, field = name.rpartition(".")
        if field in ("self_s", "calls") and span in stats:
            out[name] = stats[span][field]
    out.update({
        "corpus.load_embeddings.rows_per_s": rate("corpus.load_embeddings"),
        "corpus.save_embeddings.rows_per_s": rate("corpus.save_embeddings"),
        "trainer.triplet_loss.calls_per_triplet_epoch": per(
            stats["trainer.triplet_loss"]["calls"], workload.per_item["triplet_epoch"]
        ),
        "trainer.validation_s": summary["under"].get(
            ("trainer.train", "evaluator.eval_triplets"), 0.0
        ),
        "trainer.active_fraction.final": workload.active_fraction,
        "evaluator.similarity_score.calls_per_triplet": per(
            stats["evaluator.similarity_score"]["calls"], workload.per_item["triplet"]
        ),
        "trace.unattributed_s": wall_s - summary["root_s"],
    })
    for span in (
        "attributes.group_distance", "selector.rank_candidates", "selector.similarity_score"
    ):
        out[f"{span}.calls_per_query"] = per(stats[span]["calls"], workload.per_item["query"])
    return out


def count_fields(layers):
    return {n: v for n, v in layers.items() if COUNT_FIELDS.search(n)}


def measure(args, end_to_end, per_layer):
    import workloads
    from facesim import cli

    size = workloads.SIZES[args.size][args.workload]
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        workload = workloads.WORKLOADS[args.workload](work_dir, args.seed, size)

        def setup_once():
            with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
                workload.setup()

        import_s = import_times() if not args.trace else []
        setup_s = [speed.timed(setup_once)[0] for _ in range(SETUP_REPEATS)]

        tracer = tracing.Tracer() if args.trace else None
        counts = {"attempted": 0, "failed": 0}
        rounds = []
        first_counts = {}
        count_mismatches = set()
        last_traced = {}

        def one_round(traced):
            start = perf_counter()
            pass_s, wall_s, rcs, times = run_pass(cli, workload, tracer if traced else None)
            spans = tracer.take_spans() if traced else None
            try:
                failed = set(workload.check(rcs))
                n_library, library_failed = workload.after_pass()
            except Exception:  # a broken output fails the round, not the run
                traceback.print_exc()
                failed, n_library, library_failed = {"check"}, 0, []
            ok = not failed and not library_failed
            layers = None
            if ok and traced:
                layers = layer_figures(tracing.summarize(spans), workload, wall_s, per_layer)
                # one more operation: the exact counts must equal the first traced pass's
                n_library += 1
                got = count_fields(layers)
                first_counts.update((n, v) for n, v in got.items() if n not in first_counts)
                differ = {n for n, v in got.items() if v != first_counts[n]}
                if differ:
                    count_mismatches.update(differ)
                    failed.add("counts")
                    ok = False
            counts["attempted"] += len(rcs) + n_library
            counts["failed"] += len(failed) + len(library_failed)
            if not ok:
                print(f"round {len(rounds)}: failed {sorted(failed) + library_failed[:5]}",
                      file=sys.stderr)
            rounds.append({
                "traced": traced,
                "pass_s": pass_s,
                "wall_s": wall_s,
                "round_s": perf_counter() - start,
                "stages": workload.stages(times) if ok and not traced else None,
                "layers": layers if ok else None,
            })
            if traced:
                last_traced.update(wall_s=wall_s, spans=spans, commands=len(rcs))

        one_round(False)  # warm-up: fills caches, fixes the reference outputs
        warm_latencies = len(workload.latencies_ms())
        deadline = perf_counter() + args.seconds
        i = 0
        while i < MIN_ROUNDS or perf_counter() + statistics.median(
            r["round_s"] for r in rounds
        ) <= deadline:
            one_round(bool(args.trace) and i % 2 == 1)
            i += 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    timed = rounds[1:]
    untraced = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    latencies = workload.latencies_ms()[warm_latencies:]
    pass_s = statistics.median(r["pass_s"] for r in untraced)

    def median_of(records, key):
        figures = [r[key] for r in records if r[key] is not None]
        names = figures[0].keys() if figures else ()
        return {n: statistics.median(f[n] for f in figures) for n in names}

    if args.trace:
        values = dict.fromkeys(per_layer, 0.0)
        values.update(median_of(untraced, "stages"))
        values.update(median_of(traced, "layers"))
        values.update({
            "select.query_ms.p50": percentile(latencies, 50),
            "select.query_ms.p90": percentile(latencies, 90),
            "select.query_ms.samples": len(latencies),
            "failed_ops_ratio": counts["failed"] / counts["attempted"],
            "trace.overhead_ratio": statistics.median(r["pass_s"] for r in traced) / pass_s - 1.0,
        })
        units = per_layer
    else:
        values = {
            "setup_s": statistics.median(import_s) + statistics.median(setup_s),
            "pass_s": pass_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = end_to_end
    metrics = {n: {"value": values[n], "unit": unit} for n, unit in units.items()}
    detail = {
        "count_mismatches": sorted(count_mismatches),
        "import_s": import_s,
        "setup_s": setup_s,
        "rounds": [{k: r[k] for k in ("traced", "pass_s", "wall_s")} for r in rounds],
        "latency_samples": len(latencies),
    }
    return counts, metrics, detail, last_traced or None


def write_trace(args, prov, detail, last_traced):
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "provenance": prov,
            "detail": detail,
            "wall_s": last_traced["wall_s"],
            "commands": last_traced["commands"],
            "span_fields": ["name", "start", "end", "parent", "items"],
            "spans": last_traced["spans"],
        }, fh)
        fh.write("\n")
    return path


def main(argv=None):
    args = parse_args(argv)
    error = import_facesim()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_UNUSABLE
    import workloads  # imports facesim, so only once src/ is on the path

    try:
        end_to_end, per_layer = load_metrics()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot read the metrics from {SPEC}: {exc}", file=sys.stderr)
        return EXIT_UNUSABLE

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload '{args.workload}';"
              f" choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return EXIT_UNUSABLE
    try:
        counts, metrics, detail, last_traced = measure(args, end_to_end, per_layer)
    except workloads.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNUSABLE
    prov = provenance(args)
    if last_traced is not None:
        prov["trace_file"] = os.path.relpath(write_trace(args, prov, detail, last_traced), ROOT)
    print(json.dumps({"provenance": prov, "detail": detail}))
    correct = counts["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else EXIT_INCORRECT


if __name__ == "__main__":
    sys.exit(main())
