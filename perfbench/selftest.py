"""Smoke test of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced, at the "tiny" sizes, and
checks that:
- `BENCHMARK.json` names the workloads of `workloads.py`, and gives every
  metric a unit and a direction;
- each run ends with a correct result line carrying every end-to-end (untraced)
  or per-layer (traced) metric with its unit, and nothing else;
- the exact call counts equal the seed program's (`tracer.SEED_COUNTS`);
- in the trace file, every command of the pass is one `cli.run` root span
  holding one `cli.cmd_*` span, and the pass time outside the root spans is
  under 2% of the pass.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402

TIMEOUT_S = 120
MAX_UNATTRIBUTED = 0.02


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise AssertionError(
            f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1]), json.loads(lines[-2])


def load_spec(problems):
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if names != list(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} differ from workloads.py")
    expected = {}
    for key in ("end_to_end", "per_layer"):
        for m in spec[key]:
            if not m.get("unit") or m.get("better") not in ("higher", "lower"):
                problems.append(f"BENCHMARK.json {key} {m['name']}: unit or direction missing")
        expected[key] = {m["name"]: m["unit"] for m in spec[key]}
    return expected


def check_trace_file(path, problems):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        trace = json.load(fh)
    spans = trace["spans"]
    roots = [span[0] for span in spans if span[3] < 0]
    if roots != ["cli.run"] * trace["commands"]:
        problems.append(f"{path}: {trace['commands']} commands but root spans {roots}")
    commands = [span[0] for span in spans if span[3] >= 0 and spans[span[3]][3] < 0]
    if len(commands) != trace["commands"] or not all(
        name.startswith("cli.cmd_") for name in commands
    ):
        problems.append(f"{path}: the cli.run spans hold {commands}, not one cli.cmd_* each")
    summary = tracer.summarize(spans)
    unattributed = (trace["wall_s"] - summary["root_s"]) / trace["wall_s"]
    if not 0 <= unattributed < MAX_UNATTRIBUTED:
        problems.append(f"{path}: {unattributed:.1%} of the pass lies outside the spans")


def main():
    problems = []
    spec = load_spec(problems)
    for workload in workloads.WORKLOADS:
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, info = run(workload, trace)
            where = f"{workload} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: not correct ({result['failed']} failed)")
            metrics = result["metrics"]
            if sorted(metrics) != sorted(expected):
                problems.append(f"{where}: metric names differ from BENCHMARK.json")
            for name, unit in expected.items():
                got = metrics.get(name, {})
                if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{where}: {name} reported as {got}")
            if trace == 0:
                zero = [n for n, m in metrics.items() if not m["value"]]
                if zero:
                    problems.append(f"{where}: end-to-end metrics read 0: {zero}")
            else:
                for name in workloads.WORKLOADS[workload].seed_counts:
                    value = metrics[name]["value"]
                    if value != tracer.SEED_COUNTS[name]:
                        problems.append(f"{where}: {name} = {value},"
                                        f" seed program {tracer.SEED_COUNTS[name]}")
                check_trace_file(info["provenance"]["trace_file"], problems)
            print(f"{where}: {len(metrics)} metrics", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
