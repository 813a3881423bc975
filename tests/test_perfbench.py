"""One in-process round of each benchmark workload at its tiny size.

The workloads call the library's record doors (annotation loading and
screening, vote aggregation, dataset building and the partition audit over
records, attribute groups built from records, one-query `recommend`, and
iterating and indexing a table), which no CLI command calls. A round runs
set-up, the timed pass through `cli.run`, the output check and the library
work after the pass, as `perfbench/run.py` does, and must fail no operation.
"""

import importlib.util
from pathlib import Path

import pytest

from facesim import cli

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_tiny_round_fails_no_operation(tmp_path, name):
    workload = workloads.WORKLOADS[name](str(tmp_path), 1, workloads.SIZES["tiny"][name])
    workload.setup()
    rcs = {label: cli.run(argv) for label, argv in workload.commands()}
    assert rcs and set(rcs.values()) == {0}, rcs
    assert workload.check(rcs) == []
    assert workload.after_pass()[1] == []
