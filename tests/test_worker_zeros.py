"""The benchmark's copy of the expected zeros agrees with the solver's.

`benchmarks/worker.py::expected_zeros` restates `SwitchingTimes.zeros`,
which `synthesize_policy` hands `integrate_exact`: a copy that drifts would
make the benchmark's trajectories snap other zeros than the program's
without failing any other test.  The function is read from the file's
source with `ast` and run on its own (importing the file would import the
benchmark's own modules), as `tests/test_trace_targets.py` reads its lists.
"""

import ast
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest

from firmopt import synthesize_policy
from firmopt.solver import SwitchingTimes

from conftest import ALL_KINDS, BASELINE, draw_scenario_case
from test_verify import BASELINE_CASES

WORKER = Path(__file__).resolve().parents[1] / "benchmarks" / "worker.py"


def load_expected_zeros():
    (node,) = [n for n in ast.parse(WORKER.read_text()).body
               if isinstance(n, ast.FunctionDef) and n.name == "expected_zeros"]
    namespace = {}
    exec(compile(ast.Module([node], type_ignores=[]), str(WORKER), "exec"), namespace)
    return namespace["expected_zeros"]


expected_zeros = load_expected_zeros()


def assert_same_zeros(times: SwitchingTimes) -> None:
    assert expected_zeros(times) == times.zeros


@pytest.mark.parametrize("init, _, kind", BASELINE_CASES)
@pytest.mark.parametrize("T", [BASELINE.T, 0.0], ids=["T=10", "T=0"])
def test_baseline_cases(init, _, kind, T):
    assert_same_zeros(synthesize_policy(replace(BASELINE, T=T), init, kind).times)


@pytest.mark.parametrize("times", [
    SwitchingTimes(0.0, True, 3.0, True),  # S3: production from t_S = 0
    SwitchingTimes(12.0, False, None, True),  # t_S >= T
    SwitchingTimes(2.0, True, 12.0, False),  # t_D >= T
    SwitchingTimes(2.0, True, math.inf, False),  # a debt never cleared
], ids=["S3", "t_S beyond T", "t_D beyond T", "t_D inf"])
def test_edge_times(times):
    assert_same_zeros(times)


def test_seeded_firms():
    for seed in range(100):
        kind = ALL_KINDS[seed % len(ALL_KINDS)]
        params, init = draw_scenario_case(random.Random(seed), kind)
        assert_same_zeros(synthesize_policy(params, init, kind).times)
