import json

import pytest

from bench.workloads import WORKLOADS

SECONDS = 0.2


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_are_a_function_of_the_seed_alone(name):
    workload = WORKLOADS[name]
    first = json.dumps(workload.generate(7, SECONDS), sort_keys=True)
    again = json.dumps(workload.generate(7, SECONDS), sort_keys=True)
    other = json.dumps(workload.generate(11, SECONDS), sort_keys=True)
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_op_counts_scale_with_seconds(name):
    workload = WORKLOADS[name]
    short = len(json.dumps(workload.generate(7, SECONDS)))
    longer = len(json.dumps(workload.generate(7, 4 * SECONDS)))
    assert longer > short


def test_workload_names_and_rationales_fit_the_contract():
    assert list(WORKLOADS) == [
        "fleet_zipf_lookup",
        "fleet_churn",
        "gw_hot_lookup",
        "gw_cold_scan",
        "gw_write_mix",
        "wire_mixed",
    ]
    for workload in WORKLOADS.values():
        assert 0 < len(workload.why) <= 200 and "\n" not in workload.why
