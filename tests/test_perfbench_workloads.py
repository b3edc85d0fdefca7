"""perfbench's workloads read emo's counts under names the library still has."""

import pathlib
import runpy

import pytest

import emo

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
NAMESPACE = runpy.run_path(str(WORKLOADS))  # compiled from source: writes no bytecode


@pytest.mark.parametrize("name", sorted(NAMESPACE["WORKLOADS"]))
def test_every_workload_meters_its_static_counts(name, tmp_path):
    # `metered` reads the report's totals (`contraction_macs` among them), each
    # line's `other_adds` and the meter's fields: a name the library drops
    # fails here, not in a benchmark run
    workload = NAMESPACE["WORKLOADS"][name](emo, seed=0, tiny=True, workdir=tmp_path)
    workload.setup()  # loads the model workloads' model; runs verify-desk's metered forward
    meter, static = workload.metered()
    assert set(meter) == set(static) == {*NAMESPACE["METER_FIELDS"], "other_adds"}
    assert meter == static
    assert static["macs"] > 0 and static["other_adds"] > 0
