import hashlib
import json
import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actsched.instances import (
    INFEASIBLE_FACTOR,
    GeneratorConfig,
    Instance,
    InstanceFormatError,
    Job,
    Machine,
    generate,
    instance_to_dict,
    load_instance,
    save_instance,
)


def test_single_machine_single_job_feasible():
    inst = generate(GeneratorConfig(m=1, n=1, seed=7, ptime_model="uniform"))
    assert inst.m == 1 and inst.n == 1
    assert inst.jobs[0].processing_times[0] <= inst.makespan_budget


def test_generation_deterministic_bytes():
    config = GeneratorConfig(m=3, n=5, seed=123, ptime_model="power_law")
    a = json.dumps(instance_to_dict(generate(config)))
    b = json.dumps(instance_to_dict(generate(config)))
    assert a == b


def test_restricted_assignment_every_job_has_feasible_machine():
    inst = generate(GeneratorConfig(m=4, n=8, seed=42, ptime_model="restricted_assignment"))
    for job in inst.jobs:
        assert min(job.processing_times) <= inst.makespan_budget


@pytest.mark.parametrize("model", ["uniform", "restricted_assignment", "power_law"])
@pytest.mark.parametrize("seed", range(0, 30, 3))
def test_generated_instances_valid_and_feasible(model, seed):
    inst = generate(GeneratorConfig(m=2 + seed % 5, n=3 + seed % 7, seed=seed, ptime_model=model))
    assert inst.n == len(inst.jobs) == 3 + seed % 7
    for job in inst.jobs:
        assert len(job.processing_times) == inst.m
        assert all(p > 0 for p in job.processing_times)
        assert min(job.processing_times) <= inst.makespan_budget


def test_restricted_sentinel_value():
    inst = generate(GeneratorConfig(m=4, n=6, seed=5, ptime_model="restricted_assignment"))
    sentinel = INFEASIBLE_FACTOR * inst.makespan_budget
    flat = [p for job in inst.jobs for p in job.processing_times]
    assert sentinel in flat  # at least one blocked pair at this size/seed
    assert max(flat) <= sentinel


def test_save_load_round_trip(tmp_path):
    inst = generate(GeneratorConfig(m=3, n=4, seed=99))
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    assert load_instance(path) == inst


def test_file_declares_m_and_n(tmp_path):
    inst = generate(GeneratorConfig(m=2, n=3, seed=1))
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    doc = json.loads(path.read_text())
    assert doc["m"] == 2 and doc["n"] == 3 and doc["version"] == 1


def test_missing_machines_key_named_in_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"version": 1, "m": 1, "n": 0, "L": 1.0, "jobs": []}')
    with pytest.raises(InstanceFormatError, match="machines"):
        load_instance(path)


def test_schema_version_mismatch(tmp_path):
    inst = generate(GeneratorConfig(m=2, n=2, seed=4))
    doc = instance_to_dict(inst)
    doc["version"] = 2
    path = tmp_path / "v2.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceFormatError, match="version"):
        load_instance(path)


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version": 1,\n  "m": }')
    with pytest.raises(InstanceFormatError, match="line"):
        load_instance(path)


def test_instance_job_count_mismatch(tmp_path):
    doc = instance_to_dict(generate(GeneratorConfig(m=2, n=3, seed=2)))
    doc["jobs"].pop()
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceFormatError, match="n=3"):
        load_instance(path)


def test_instance_validation():
    with pytest.raises(ValueError):
        Machine(0, 0.0)
    with pytest.raises(ValueError):
        Machine(0, True)
    with pytest.raises(ValueError):
        Job(0, (1.0, -1.0))
    with pytest.raises(ValueError):
        Job(0, (1.0, True))
    with pytest.raises(ValueError):
        Instance(machines=(Machine(0, 1.0),), jobs=(), makespan_budget=True)
    with pytest.raises(ValueError, match="machine ids"):
        Instance(machines=(Machine(0, 1.0), Machine(True, 1.0)), jobs=(), makespan_budget=1.0)
    with pytest.raises(ValueError):
        Instance(machines=(Machine(0, 1.0),), jobs=(Job(0, (1.0, 1.0)),), makespan_budget=1.0)
    with pytest.raises(ValueError):
        Instance(machines=(Machine(1, 1.0),), jobs=(), makespan_budget=1.0)


def _per_element_row_check(job_id, row):
    """The check a Job made of every row before valid float rows passed in
    builtins alone, with an int beyond float range rejected as well; the
    reference for which rows are rejected, and how."""
    if not all(not isinstance(p, bool) and 0 < p <= sys.float_info.max for p in row):
        raise ValueError(f"job {job_id}: processing times must be finite numbers > 0")


def _outcome(check):
    try:
        check()
    except Exception as exc:
        return type(exc), str(exc)
    return None


ROW_VALUES = (
    0.5, 1.0, 5e-324, 1e308, 0.0, -0.0, -1.0, math.inf, -math.inf, math.nan,
    True, False, 2, 10**400, "1.0", None,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(ROW_VALUES), max_size=6))
@example([1.0, math.nan])  # min and max of this row are both 1.0
@example([True, "1.0"])  # the bool is rejected before the string is compared
@example([1e308, 1e308])  # finite, but the sum overflows
@example([])
def test_job_row_check_matches_the_per_element_reference(row):
    assert _outcome(lambda: Job(3, tuple(row))) == _outcome(lambda: _per_element_row_check(3, row))


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.floats(5e-324, sys.float_info.max) | st.integers(1, 2**60), min_size=3, max_size=3),
        max_size=5,
    ),
    budget=st.sampled_from([1.0, 1]) | st.floats(5e-324, sys.float_info.max),
)
@example(rows=[[5e-324, 2**53 + 1, sys.float_info.max]], budget=1.0)
@example(rows=[[1, 2, 3]], budget=1)  # p * L is then an int: it would write p_ij as "1"
def test_scaled_ptimes_match_the_division_pass(rows, budget):
    # At L = 1 a row of floats comes back as stored; a row with an int entry
    # is divided, so every entry is the float p / L, as the logs need it.
    inst = Instance(
        tuple(Machine(i, 1.0) for i in range(3)),
        tuple(Job(j, tuple(row)) for j, row in enumerate(rows)),
        budget,
    )
    want = [tuple(p / budget for p in job.processing_times) for job in inst.jobs]
    got = inst.scaled_ptimes()
    assert [[p.hex() for p in row] for row in got] == [[p.hex() for p in row] for row in want]


# sha256 of the file save_instance writes for a generated instance, the
# encoder that `gen` and every instance built in memory go through.
def test_saved_generated_instance_matches_pinned_digest(tmp_path):
    path = tmp_path / "inst.json"
    save_instance(generate(GeneratorConfig(m=100, n=300, seed=0, ptime_model="uniform")), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "50a5913e3072832e103a01bcb6a8c72f1b0399e9120278dd4382d530e781b0e1"


def test_generator_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(m=0, n=1, seed=0)
    with pytest.raises(ValueError):
        GeneratorConfig(m=True, n=1, seed=0)
    with pytest.raises(ValueError):
        GeneratorConfig(m=1, n=1, seed=0, ptime_model="gaussian")


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(1, 6),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32),
)
def test_costs_respect_range(m, n, seed):
    inst = generate(GeneratorConfig(m=m, n=n, seed=seed))
    for mc in inst.machines:
        assert 1.0 <= mc.startup_cost <= 10.0
