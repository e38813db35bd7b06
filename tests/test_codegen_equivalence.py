"""Differential testing: generated code vs the reference interpreter.

The compiled step function (in both styles) decides which inputs it needs at
each reaction from the resolved clock hierarchy; the reference interpreter
replays the same reactions directly from the kernel semantics.  Any
divergence in presence or value is a compilation bug.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import compile_source
from repro.programs import (
    ACCUMULATOR_SOURCE,
    ALARM_SOURCE,
    COUNTER_SOURCE,
    WATCHDOG_SOURCE,
    generate_control_program,
    ControlProgramSpec,
)
from repro.runtime import ReactiveExecutor, random_oracle


def check_against_interpreter(result, steps=30, seed=0):
    """Run the compiled process and replay its trace on the interpreter."""
    process = result.executable
    process.reset()
    executor = ReactiveExecutor(process)
    trace = executor.run(steps, random_oracle(result.types, seed=seed))
    interpreter = result.interpreter()
    for index, step in enumerate(trace):
        expected = interpreter.step(step.inputs, present=step.observations.keys())
        for name, value in step.observations.items():
            assert expected.get(name) == value, (
                f"step {index}: signal {name} = {value!r}, interpreter says "
                f"{expected.get(name)!r}"
            )
        assert set(expected) == set(step.observations), (
            f"step {index}: presence mismatch "
            f"{set(expected) ^ set(step.observations)}"
        )
    return trace


def check_styles_agree(result, steps=30, seed=0):
    result.executable.reset()
    result.executable_flat.reset()
    nested = ReactiveExecutor(result.executable).run(
        steps, random_oracle(result.types, seed=seed)
    )
    flat = ReactiveExecutor(result.executable_flat).run(
        steps, random_oracle(result.types, seed=seed)
    )
    for left, right in zip(nested, flat):
        assert left.observations == right.observations
        assert left.outputs == right.outputs


PROGRAMS = {
    "counter": COUNTER_SOURCE,
    "accumulator": ACCUMULATOR_SOURCE,
    "watchdog": WATCHDOG_SOURCE,
    "alarm": ALARM_SOURCE,
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_generated_code_matches_interpreter(name):
    result = compile_source(PROGRAMS[name], build_flat=True)
    check_against_interpreter(result, steps=40, seed=11)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_flat_and_hierarchical_styles_agree(name):
    result = compile_source(PROGRAMS[name], build_flat=True)
    check_styles_agree(result, steps=40, seed=23)


def test_generated_control_program_matches_interpreter():
    source = generate_control_program(
        ControlProgramSpec("UNIT", modules=3, branching=2, sensors=2)
    )
    result = compile_source(source, build_flat=True)
    check_against_interpreter(result, steps=25, seed=3)
    check_styles_agree(result, steps=25, seed=5)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_alarm_differential_random_seeds(seed):
    """Property: for any input sequence, generated ALARM code matches the semantics."""
    result = compile_source(ALARM_SOURCE)
    check_against_interpreter(result, steps=15, seed=seed)


@settings(max_examples=20, deadline=None)
@given(
    resets=st.lists(st.booleans(), min_size=1, max_size=40),
)
def test_counter_always_counts_reactions_since_last_reset(resets):
    """Property: N equals the number of reactions since the last true RESET."""
    result = compile_source(COUNTER_SOURCE)
    process = result.executable
    process.reset()
    expected = 0
    for reset in resets:
        expected = 0 if reset else expected + 1
        assert process.step({"RESET": reset})["N"] == expected


@settings(max_examples=20, deadline=None)
@given(
    values=st.lists(
        st.tuples(st.integers(-100, 100), st.booleans()), min_size=1, max_size=30
    )
)
def test_accumulator_total_matches_running_sum(values):
    """Property: TOTAL, when emitted, equals the running sum of X."""
    result = compile_source(ACCUMULATOR_SOURCE)
    process = result.executable
    process.reset()
    running = 0
    for x, emit in values:
        running += x
        outputs = process.step({"X": x, "EMIT": emit})
        if emit:
            assert outputs["TOTAL"] == running
        else:
            assert outputs == {}


@pytest.mark.parametrize("flat", [False, True], ids=["hierarchical", "flat"])
def test_step_reads_any_mapping_without_copying(flat):
    """``CompiledProcess.step`` hands its inputs to the generated step as
    is, so a read-only mapping steps exactly like a dict, and ``None``
    steps like an empty mapping."""
    from types import MappingProxyType

    from repro.runtime import random_input_schedule

    result = compile_source(ALARM_SOURCE, build_flat=flat)
    executable = result.executable_flat if flat else result.executable
    schedule = random_input_schedule(
        result.types,
        list(executable.inputs),
        list(executable.root_flags),
        steps=40,
        seed=9,
    )
    with_dicts = executable.fresh()
    with_proxies = executable.fresh()
    for instant in schedule:
        assert with_proxies.step(MappingProxyType(dict(instant))) == with_dicts.step(
            dict(instant)
        )
    counter = compile_source(COUNTER_SOURCE).executable
    oracle = {"RESET": False}.__getitem__
    assert counter.fresh().step(None, oracle) == counter.fresh().step({}, oracle)
