"""Tests of the benchmark's witness validator.

Valid witnesses come from real sessions and from hand-built histories; each
corruption (two operations swapped, a read pointed at another write, an
operation dropped, causal order broken) must be rejected.

Run with ``python3 -m pytest perfbench``.
"""

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

from repro.api import Session  # noqa: E402
from repro.core.history import HistoryBuilder  # noqa: E402
from repro.core.operations import BOTTOM  # noqa: E402
from validate import validate_witnesses  # noqa: E402


def _session(protocol, criterion, seed=1):
    report = Session(
        protocol,
        ("random", {"processes": 4, "variables": 6, "replicas_per_variable": 2,
                    "seed": seed}),
        ("uniform", {"operations_per_process": 12, "write_fraction": 0.4}),
        seed=seed, criteria=(criterion,), exact=True,
    ).run()
    result = report.results[criterion]
    assert result.consistent and result.exact
    ops = list(report.history.operations)
    witnesses = {pid: list(w) for pid, w in result.serializations.items()}
    return ops, witnesses


def _replace(ops, witnesses, old, new):
    """Put ``new`` in place of ``old`` in the history and every witness."""
    ops = [new if op is old else op for op in ops]
    witnesses = {pid: [new if op is old else op for op in w]
                 for pid, w in witnesses.items()}
    return ops, witnesses


@pytest.fixture(params=[("causal_full", "causal"), ("causal_tree", "causal"),
                        ("pram_partial", "pram")])
def recorded(request):
    protocol, criterion = request.param
    return criterion, *_session(protocol, criterion)


def test_witnesses_of_real_sessions_pass(recorded):
    criterion, ops, witnesses = recorded
    assert validate_witnesses(criterion, ops, witnesses) == []


def test_swapping_two_operations_of_one_process_is_rejected(recorded):
    criterion, ops, witnesses = recorded
    pid = ops[0].process
    witness = witnesses[pid]
    own = [i for i, op in enumerate(witness) if op.process == pid]
    first, second = own[0], own[1]
    witness[first], witness[second] = witness[second], witness[first]
    problems = validate_witnesses(criterion, ops, witnesses)
    assert problems
    assert any("program order" in p or "latest preceding write" in p for p in problems)


def test_swapping_a_write_behind_its_read_is_rejected(recorded):
    criterion, ops, witnesses = recorded
    for pid, witness in witnesses.items():
        writes = {(op.variable, op.value): i for i, op in enumerate(witness)
                  if op.kind == "write"}
        for i, op in enumerate(witness):
            if op.kind == "read" and op.value is not BOTTOM:
                j = writes[(op.variable, op.value)]
                witness[i], witness[j] = witness[j], witness[i]
                problems = validate_witnesses(criterion, ops, witnesses)
                assert any("latest preceding write" in p for p in problems)
                return
    pytest.fail("no read of a written value in the session")


def test_pointing_a_read_at_another_write_is_rejected(recorded):
    criterion, ops, witnesses = recorded
    writes = {}
    for op in ops:
        if op.kind == "write":
            writes.setdefault(op.variable, []).append(op)
    for read in ops:
        others = [w for w in writes.get(read.variable, ()) if w.value != read.value]
        if read.kind == "read" and read.value is not BOTTOM and others:
            forged = dataclasses.replace(read, value=others[0].value)
            ops, witnesses = _replace(ops, witnesses, read, forged)
            problems = validate_witnesses(criterion, ops, witnesses)
            assert any("latest preceding write" in p or "cycle" in p
                       for p in problems)
            return
    pytest.fail("no variable with two writes and a read in the session")


def test_dropping_an_operation_is_rejected(recorded):
    criterion, ops, witnesses = recorded
    pid = next(iter(witnesses))
    witnesses[pid] = witnesses[pid][:-1]
    problems = validate_witnesses(criterion, ops, witnesses)
    assert any("1 missing" in p for p in problems)


def test_missing_witness_is_rejected(recorded):
    criterion, ops, witnesses = recorded
    witnesses.pop(next(iter(witnesses)))
    assert validate_witnesses(criterion, ops, witnesses)


def _relay_history():
    """p0 writes x; p1 reads it and writes y; p2 reads y."""
    builder = HistoryBuilder()
    builder.write(0, "x", "x1")
    builder.read(1, "x", "x1").write(1, "y", "y1")
    builder.read(2, "y", "y1")
    return builder.build()


def test_witness_breaking_only_causal_order():
    history = _relay_history()
    (w_x,), (r_x, w_y), (r_y,) = (history.local(p).operations for p in (0, 1, 2))
    witnesses = {
        0: [w_x, w_y],
        1: [w_x, r_x, w_y],
        # legal and in program order, but w(x) -> r(x) -> w(y) is causal
        2: [w_y, r_y, w_x],
    }
    ops = list(history.operations)
    assert validate_witnesses("pram", ops, witnesses) == []
    problems = validate_witnesses("causal", ops, witnesses)
    assert problems and all("causal order" in p for p in problems)
    witnesses[2] = [w_x, w_y, r_y]
    assert validate_witnesses("causal", ops, witnesses) == []


def test_cyclic_causal_order_is_rejected():
    builder = HistoryBuilder()
    builder.read(0, "x", "x1").write(0, "y", "y1")
    builder.read(1, "y", "y1").write(1, "x", "x1")
    history = builder.build()
    ops = list(history.operations)
    (r_x, w_y), (r_y, w_x) = (history.local(p).operations for p in (0, 1))
    witnesses = {0: [w_x, r_x, w_y], 1: [w_y, r_y, w_x]}
    problems = validate_witnesses("causal", ops, witnesses)
    assert any("cycle" in p for p in problems)


def test_read_of_a_value_never_written_is_rejected():
    builder = HistoryBuilder()
    builder.write(0, "x", "x1")
    builder.read(1, "x", "x2")
    history = builder.build()
    ops = list(history.operations)
    (w_x,), (r_x,) = (history.local(p).operations for p in (0, 1))
    problems = validate_witnesses("causal", ops, {0: [w_x], 1: [w_x, r_x]})
    assert problems
