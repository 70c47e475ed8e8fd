"""Checks exact PRAM and causal verdicts without the program's checkers.

A consistent exact verdict for a per-process criterion carries, for every
process ``i``, a witness serialization of ``H_{i+w}``: the operations of
``i`` plus every write of the history.  :func:`validate_witnesses` confirms
each witness against the recorded history:

1. the witness holds exactly the operations of ``H_{i+w}``, each once;
2. every read returns the value of the latest write to its variable that
   precedes it in the witness, or ``BOTTOM`` when none does;
3. the witness respects program order (``pram``) or causal order
   (``causal``).

Causal order is the transitive closure of program order and read-from.  It
is evaluated with vector clocks computed here from the history.  The write a
read returns is found by its value, which is unique in a differentiated
history, so the recorder's read-from mapping is not trusted either.

Operations are identified by ``(process, index)``.  The work is linear in the
history and witness lengths, times the number of processes for causal order.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.operations import BOTTOM

Key = Tuple[int, int]

#: At most this many problems are reported per validation.
MAX_PROBLEMS = 20


def _is_write(op) -> bool:
    return op.kind == "write"


class HistoryIndex:
    """What the witness checks need from a history, computed once."""

    def __init__(self, operations: Iterable) -> None:
        self.ops: Dict[Key, object] = {}
        chains: Dict[int, List] = {}
        for op in operations:
            key = (op.process, op.index)
            if key in self.ops:
                raise ValueError(f"operation p{key[0]}#{key[1]} recorded twice")
            self.ops[key] = op
            chains.setdefault(op.process, []).append(op)
        self.processes: Tuple[int, ...] = tuple(sorted(chains))
        self.slot = {pid: pos for pos, pid in enumerate(self.processes)}
        self.chains: Dict[int, List] = {}
        # writes_before[p][k]: writes among p's first k operations
        self.writes_before: Dict[int, List[int]] = {}
        self.writer: Dict[Tuple[str, object], Key] = {}
        for pid, chain in chains.items():
            chain.sort(key=lambda op: op.index)
            if [op.index for op in chain] != list(range(len(chain))):
                raise ValueError(f"process {pid} has gaps in its program order")
            self.chains[pid] = chain
            prefix = [0]
            for op in chain:
                prefix.append(prefix[-1] + _is_write(op))
                if _is_write(op):
                    slot = (op.variable, op.value)
                    if slot in self.writer:
                        raise ValueError(
                            f"value {op.value!r} written twice to {op.variable}; "
                            "the history is not differentiated")
                    self.writer[slot] = (op.process, op.index)
            self.writes_before[pid] = prefix
        self.write_keys = frozenset(self.writer.values())
        self._clocks: Optional[Dict[Key, Tuple[int, ...]]] = None

    def view(self, pid: int) -> frozenset:
        """The keys of ``H_{pid+w}``."""
        own = {(pid, op.index) for op in self.chains.get(pid, ())}
        return self.write_keys | own

    def source(self, read) -> object:
        """The key of the write ``read`` returns, ``None`` for BOTTOM."""
        if read.value is BOTTOM:
            return None
        try:
            return self.writer[(read.variable, read.value)]
        except KeyError:
            raise ValueError(
                f"read p{read.process}#{read.index} returns {read.value!r}, "
                f"which no write to {read.variable} produced") from None

    def clocks(self) -> Dict[Key, Tuple[int, ...]]:
        """Vector clock of every operation: per process, how many of its
        operations causally precede or equal it."""
        if self._clocks is not None:
            return self._clocks
        clocks: Dict[Key, Tuple[int, ...]] = {}
        zero = (0,) * len(self.processes)
        done = {pid: 0 for pid in self.processes}
        remaining = len(self.ops)
        while remaining:
            advanced = False
            for pid in self.processes:
                chain, k = self.chains[pid], done[pid]
                prev = clocks[(pid, k - 1)] if k else zero
                while k < len(chain):
                    op = chain[k]
                    clock = list(prev)
                    if not _is_write(op):
                        src = self.source(op)
                        if src is not None:
                            if src not in clocks:
                                break  # its write is not placed yet
                            clock = [max(a, b) for a, b in zip(clock, clocks[src])]
                    clock[self.slot[pid]] = k + 1
                    prev = clocks[(pid, k)] = tuple(clock)
                    k += 1
                    advanced = True
                remaining -= k - done[pid]
                done[pid] = k
            if remaining and not advanced:
                raise ValueError("program order and read-from form a cycle")
        self._clocks = clocks
        return clocks


def check_witness(index: HistoryIndex, pid: int, witness: Sequence,
                  criterion: str) -> List[str]:
    """Problems of one process's witness; an empty list means it is valid."""
    problems: List[str] = []
    keys = [(op.process, op.index) for op in witness]
    expected = index.view(pid)
    if len(set(keys)) != len(keys):
        problems.append(f"p{pid}: witness repeats an operation")
    if set(keys) != expected:
        missing, extra = expected - set(keys), set(keys) - expected
        problems.append(f"p{pid}: witness is not H_{{{pid}+w}} "
                        f"({len(missing)} missing, {len(extra)} extra)")
        return problems
    for op, key in zip(witness, keys):
        recorded = index.ops[key]
        if (op.kind, op.variable) != (recorded.kind, recorded.variable) \
                or not (op.value is recorded.value or op.value == recorded.value):
            problems.append(f"p{pid}: witness changes operation {op.label()}")
            return problems

    latest: Dict[str, object] = {}
    for op in witness:
        if _is_write(op):
            latest[op.variable] = op.value
            continue
        want = latest.get(op.variable, BOTTOM)
        if not (op.value is want or (want is not BOTTOM and op.value == want)):
            problems.append(f"p{pid}: {op.label()} does not return the latest "
                            f"preceding write to {op.variable}")
            if len(problems) >= MAX_PROBLEMS:
                return problems

    slot = index.slot
    placed_last = [-1] * len(index.processes)
    for op in witness:
        s = slot[op.process]
        if op.index <= placed_last[s]:
            problems.append(f"p{pid}: {op.label()} is placed after a later "
                            f"operation of p{op.process} (program order)")
            if len(problems) >= MAX_PROBLEMS:
                return problems
        placed_last[s] = max(placed_last[s], op.index)
    if criterion == "pram" or problems:
        return problems
    if criterion != "causal":
        raise ValueError(f"no validation for criterion {criterion!r}")

    # In view i, the view operations of q are all of q's operations when
    # q == i, else q's writes.  With program order respected, placing o after
    # every causal predecessor means: for each q, at least as many of q's
    # view operations are placed as lie inside o's causal past.
    clocks = index.clocks()
    in_view: List[Optional[List[int]]] = []
    for q in index.processes:
        in_view.append(None if q == pid else index.writes_before[q])
    placed = [0] * len(index.processes)
    for op in witness:
        clock = clocks[(op.process, op.index)]
        own = slot[op.process]
        for s, count in enumerate(clock):
            past = count - 1 if s == own else count
            need = past if in_view[s] is None else in_view[s][past]
            if placed[s] < need:
                problems.append(
                    f"p{pid}: {op.label()} is placed before a causal "
                    f"predecessor of p{index.processes[s]} (causal order)")
                if len(problems) >= MAX_PROBLEMS:
                    return problems
                break
        placed[own] += 1
    return problems


def validate_witnesses(criterion: str, operations: Iterable,
                       serializations: Mapping[int, Sequence]) -> List[str]:
    """Problems of an exact consistent verdict's witnesses (empty: valid)."""
    try:
        index = HistoryIndex(operations)
    except ValueError as exc:
        return [str(exc)]
    missing = set(index.processes) - set(serializations)
    if missing:
        return [f"no witness for processes {sorted(missing)}"]
    problems: List[str] = []
    for pid in index.processes:
        try:
            problems.extend(check_witness(index, pid, serializations[pid], criterion))
        except ValueError as exc:
            problems.append(str(exc))
        if len(problems) >= MAX_PROBLEMS:
            break
    return problems
