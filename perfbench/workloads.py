"""The benchmark's workloads: their inputs, one round of timed calls, and the
checks on what each call returned.

A workload builds its inputs once, then runs rounds.  Every round makes the
same calls on the same inputs, so every round does the same work.

Untraced, a round times the public calls a user makes: ``Session.run`` for
each session and, on ``placement``, ``optimize_placement``.  Traced, a round
takes each session apart into the calls ``Session.run`` makes, one span per
layer (:func:`run_traced`).  Both ways give the same verdicts, counts and
checks; only the untraced timings are end-to-end figures.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.api import Session
from repro.arena.check import ArenaBatchChecker
from repro.core.consistency import get_checker
from repro.core.distribution import VariableDistribution
from repro.core.share_graph import ShareGraph
from repro.mcs.metrics import relevance_violations
from repro.place import optimize_placement, synthetic_profile
from repro.workloads.access_patterns import (
    drive_script,
    uniform_access_script,
    zipfian_access_script,
)
from repro.workloads.distributions import random_distribution

from validate import validate_witnesses

#: Operations of the ``scale-causal`` session.  Above the arena checker's
#: ``MATERIALIZE_MAX`` (4096), so the check runs on the columns.
SCALE_OPS = 50_000

#: Operations per process of a ``paper-exact`` session.
PAPER_OPS_PER_PROCESS = 25

#: Default workload seeds; each is a command-line option of ``run.py``.
DEFAULTS = {
    "scale_distribution_seed": 3,
    "paper_seeds": "0:16",
    "profile_seed": 7,
    "optimizer_seed": 3,
    "placement_script_seed": 5,
}

#: The (protocol, criterion) pairs of every ``paper-exact`` seed.
PAPER_PROTOCOLS = (
    ("pram_partial", "pram"),
    ("causal_partial", "causal"),
    ("causal_tree", "causal"),
    ("causal_full", "causal"),
)

#: Per-layer spans, in report order.
LAYER_SPANS = (
    "api.session_init", "mcs.drive", "arena.precheck", "arena.check",
    "core.precheck", "core.check", "api.materialise", "mcs.efficiency",
    "mcs.relevance_audit", "core.share_graph", "place.optimize",
)

#: Per-layer counters, in report order.
LAYER_COUNTS = (
    "netsim.events", "netsim.messages", "netsim.control_bytes",
    "mcs.irrelevant_msgs", "place.evaluations",
)


class Trace:
    """Spans and counters of one run, kept in memory until the run ends.

    A span is ``(round, name, parent, start, end)``; counters are summed per
    round.  Untraced runs keep only the spans of the timed calls.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.round = 0
        self.spans: List[Tuple[int, str, str, float, float]] = []
        self.counts: Dict[int, Dict[str, int]] = {}
        self._stack: List[str] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else ""
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((self.round, name, parent, start, time.perf_counter()))
            self._stack.pop()

    @contextmanager
    def call(self, name: str, round_: "Round") -> Iterator[None]:
        """A timed call: a span whose duration counts in the round's time."""
        with self.span(name):
            yield
        _, _, _, start, end = self.spans[-1]
        round_.calls.append((name, end - start))

    def count(self, name: str, value: int) -> None:
        row = self.counts.setdefault(self.round, {})
        row[name] = row.get(name, 0) + value

    def total(self, name: str, round_: int) -> float:
        return sum(end - start for r, n, _, start, end in self.spans
                   if r == round_ and n == name)


@dataclass
class Job:
    """One session of a round: a protocol run checked against a criterion."""

    protocol: str
    distribution: VariableDistribution
    script: List[Any]
    criterion: str
    exact: bool
    seed: int
    engine: Optional[str] = None

    def session(self, **options: Any) -> Session:
        if self.engine is not None and "engine" in inspect.signature(Session).parameters:
            options["engine"] = self.engine
        return Session(self.protocol, self.distribution, self.script,
                       seed=self.seed, **options)


@dataclass
class Outcome:
    """What a session returned, whichever way it ran."""

    job: Job
    result: Any
    operations: Optional[Tuple[Any, ...]]
    executed: int
    messages: int
    control_bytes: int
    events: int


@dataclass
class Round:
    """The outcome of one round: timed calls, counts and check results."""

    calls: List[Tuple[str, float]] = field(default_factory=list)
    ops: int = 0
    messages: int = 0
    control_bytes: int = 0
    events: int = 0
    checks: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(what)

    def add(self, outcome: Outcome) -> None:
        self.ops += outcome.executed
        self.messages += outcome.messages
        self.control_bytes += outcome.control_bytes
        self.events += outcome.events


def run_untraced(job: Job, session: Session, trace: Trace, round_: Round) -> Outcome:
    """``Session.run``, timed as one call."""
    with trace.call("session.run", round_):
        report = session.run()
    eff = report.efficiency
    return Outcome(
        job=job,
        result=report.results[job.criterion],
        operations=report.history.operations if report.history is not None else None,
        executed=report.operations_executed,
        messages=eff.messages_sent,
        control_bytes=eff.control_bytes,
        events=report.events_processed,
    )


def run_traced(job: Job, trace: Trace, round_: Round) -> Outcome:
    """The calls ``Session.run`` makes, one span per layer.

    The pre-check spans and ``core.share_graph`` are extra work: the
    pre-check also runs inside the exact check, and the relevant sets are
    what the relevance audit recomputes.
    """
    with trace.call("session.traced", round_):
        with trace.span("api.session_init"):
            session = job.session(check=False)
        executed = 0
        with trace.span("mcs.drive"):
            for _ in drive_script(session.system, session.script):
                executed += 1
            session.system.settle()
        recorder = session.recorder
        arena = getattr(recorder, "arena", None)
        universe = tuple(session.distribution.processes)
        if arena is not None:
            def arena_check(exact: bool) -> Any:
                checker = ArenaBatchChecker(job.criterion, arena, exact=exact,
                                            cache=recorder.cache)
                checker.start(universe=universe)
                return checker.finalize()

            with trace.span("arena.precheck"):
                result = arena_check(False)
            if job.exact:
                with trace.span("arena.check"):
                    result = arena_check(True)
            with trace.span("api.materialise"):
                history = recorder.history()
                recorder.read_from()
        else:
            with trace.span("api.materialise"):
                history = recorder.history()
                read_from = recorder.read_from()
            checker = get_checker(job.criterion)
            with trace.span("core.precheck"):
                result = checker.check(history, read_from=read_from, exact=False)
            if job.exact:
                with trace.span("core.check"):
                    result = checker.check(history, read_from=read_from, exact=True)
        with trace.span("mcs.efficiency"):
            eff = session.system.efficiency()
        with trace.span("mcs.relevance_audit"):
            relevance_violations(eff, session.distribution)
        with trace.span("core.share_graph"):
            graph = ShareGraph(session.distribution)
            for variable in session.distribution.variables:
                graph.relevant_processes(variable)
    events = session.system.simulator.processed_events
    trace.count("netsim.events", events)
    trace.count("netsim.messages", eff.messages_sent)
    trace.count("netsim.control_bytes", eff.control_bytes)
    trace.count("mcs.irrelevant_msgs", eff.irrelevant_messages)
    return Outcome(
        job=job, result=result, operations=history.operations, executed=executed,
        messages=eff.messages_sent, control_bytes=eff.control_bytes, events=events,
    )


def run_checked(job: Job, trace: Trace, round_: Round, exact: bool) -> Outcome:
    """Run one session, traced or not, and check its output at once.

    The session is built just before its run, and callers drop its outcome
    before the next one runs, so the memory a run holds does not depend on
    the order of its sessions.
    """
    if trace.enabled:
        outcome = run_traced(job, trace, round_)
    else:
        session = job.session(criteria=(job.criterion,), exact=job.exact)
        outcome = run_untraced(job, session, trace, round_)
    check_session(outcome, round_, exact)
    return outcome


def check_session(outcome: Outcome, round_: Round, exact: bool) -> None:
    """The checks every session's output must pass."""
    job, result = outcome.job, outcome.result
    name = f"{job.protocol}/{job.criterion} seed {job.seed}"
    round_.check(result.consistent is True,
                 f"{name}: verdict is not consistent: {result.violations[:3]}")
    round_.check(outcome.executed == len(job.script),
                 f"{name}: executed {outcome.executed} of {len(job.script)} operations")
    if exact:
        round_.check(result.exact is True, f"{name}: verdict is not exact")
        if result.consistent and result.exact:
            problems = validate_witnesses(job.criterion, outcome.operations or (),
                                          result.serializations)
            round_.check(not problems, f"{name}: witnesses rejected: {problems[:3]}")
    if job.protocol == "causal_full":
        writes = sum(1 for access in job.script if access.kind == "write")
        peers = len(job.distribution.processes) - 1
        round_.check(outcome.messages == writes * peers,
                     f"{name}: {outcome.messages} messages for {writes} writes "
                     f"to {peers} peers")
    round_.add(outcome)


class Workload:
    """Inputs built once; :meth:`round` runs one round of calls on them."""

    #: Whether every session's verdict must be exact (and its witnesses valid).
    exact = True

    def __init__(self, options: Dict[str, Any], seed: int) -> None:
        self.options = options
        self.seed = seed

    def jobs(self) -> List[Job]:
        raise NotImplementedError

    def round(self, trace: Trace) -> Round:
        round_ = Round()
        for job in self.jobs():
            run_checked(job, trace, round_, self.exact)
        return round_


class ScaleCausal(Workload):
    """One long ``causal_full`` session, checked exactly on the columnar engine."""

    def __init__(self, options: Dict[str, Any], seed: int) -> None:
        super().__init__(options, seed)
        self.distribution = random_distribution(
            4, 8, replicas_per_variable=2, seed=options["scale_distribution_seed"])
        self.script = uniform_access_script(
            self.distribution, operations_per_process=SCALE_OPS // 4,
            write_fraction=0.4, seed=seed)

    def jobs(self) -> List[Job]:
        return [Job("causal_full", self.distribution, self.script, "causal",
                    exact=True, seed=self.seed, engine="arena")]


def parse_range(text: str) -> range:
    start, _, stop = text.partition(":")
    return range(int(start), int(stop))


class PaperExact(Workload):
    """Small sessions of the paper's protocols, checked exactly on the default
    engine, for every seed of a fixed contiguous range.

    The run seed does not change these inputs: one seed of the default range
    takes most of a round's time, so a seed-dependent range would make the
    cost swing from run to run."""

    def __init__(self, options: Dict[str, Any], seed: int) -> None:
        super().__init__(options, seed)
        self._jobs: List[Job] = []
        for s in parse_range(options["paper_seeds"]):
            distribution = random_distribution(4, 8, replicas_per_variable=2, seed=s)
            script = uniform_access_script(
                distribution,
                operations_per_process=PAPER_OPS_PER_PROCESS,
                write_fraction=0.4, seed=s)
            for protocol, criterion in PAPER_PROTOCOLS:
                self._jobs.append(Job(protocol, distribution, script, criterion,
                                      exact=True, seed=s))

    def jobs(self) -> List[Job]:
        return self._jobs


class Placement(Workload):
    """The Section 3.3 configuration: optimise a placement for 100 processes
    and 60 variables, then replay one Zipf script on it through
    ``causal_tree`` and on full replication through ``causal_full``.

    Every seed of the configuration is an option with its committed default,
    so the run seed does not change this workload's inputs."""

    exact = False

    def __init__(self, options: Dict[str, Any], seed: int) -> None:
        super().__init__(options, seed)
        self.profile = synthetic_profile(100, 60, accessors_per_variable=3,
                                         seed=options["profile_seed"])
        minimal = self.profile.minimal_distribution()
        self.script = zipfian_access_script(minimal, operations_per_process=2,
                                            write_fraction=0.5, skew=1.0,
                                            seed=options["placement_script_seed"])
        self.full = VariableDistribution.full_replication(
            self.profile.processes, self.profile.variables)

    def round(self, trace: Trace) -> Round:
        round_ = Round()
        with trace.call("place.optimize", round_):
            result = optimize_placement(self.profile, "control",
                                        seed=self.options["optimizer_seed"], budget=25)
        trace.count("place.evaluations", result.evaluations)
        round_.check(result.cost <= result.minimal_cost,
                     f"optimizer cost {result.cost} exceeds the accessor-minimal "
                     f"cost {result.minimal_cost}")
        uncovered = [var for var in self.profile.variables
                     if not self.profile.accessors(var)
                     <= set(result.distribution.holders(var))]
        round_.check(not uncovered, f"placement misses accessors of {uncovered[:5]}")
        seed = self.options["placement_script_seed"]
        jobs = [Job("causal_tree", result.distribution, self.script, "causal",
                    exact=False, seed=seed),
                Job("causal_full", self.full, self.script, "causal",
                    exact=False, seed=seed)]
        ratios = []
        for job in jobs:
            outcome = run_checked(job, trace, round_, exact=False)
            ratios.append(outcome.control_bytes / max(outcome.messages, 1))
        placed, full = ratios
        round_.check(placed < full,
                     f"placed causal_tree moves {placed:.1f} control B/msg, "
                     f"full replication {full:.1f}")
        return round_


WORKLOADS: Dict[str, Callable[[Dict[str, Any], int], Workload]] = {
    "scale-causal": ScaleCausal,
    "paper-exact": PaperExact,
    "placement": Placement,
}
