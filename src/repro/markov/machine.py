"""The exact discrete-time Markov chain of the synchronous machine.

The paper's chains (Sections 3.1.1 and 4) merge a processor cycle into
one step, so they approximate the machine the simulators run.  This
module builds the machine's own chain, one state per bus-cycle boundary,
for configurations small enough to enumerate, and solves it exactly.  It
is written from the machine's rules, restated below, and shares no code
with the simulators, so it is an oracle none of them can agree with by
sharing a bug.

**State** (taken at the end of a bus cycle, after its transfer):

* each processor is *thinking* with ``t`` cycles left before its next
  processor-cycle boundary, *requesting* one module, or *awaiting* the
  response of a delivered request;
* each module holds an input FIFO of requesters, an access stage (the
  request in service and, for constant access times, its remaining
  cycles), a stalled finished access, and an output FIFO of finished
  accesses.  An unbuffered module has depth 0: it accepts only when
  wholly idle and holds its one result until the bus takes it;
* under FCFS tie-breaks, the relative age of every outstanding request
  (issue order) and of every output entry (ready order); ties share a
  rank.

**One bus cycle**, with every random outcome enumerated:

1. *Boundaries.*  A thinking processor at its boundary issues with
   probability ``p`` (its own, when ``p`` is per processor) to a module
   drawn from the target distribution (uniform, or hot-spot: the hot
   module with probability ``f`` plus ``(1 - f) / m`` everywhere);
   otherwise it thinks one more processor cycle of ``r + 2`` bus cycles.
   A new request is eligible in the cycle it is issued.
2. *Arbitration* on the start-of-cycle module state: a request is a
   candidate when its module can accept it (unbuffered: idle with no
   result held; buffered: idle, or input FIFO not full), a module is a
   candidate when its output FIFO is non-empty.  The priority class with
   candidates wins; within it the pick is uniform (random tie-break) or
   the oldest, lowest index first (FCFS).
3. *Access stages tick.*  A stalled access moves to the output FIFO if
   it has room (starting the next input request); otherwise an access in
   service works one cycle and finishes after ``r`` cycles (constant) or
   with probability ``1 / r`` each cycle (geometric).  A finished access
   enters the output FIFO, ready from the next cycle, and the next input
   request starts; with the output FIFO full it stalls instead.  A slot
   freed by this cycle's response transfer is seen from the next tick.
4. *Transfer.*  A granted request enters its module (its access starts
   next cycle when the stage is free, else it queues); a granted response
   leaves the output FIFO and its processor reaches a boundary next
   cycle.

The chain starts from every processor at a boundary and
:func:`~repro.markov.builder.build_chain` enumerates the reachable
states (at most :data:`_MAX_STATES`, else
:class:`~repro.core.errors.ConfigurationError`).  The dense solvers of
:class:`~repro.markov.chain.DiscreteTimeMarkovChain` do not fit here:
tens of thousands of states overflow a dense matrix, and at ``p = 1``
the all-at-boundary start state is transient, so the chain is
reducible.  This module therefore iterates the lazy chain
``(P + I) / 2``, which has the same stationary vector but no period,
with sparse numpy products.  From the stationary vector:
``EBW = (r + 2)`` times the response transfers per cycle, bus
utilisation (two transfers per completed request) and, by Little's law,
the mean issue-to-response latency (outstanding requests per cycle over
response transfers per cycle).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.core import metrics
from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError, ModelError
from repro.core.policy import Priority, TieBreak
from repro.markov.builder import build_chain

_MAX_STATES = 200_000
"""Reachable-state cap: 4 processors on 4 modules at ``r = 3`` need
about 34,000 states, and each extra processor or module multiplies the
count."""

_TOLERANCE = 1e-13
"""Power iteration stops once one step moves the vector by less than
this in the 1-norm."""

_MAX_ITERATIONS = 200_000

_NEWEST = 1 << 20
"""Placeholder FCFS rank for what entered its queue this cycle."""

_IDLE = ((), -1, 0, -1, ())
"""A module with nothing inside: (input FIFO, request in service,
cycles left, stalled request, output FIFO)."""


@dataclasses.dataclass(frozen=True)
class MachineSolution:
    """Exact stationary measures of one machine."""

    config: SystemConfig
    states: int
    """Reachable states of the chain."""
    ebw: float
    processor_utilization: float
    bus_utilization: float
    mean_latency: float
    """Mean issue-to-response latency in bus cycles (Little's law)."""


def solve_machine(
    config: SystemConfig,
    *,
    request_probabilities: Sequence[float] | None = None,
    hot_fraction: float = 0.0,
    hot_module: int = 0,
    geometric_access_times: bool = False,
) -> MachineSolution:
    """Solve the exact chain of ``config``.

    ``request_probabilities`` gives each processor its own ``p``;
    ``hot_fraction`` and ``hot_module`` describe hot-spot targets;
    ``geometric_access_times`` makes each access last a geometric number
    of cycles with mean ``r``.  Raises
    :class:`~repro.core.errors.ConfigurationError` when the chain has
    more than :data:`_MAX_STATES` reachable states.
    """
    import numpy as np

    machine = _Machine(
        config,
        request_probabilities,
        hot_fraction,
        hot_module,
        geometric_access_times,
    )
    start = (
        (0,) * config.processors,
        (_IDLE,) * config.memories,
        machine.no_ages,
    )
    rewards: dict[tuple, tuple[float, float]] = {}

    def transition(state: tuple) -> dict[tuple, float]:
        successors, rewards[state] = machine.transitions(state)
        return successors

    # Every row is a product of distributions, so the one ModelError the
    # enumeration can raise here is the state cap.
    try:
        chain = build_chain(start, transition, max_states=_MAX_STATES)
    except ModelError as error:
        raise ConfigurationError(
            f"the exact chain of {config.describe()} has more than "
            f"{_MAX_STATES} reachable states; solve a smaller configuration"
        ) from error

    states = chain.states
    count = len(states)
    rows: list[int] = []
    cols: list[int] = []
    probs: list[float] = []
    for position, state in enumerate(states):
        for successor, probability in chain.row(state).items():
            rows.append(position)
            cols.append(chain.index_of(successor))
            probs.append(probability)
    row_index = np.array(rows, dtype=np.int64)
    col_index = np.array(cols, dtype=np.int64)
    weight = np.array(probs)
    pi = np.full(count, 1.0 / count)
    for _ in range(_MAX_ITERATIONS):
        step = np.bincount(
            col_index, weights=pi[row_index] * weight, minlength=count
        )
        step += pi
        step *= 0.5
        moved = np.abs(step - pi).sum()
        pi = step
        if moved < _TOLERANCE:
            break
    else:
        raise ModelError(
            f"power iteration on the exact chain of {config.describe()} "
            f"did not converge in {_MAX_ITERATIONS} steps"
        )
    pi /= pi.sum()
    completions, outstanding = (
        float(x) for x in pi @ np.array([rewards[state] for state in states])
    )
    ebw = completions * config.processor_cycle
    return MachineSolution(
        config=config,
        states=count,
        ebw=ebw,
        processor_utilization=metrics.processor_utilization(ebw, config),
        bus_utilization=2.0 * completions,
        mean_latency=outstanding / completions,
    )


class _Machine:
    """The transition function of one configuration.

    Processor codes: ``0 .. r + 1`` thinking with that many cycles before
    the next boundary, ``r + 2 + k`` requesting module ``k``, ``r + 2 + m``
    awaiting.  Module tuples follow :data:`_IDLE`; under FCFS every output
    entry is a ``(processor, rank)`` pair and the state carries one age
    rank per processor (``-1`` when it has no undelivered request).
    """

    def __init__(
        self,
        config: SystemConfig,
        request_probabilities: Sequence[float] | None,
        hot_fraction: float,
        hot_module: int,
        geometric_access_times: bool,
    ) -> None:
        n, m, r = config.processors, config.memories, config.memory_cycle_ratio
        if request_probabilities is None:
            probabilities = (float(config.request_probability),) * n
        else:
            probabilities = tuple(float(p) for p in request_probabilities)
            if len(probabilities) != n:
                raise ConfigurationError(
                    f"request_probabilities lists {len(probabilities)} "
                    f"values for {n} processors"
                )
            if not all(0.0 < p <= 1.0 for p in probabilities):
                raise ConfigurationError(
                    "request probabilities must satisfy 0 < p <= 1, got "
                    f"{probabilities}"
                )
        if not 0.0 <= hot_fraction <= 1.0:
            raise ConfigurationError(
                f"hot_fraction must lie in [0, 1], got {hot_fraction}"
            )
        if not 0 <= hot_module < m:
            raise ConfigurationError(
                f"hot_module must name one of the {m} modules, got {hot_module}"
            )
        spread = (1.0 - hot_fraction) / m
        self.targets = tuple(
            (k, spread + (hot_fraction if k == hot_module else 0.0))
            for k in range(m)
            if spread > 0.0 or k == hot_module
        )
        self.r = r
        self.requesting = r + 2
        self.awaiting = r + 2 + m
        self.probabilities = probabilities
        self.buffered = config.buffered
        self.depth = config.buffer_depth if config.buffered else 0
        self.capacity = max(self.depth, 1)
        self.geometric = geometric_access_times and r > 1
        self.processors_first = config.priority is Priority.PROCESSORS
        self.fcfs = config.tie_break is TieBreak.FCFS
        self.no_ages = (-1,) * n if self.fcfs else ()
        self._boundaries: dict[tuple, list] = {}
        self._ticks: dict[tuple, list] = {}

    # -- stage 1 ----------------------------------------------------------
    def boundaries(self, procs: tuple) -> list:
        """``(processors, probability, in system)`` after the boundaries."""
        cached = self._boundaries.get(procs)
        if cached is not None:
            return cached
        outcomes = [((), 1.0)]
        for i, code in enumerate(procs):
            if code >= self.requesting or code > 0:
                value = code if code >= self.requesting else code - 1
                outcomes = [(head + (value,), pr) for head, pr in outcomes]
                continue
            p = self.probabilities[i]
            options = [
                (self.requesting + k, p * share) for k, share in self.targets
            ]
            if p < 1.0:
                options.append((self.r + 1, 1.0 - p))
            outcomes = [
                (head + (value,), pr * chance)
                for head, pr in outcomes
                for value, chance in options
            ]
        result = [
            (
                after,
                pr,
                sum(1 for code in after if code >= self.requesting),
            )
            for after, pr in outcomes
        ]
        self._boundaries[procs] = result
        return result

    # -- stage 3 ----------------------------------------------------------
    def ticks(self, mods: tuple) -> list:
        """``(modules, probability)`` after every access stage ticked."""
        cached = self._ticks.get(mods)
        if cached is not None:
            return cached
        outcomes = [((), 1.0)]
        for mod in mods:
            options = self._tick(mod)
            outcomes = [
                (head + (after,), pr * chance)
                for head, pr in outcomes
                for after, chance in options
            ]
        self._ticks[mods] = outcomes
        return outcomes

    def _tick(self, mod: tuple) -> list:
        inq, svc, left, stalled, outq = mod
        if stalled != -1:
            if len(outq) < self.capacity:
                return [(self._finish(inq, stalled, outq), 1.0)]
            return [(mod, 1.0)]
        if svc == -1:
            return [(mod, 1.0)]
        if self.geometric:
            q = 1.0 / self.r
            return [(self._finish(inq, svc, outq), q), (mod, 1.0 - q)]
        if left > 1:
            return [((inq, svc, left - 1, -1, outq), 1.0)]
        return [(self._finish(inq, svc, outq), 1.0)]

    def _finish(self, inq: tuple, done: int, outq: tuple) -> tuple:
        """Move a finished access to the output FIFO (or stall it)."""
        if len(outq) >= self.capacity:
            return (inq, -1, 0, done, outq)
        entry = (done, _NEWEST) if self.fcfs else done
        if inq:
            return (inq[1:], inq[0], self.r, -1, outq + (entry,))
        return ((), -1, 0, -1, outq + (entry,))

    # -- stages 2 and 4 ---------------------------------------------------
    def accepts(self, mod: tuple) -> bool:
        inq, svc, _, stalled, outq = mod
        if svc == -1 and stalled == -1:
            return self.buffered or not outq
        return len(inq) < self.depth

    def transitions(self, state: tuple):
        """Successor distribution and expected per-cycle rewards.

        Rewards: response transfers, and processors with a request
        outstanding during the cycle.
        """
        procs, mods, ages = state
        requesting = self.requesting
        awaiting = self.awaiting
        accepts = [self.accepts(mod) for mod in mods]
        responders = [k for k, mod in enumerate(mods) if mod[4]]
        ticked = self.ticks(mods)
        successors: dict[tuple, float] = {}
        completions = outstanding = 0.0
        for after, pr, in_system in self.boundaries(procs):
            outstanding += pr * in_system
            new_ages = (
                self._issue_ages(procs, after, ages) if self.fcfs else ages
            )
            candidates = [
                i
                for i, code in enumerate(after)
                if requesting <= code < awaiting and accepts[code - requesting]
            ]
            grants = self._grants(candidates, responders, mods, new_ages)
            for grant, chance in grants:
                weight = pr * chance
                if grant is not None and grant < 0:
                    completions += weight
                for tick_mods, tick_pr in ticked:
                    nxt = self._transfer(after, tick_mods, new_ages, grant)
                    successors[nxt] = (
                        successors.get(nxt, 0.0) + weight * tick_pr
                    )
        return successors, (completions, outstanding)

    def _grants(self, candidates, responders, mods, ages) -> list:
        """``(grant, probability)``: ``i >= 0`` grants processor ``i``'s
        request, ``-1 - k`` module ``k``'s response, ``None`` idles."""
        classes = (
            (candidates, responders)
            if self.processors_first
            else (responders, candidates)
        )
        for members in classes:
            if not members:
                continue
            is_request = members is candidates
            if len(members) == 1:
                chosen = members[0]
            elif not self.fcfs:
                share = 1.0 / len(members)
                return [
                    (i if is_request else -1 - i, share) for i in members
                ]
            elif is_request:
                chosen = min(members, key=lambda i: (ages[i], i))
            else:
                chosen = min(members, key=lambda k: (mods[k][4][0][1], k))
            return [(chosen if is_request else -1 - chosen, 1.0)]
        return [(None, 1.0)]

    def _transfer(self, procs, mods, ages, grant) -> tuple:
        """The next state: this cycle's grant applied after the ticks."""
        if grant is not None and grant >= 0:
            k = procs[grant] - self.requesting
            procs = procs[:grant] + (self.awaiting,) + procs[grant + 1 :]
            inq, svc, left, stalled, outq = mods[k]
            if svc == -1 and stalled == -1:
                mod = (inq, grant, self.r, -1, outq)
            else:
                mod = (inq + (grant,), svc, left, stalled, outq)
            mods = mods[:k] + (mod,) + mods[k + 1 :]
            if self.fcfs:
                ages = ages[:grant] + (-1,) + ages[grant + 1 :]
        elif grant is not None:
            k = -1 - grant
            inq, svc, left, stalled, outq = mods[k]
            head = outq[0][0] if self.fcfs else outq[0]
            procs = procs[:head] + (0,) + procs[head + 1 :]
            mod = (inq, svc, left, stalled, outq[1:])
            mods = mods[:k] + (mod,) + mods[k + 1 :]
        if self.fcfs:
            mods = _dense_output_ranks(mods)
            ages = _dense(ages)
        return procs, mods, ages

    def _issue_ages(self, before, after, ages) -> tuple:
        """FCFS ages after the boundaries: new requests are the newest."""
        issued = [
            i
            for i, (old, new) in enumerate(zip(before, after))
            if old < self.requesting <= new
        ]
        if not issued:
            return ages
        ages = list(ages)
        for i in issued:
            ages[i] = _NEWEST
        return tuple(ages)


def _dense(ages: tuple) -> tuple:
    """Renumber the non-negative ranks ``0, 1, ...``, keeping ties."""
    ranks = sorted(set(ages) - {-1})
    order = {rank: dense for dense, rank in enumerate(ranks)}
    return tuple(order.get(rank, -1) for rank in ages)


def _dense_output_ranks(mods: tuple) -> tuple:
    """Renumber the output entries' ready ranks across all modules."""
    ranks = sorted({rank for mod in mods for _, rank in mod[4]})
    order = {rank: dense for dense, rank in enumerate(ranks)}
    return tuple(
        mod[:4] + (tuple((proc, order[rank]) for proc, rank in mod[4]),)
        for mod in mods
    )
