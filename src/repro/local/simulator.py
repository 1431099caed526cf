"""Synchronous message-passing engine (the LOCAL model's round structure).

Each node runs an instance of a :class:`NodeAlgorithm`; a round consists
of (1) every node emitting messages per port, (2) delivery along the
network's CSR arrays, as in the vectorized engine, (3) every node
processing its inbox.  Messages and local computation are unbounded, as in
the model; the engine counts rounds until every node has halted with an
output, which is how upper-bound experiments measure round complexity.

A view-based runner is also provided: a T-round algorithm given as a
function of the radius-T view (:mod:`repro.local.views`), the formulation
used throughout the paper's proofs.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.local.network import Network
from repro.local.views import LocalView, collect_view
from repro.utils import SimulationError


class NodeAlgorithm:
    """Base class for per-node message-passing algorithms.

    Subclasses override :meth:`init`, :meth:`send` and :meth:`receive`;
    they call :meth:`halt` with their final output.  State lives on the
    instance (one instance per node).
    """

    def __init__(self, ctx: "NodeContext") -> None:
        self.ctx = ctx
        self.output = None
        self.halted = False

    def init(self) -> None:
        """Round-0 initialization (before any communication)."""

    def send(self) -> dict[int, object]:
        """Messages to emit this round, keyed by port."""
        return {}

    def receive(self, messages: dict[int, object]) -> None:
        """Process this round's inbox, keyed by port."""

    def halt(self, output) -> None:
        """Commit the final output; the node stays silent afterwards."""
        self.output = output
        self.halted = True


@dataclass(frozen=True)
class NodeContext:
    """Immutable per-node knowledge: the model's initial information."""

    node: object
    node_id: int
    degree: int
    n: int
    max_degree: int
    ports: tuple[int, ...]
    random_bits: object = None
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RunResult:
    """Outputs plus the measured round complexity."""

    outputs: dict
    rounds: int


@dataclass(frozen=True)
class RoundTrace:
    """Per-round engine observations, fed to ``on_round`` observers."""

    round: int
    live_nodes: int
    messages_delivered: int
    messages_dropped: int


def run_synchronous(
    network: Network,
    factory: Callable[[NodeContext], NodeAlgorithm],
    max_rounds: int = 10_000,
    extra: Callable[[object], dict] | None = None,
    rng_for: Callable[[object], object] | None = None,
    on_round: Callable[[RoundTrace], None] | None = None,
) -> RunResult:
    """Run a message-passing algorithm until every node halts.

    ``extra`` injects per-node auxiliary knowledge (e.g. full support-graph
    information in Supported LOCAL experiments); ``rng_for`` injects a
    per-node random source for randomized algorithms; ``on_round`` observes
    a :class:`RoundTrace` after each round (the measurement hook used by
    :mod:`repro.local.measurement`).

    Halting semantics: a node that halts — even during :meth:`init`, before
    any communication — is silent for the rest of the run.  Messages
    addressed to an already-halted node are dropped at delivery (counted in
    the round trace), and a node whose :meth:`send` returns messages after
    calling :meth:`halt` is rejected as a protocol violation.
    """
    csr = network.csr
    nodes, degrees = csr.nodes, csr.degrees.tolist()
    algorithms: list[NodeAlgorithm] = []
    for node, degree in zip(nodes, degrees):
        context = NodeContext(
            node=node,
            node_id=network.ids[node],
            degree=degree,
            n=network.n,
            max_degree=network.max_degree,
            ports=tuple(range(1, degree + 1)),
            random_bits=rng_for(node) if rng_for else None,
            extra=extra(node) if extra else {},
        )
        algorithms.append(factory(context))
    # Port p of node i is half-edge k = indptr[i] + p - 1: it reaches node
    # dest[k] on the port of half-edge reverse[k].
    indptr, dest = csr.indptr.tolist(), csr.dest.tolist()
    arrival_port = (csr.reverse - csr.indptr[csr.dest] + 1).tolist()

    for algorithm in algorithms:
        algorithm.init()

    rounds = 0
    while any(not algorithm.halted for algorithm in algorithms):
        rounds += 1
        if rounds > max_rounds:
            raise SimulationError(
                f"algorithm did not halt within {max_rounds} rounds"
            )
        outbox: list[tuple[int, dict]] = []
        live_nodes = 0
        for i, algorithm in enumerate(algorithms):
            if algorithm.halted:
                continue
            live_nodes += 1
            messages = algorithm.send()
            if not messages:
                continue
            # Port keys may be heterogeneous (e.g. {"a": m, 99: m}), so
            # error paths sort by str: the violation must surface as a
            # SimulationError, never a TypeError from sorted().
            if algorithm.halted:
                raise SimulationError(
                    f"node {nodes[i]!r} halted during send() but still emitted "
                    f"messages on ports {sorted(messages, key=str)}"
                )
            stray = set(messages).difference(range(1, degrees[i] + 1))
            if stray:
                raise SimulationError(
                    f"node {nodes[i]!r} sent on invalid ports {sorted(stray, key=str)}"
                )
            outbox.append((i, messages))
        # Inboxes exist only for live nodes: a halted node (including one
        # that halted during init()) never receives, so messages addressed
        # to it are dropped here rather than silently retained.
        inbox = [None if algorithm.halted else {} for algorithm in algorithms]
        delivered = dropped = 0
        for i, messages in outbox:
            for port, payload in messages.items():
                k = indptr[i] + int(port) - 1  # a key == an int port (1.0, True) is it
                received = inbox[dest[k]]
                if received is None:
                    dropped += 1
                    continue
                received[arrival_port[k]] = payload
                delivered += 1
        for algorithm, received in zip(algorithms, inbox):
            if received is not None:
                algorithm.receive(received)
        if on_round is not None:
            on_round(
                RoundTrace(
                    round=rounds,
                    live_nodes=live_nodes,
                    messages_delivered=delivered,
                    messages_dropped=dropped,
                )
            )

    return RunResult(
        outputs={node: algorithm.output for node, algorithm in zip(nodes, algorithms)},
        rounds=rounds,
    )


def run_view_algorithm(
    network: Network,
    radius: int,
    rule: Callable[[LocalView], object],
) -> RunResult:
    """Run a T-round algorithm given as a function of the radius-T view."""
    outputs = {
        node: rule(collect_view(network, node, radius))
        for node in network.graph.nodes
    }
    return RunResult(outputs=outputs, rounds=radius)
