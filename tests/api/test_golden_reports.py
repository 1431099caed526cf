"""Golden byte pins: the sha256 of every registered algorithm's canonical
report at n=64, seed 1, on its default network and on the same network
under random IDs (``with_random_ids(3)``), on every engine.

The engine-parity tests compare the engines with each other, so a change
of the port numbering that moves both engines the same way would pass
them.  These pins compare each engine with fixed bytes instead.
"""

import hashlib

import pytest

from repro import api

#: algorithm → (spec, {network kind: sha256 of canonical_json()}).
GOLDEN = {
    "matching:proposal": (
        "matching:Δ=3,x=0,y=1",
        {
            "default": "7131e3ef0e23f7f1a7150b407ced2e7215f5b2e90f3157f53230c3f51a402494",
            "random-ids": "e60f8b0d1cffbfde335318661d2df5d114ac2579e98a4c9350d6bd8e052c62e6",
        },
    ),
    "mis:aapr23": (
        "mis:Δ=3",
        {
            "default": "0f38b6d4ea5b053ca85be0646640c1beb94831a65fa4eb783f36b21274ecf883",
            "random-ids": "0f38b6d4ea5b053ca85be0646640c1beb94831a65fa4eb783f36b21274ecf883",
        },
    ),
    "mis:luby": (
        "mis:Δ=3",
        {
            "default": "8de0970431c78e823e41782d588d4500d7d3ce0dde6e41430a331911a96c1ede",
            "random-ids": "8de0970431c78e823e41782d588d4500d7d3ce0dde6e41430a331911a96c1ede",
        },
    ),
    "coloring:class-sweep": (
        "coloring:Δ=3,c=4",
        {
            "default": "b54fd4c825e503417706f23f627ba7083e6ce1ab2a9940d899debe28f5f81b46",
            "random-ids": "b54fd4c825e503417706f23f627ba7083e6ce1ab2a9940d899debe28f5f81b46",
        },
    ),
    "ruling-set:class-sweep": (
        "ruling-set:Δ=3,c=1,β=2",
        {
            "default": "b54f875ec26fe69762eed759f4cbcb6fee9c46786c5203a69b8fef4c71e90190",
            "random-ids": "b54f875ec26fe69762eed759f4cbcb6fee9c46786c5203a69b8fef4c71e90190",
        },
    ),
    "arbdefective:class-sweep": (
        "arbdefective:Δ=4,c=2",
        {
            "default": "a4ed945a4b415155f8509beab5da25969077f07584c1e376b90b85911df6836b",
            "random-ids": "a4ed945a4b415155f8509beab5da25969077f07584c1e376b90b85911df6836b",
        },
    ),
    "sinkless-orientation:global": (
        "sinkless-orientation:Δ=3",
        {
            "default": "f78cddd500f9066f254de0655e1c570e28d6ec0a70f8b85b8a22451657e9f97b",
            "random-ids": "f78cddd500f9066f254de0655e1c570e28d6ec0a70f8b85b8a22451657e9f97b",
        },
    ),
}

N, SEED, ID_SEED = 64, 1, 3


def _network(algorithm, spec, kind):
    network = api.resolve_algorithm(algorithm).default_network(
        api.ProblemSpec.parse(spec), n=N, seed=SEED
    )
    return network if kind == "default" else network.with_random_ids(ID_SEED)


def test_every_registered_algorithm_is_pinned():
    assert set(GOLDEN) == set(api.available_algorithms())


@pytest.mark.parametrize("engine", sorted(api.available_engines()))
@pytest.mark.parametrize("kind", ["default", "random-ids"])
@pytest.mark.parametrize("algorithm", sorted(GOLDEN))
def test_report_bytes_are_pinned(algorithm, kind, engine):
    spec, pins = GOLDEN[algorithm]
    report = api.solve(
        spec,
        algorithm=algorithm,
        engine=engine,
        network=_network(algorithm, spec, kind),
        seed=SEED,
    )
    digest = hashlib.sha256(report.canonical_json().encode("utf-8")).hexdigest()
    assert digest == pins[kind]
