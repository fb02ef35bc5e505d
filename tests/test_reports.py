"""Pinned reports: one small spec per supported (kind, mechanism) pair, and
a wider polling case.

Each case pins two SHA-256 digests: one of the report JSON and one of the
event trace, as (time, kind, op id, channel, iteration) tuples.  A change
that is meant to keep every simulated number must keep both.
"""

import hashlib

import pytest

from mpxlab.patterns.specfile import RUNS_ONCE, scenario_from_dict
from mpxlab.simulator import run

_GRIDS = {
    "stencil-2d-5pt": ([2, 2], [3, 3]),
    "stencil-2d-9pt": ([2, 2], [3, 3]),
    "stencil-3d-27pt": ([2, 2, 2], [2, 2, 2]),
    "legion-polling": ([3], [4]),
    "dynamic-graph": ([3], [3]),
    "fan-in": ([2], [8]),
    "bspmm-rma": ([2], [3]),
    "multithreaded-allreduce": ([3], [4]),
}

_STENCIL = ("communicators", "communicators-naive", "tags", "endpoints",
            "partitioned")
_TWO_SIDED = ("communicators", "communicators-naive", "endpoints")
_MECHANISMS = {
    "stencil-2d-5pt": _STENCIL,
    "stencil-2d-9pt": _STENCIL,
    "stencil-3d-27pt": _STENCIL,
    "legion-polling": _TWO_SIDED,
    "dynamic-graph": _TWO_SIDED,
    "fan-in": _TWO_SIDED,
    "bspmm-rma": ("windows", "endpoints"),
    "multithreaded-allreduce": ("communicators", "endpoints", "partitioned"),
}

# partitioned runs take three iterations: one barrier per iteration; a kind
# that runs once takes one
SPECS = {
    f"{kind}/{mechanism}": {
        "kind": kind, "process_grid": grids[0], "thread_grid": grids[1],
        "iterations": (1 if kind in RUNS_ONCE
                       else 3 if mechanism == "partitioned" else 2),
        "payload_bytes": 1024, "mechanism": mechanism, "seed": 3,
    }
    for kind, grids in _GRIDS.items()
    for mechanism in _MECHANISMS[kind]
}
# 48 messages on 8 nodes; under one shared context, 14 of them land on a
# node at the same tick as another, so the polling order breaks the tie
SPECS.update({
    f"legion-polling-8-nodes/{mechanism}": {
        **SPECS[f"legion-polling/{mechanism}"], "process_grid": [8]}
    for mechanism in ("communicators-naive", "endpoints")
})


def hashes(spec: dict) -> tuple[str, str]:
    scenario = scenario_from_dict(spec)
    pattern = scenario.build_pattern()
    report = run(pattern, scenario.build_assignment(pattern),
                 pool=scenario.build_pool(), policy=scenario.build_policy(),
                 seed=scenario.seed)
    trace = [(ev.time, ev.kind.value, ev.op_id, ev.channel, ev.iteration)
             for ev in report.events]
    return (hashlib.sha256(report.to_json().encode()).hexdigest(),
            hashlib.sha256(repr(trace).encode()).hexdigest())


# (report JSON, event trace) digests of each case
PINS = {
    "stencil-2d-5pt/communicators": ("ac0b3fa50a3be2604c4cb88e0b7648e6408d92fea4572ba61f463691ea726efc",
        "705383b534e61164187325e787117559b3bb3c4430f64b0ab8103d0dad556272"),
    "stencil-2d-5pt/communicators-naive": ("6381616877d8785b3604887d26f6c86ce6373e69c52c65e6958923b640ba20b1",
        "1c15425974c85afd829e34a361604ac54377078ca299a71e6bcdd38c2b0f39ab"),
    "stencil-2d-5pt/tags": ("aa7d20713db4680e2f016b0c9c06c4387c64cb0ff9b09961504fb0d5ad9183f1",
        "09108ec011b434adcebbfb838832d061493b24e91acb157a831ab5654c30fc8d"),
    "stencil-2d-5pt/endpoints": ("65bb84748efeb40d2d3aa285020f8aee8a8d86d4a93930b503e7f0259e77b0bf",
        "1b50db539ce65126b9aeeab5608a680ea2b0463d8fd4248e3b8ba3697c5cc544"),
    "stencil-2d-5pt/partitioned": ("2f38e1ca3cbea2e4c834a4d1b466dec5843eee92c5e567e1e39f914ce5bad761",
        "862b3478d77aaa065f8096882e4c59719de07845ec7f470869911246022005f9"),
    "stencil-2d-9pt/communicators": ("d48b28e121382b22a81b7b39727f98b52de0a8e39d7951f04b94091bd4424a94",
        "84e4f5e22e1371e6b1c174a465f0bd41ea311fd87b324a73af77a3e8e2635b8d"),
    "stencil-2d-9pt/communicators-naive": ("b6b345c8215a1d225ecf33b182da4622ea1c3fb2d33536639d4873500f8701e8",
        "e5aee61e8bdd1adf3788281cc147bd426b6ee2dee980ff94ed596c2b17cbccee"),
    "stencil-2d-9pt/tags": ("cb1fa1448fc393bc7b1251f8f7df3b7b32a4bb8471d0b5d6b3760e25f4c0f682",
        "a03973eeeb8587d94a9d9b2668b44580b4129d3018af830b5b83a8ca4dabed6c"),
    "stencil-2d-9pt/endpoints": ("23c5aa5efbe3be55d8a7a90e6a8b8d77a326959a21773ad637a2b9e93c72d029",
        "d721f136fa9bf3875bcbb050bf9c8a342611859782fe8e941cb95e50e3af22c8"),
    "stencil-2d-9pt/partitioned": ("3dfa68464b6665bd8088a6754a59241199129fb2b414b5520076695b59d300e7",
        "c88e83f44b84f8e0a68a735f55aaf9e5e1954d95d77e36219af8d40b0ed9b31f"),
    "stencil-3d-27pt/communicators": ("c3f6d0e63e0c8c86df2b9a63c55ff651565641f181c69ea7e3b3afcd3ec6b33d",
        "9ec0efaa4b8cb46156a4e010ff00a93f9dd55565803c1d50bec2310706af5202"),
    "stencil-3d-27pt/communicators-naive": ("86b030e51d8b8597d058bdf802d025eee76e9ae419e04b4cf58e5ad1ebb00ea2",
        "905d037aa4758dab447295d237cc73c072e511783df932babf78303633bd1048"),
    "stencil-3d-27pt/tags": ("557f7e18c339977bdf643d521ac819465ffffc0d3d7aee8779f2a4df232ffc63",
        "eade37b4443e99769a57f07646c69ad8ee64f9d7da0eee39725441d84f2630a3"),
    "stencil-3d-27pt/endpoints": ("3bb74b79c9ca722f271b5521d7076606ed76760f25591948a10e1847a4959f7e",
        "9a8fa88f8879f0f35361be3a9884e466126660faef14f6245ac173e787979138"),
    "stencil-3d-27pt/partitioned": ("1730f71406c6f1aad8fedea029cc84d3aa8d809e54b0201a17178c8b169cf5a4",
        "f497c3ce21795c04b7b8a9314a5ddfe324a56ffc3f9061c287aa9acb4e8c1827"),
    "legion-polling/communicators": ("3a25235c18d69641289165ac46e3e6676307280a767d36cdc4d2c081f61416fc",
        "9f8740d7bd197859ada8bbd0caec51d75a4e4751ee46dc42a009d733744e64f9"),
    "legion-polling/communicators-naive": ("3a25235c18d69641289165ac46e3e6676307280a767d36cdc4d2c081f61416fc",
        "9f8740d7bd197859ada8bbd0caec51d75a4e4751ee46dc42a009d733744e64f9"),
    "legion-polling/endpoints": ("76f4461d4e4d63a61f8e923c420dee30ad3ce791c91ab7cd5f239549dc784f65",
        "36db199b586aca32c485a15ab3d5e812bedc7e54c99972c4499c997a8a9abd0c"),
    "legion-polling-8-nodes/communicators-naive": ("bbc0a6da0ed75d391a66018bf2625a30d123bd301aef85383d7a79ccf9473040",
        "81fa57c48ebf49da69e51e1bb75e11b49ac65e163827eb639f87bc2588ad9be1"),
    "legion-polling-8-nodes/endpoints": ("5cc47b3feac952d903ad444962e2fa92d1f689fe607c3c0f59772809441716cb",
        "e847728ce2cf216857bb7715149dc33bea2b0e5f783ad90429c237504342cddf"),
    "dynamic-graph/communicators": ("45b8e006237737fdeecb9f59335353310748a8812b269f1885f77d65ae5949c0",
        "9ee8e3a2032db690fa70d7960c972596f4a595cf7838f6bfb283d0a65cabe326"),
    "dynamic-graph/communicators-naive": ("45b8e006237737fdeecb9f59335353310748a8812b269f1885f77d65ae5949c0",
        "9ee8e3a2032db690fa70d7960c972596f4a595cf7838f6bfb283d0a65cabe326"),
    "dynamic-graph/endpoints": ("529a663e3e26ee7073562d6443eabd1bfceb85dcf01f8466e3e4c9fc887f13d3",
        "e95382e8ae1177231c2e3f1258fbfc8db9cb475b43a1d6041ceeb0da005c2f01"),
    "fan-in/communicators": ("cb1e288d61dbd3f6196e6fc377faa08e004da22a8224963e1535f2be0a9933d2",
        "234dcc12088d152df4d759d08720dd505f55e681639b5c39409f9a1226ea3876"),
    "fan-in/communicators-naive": ("8bd8540acbc48234d5d1e3c8e4230ebed4d2968304f74900abc47a9f9cfe3374",
        "1a35a8b89d336384195b31998a0bbd186e552e8bb886bb86197794c73b8b6808"),
    "fan-in/endpoints": ("f34d413931de32bd6d3a0f66aa5f82589825bf6165be82f50ea24f1f0a76444f",
        "f489f117232a5d7dae89c97a7d6bdffcbc72394067e01845c6f1f7f7e858d2e6"),
    "bspmm-rma/windows": ("e353a3c6cfc79387051229b0e656aa0d99b25c3b042f2dac51022d24432a534a",
        "9197deb1b50609b30949dc0dceb4346980aa8dcceb58b020d192d4c9fa7ce435"),
    "bspmm-rma/endpoints": ("89dacc216a290f07d851478a950553f258fee19d15a530668e3ba0979e75cc20",
        "48f67f0bd786ed8b7af0349f9c4ccab472763f1c6ecf80de0e4345ba033224d7"),
    "multithreaded-allreduce/communicators": ("9486dddbecde50da2260c285f82d9407114ef403e76527f07449604734b4da28",
        "e33b3ec4f43110d76eb8ae4fa7a0363b8c5cea302c5dc356fa6e0d013164b8f8"),
    "multithreaded-allreduce/endpoints": ("59b8cab37e1c82846861f1b0b629fb38af68a066af39e1f9894146558a1cf586",
        "b73ced7fc8c52bfdd0b0e8df742e66600b957707426017ea62a09f9b40a31b9e"),
    "multithreaded-allreduce/partitioned": ("91fb2e2bd38927611c8eb1bea3fa38befa138a03394e27ff66663e46e40854d6",
        "4505e1512a868f8d7143d59c9d66f2296fb6b5d98b122e85980c618d1d6a99d0"),
}


def test_every_case_is_pinned():
    assert set(PINS) == set(SPECS)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_report_and_trace_are_pinned(name):
    assert hashes(SPECS[name]) == PINS[name]


def report(spec: dict, events: bool):
    scenario = scenario_from_dict(spec)
    pattern = scenario.build_pattern()
    return run(pattern, scenario.build_assignment(pattern),
               pool=scenario.build_pool(), policy=scenario.build_policy(),
               seed=scenario.seed, events=events)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_event_mode_changes_no_report_byte(name):
    with_events, without = report(SPECS[name], True), report(SPECS[name], False)
    assert with_events.events and without.events == []
    assert without.to_json() == with_events.to_json()
