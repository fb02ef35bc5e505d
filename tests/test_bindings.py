"""Pinned assignments: one SHA-256 per ``tests/test_reports.SPECS`` spec.

The digest covers everything an assigner builds: its mechanism, variant and
hints, every (op id, descriptor) binding in order, its object tally, its
communicators, its endpoints communicator and its partitioned requests.  The
report pins of ``tests/test_reports.py`` see the bindings only through the
engine, and the window and allreduce bindings have no per-op reference in
the tests, so this is their one direct check.  A change that is meant to
keep every descriptor must keep every digest.
"""

import hashlib

import pytest

from mpxlab.patterns.specfile import scenario_from_dict

from test_reports import SPECS


def digest(spec: dict) -> str:
    scenario = scenario_from_dict(spec)
    a = scenario.build_assignment(scenario.build_pattern())
    built = (a.mechanism, a.variant, a.hints, list(a.bindings.items()),
             list(a.objects_created.items()), a.comms, a.endpoints_comm,
             list(a.requests.items()))
    return hashlib.sha256(repr(built).encode()).hexdigest()


PINS = {
    "bspmm-rma/endpoints":
        "69f44fcbda41fad078379e9ff12bf0683c254471d993b96c39da1dba6bee1366",
    "bspmm-rma/windows":
        "a845e84b89d28267f5794e9fa282b3d36d9009b95646b864fff0d73a716b7fa2",
    "dynamic-graph/communicators":
        "9821d4737f55a0798bdd8710fee76af602087906a5130bd928b3f4653532541f",
    "dynamic-graph/communicators-naive":
        "9821d4737f55a0798bdd8710fee76af602087906a5130bd928b3f4653532541f",
    "dynamic-graph/endpoints":
        "db886e75e0988605315918ee0a131ee6162b2696aab35db5d9430c40ef6ca1bf",
    "fan-in/communicators":
        "d621a791b1bada4d72eba0aaa671007768dfbb04db33a89bd2885601f6a0c4d1",
    "fan-in/communicators-naive":
        "9c816b26e182cd903e3ec5025422f1ebdb7460f5c0e7f87938f75f353f056a41",
    "fan-in/endpoints":
        "47af492c57d114bc07f53504766df81e42fb71ac7a2480ef7eafc75d0818de4e",
    "legion-polling-8-nodes/communicators-naive":
        "0492040ea3cb472be02e78eecbc2119897968e48cd8d6e963ff52ee69c10f5cc",
    "legion-polling-8-nodes/endpoints":
        "e8833c8f3d0b0d794b510fec3cba0a9d659371a492206074f0c4d2df344866a2",
    "legion-polling/communicators":
        "105d544a350e057f00b6b2400679a726017e022152dc31d721cca49d5ff72e34",
    "legion-polling/communicators-naive":
        "105d544a350e057f00b6b2400679a726017e022152dc31d721cca49d5ff72e34",
    "legion-polling/endpoints":
        "cc3e0180b39994240ff711ce5c73417c30d87a25b87ce4e196d9d34eadfd732e",
    "multithreaded-allreduce/communicators":
        "73d4be2759e8c31aaa0e478bd693ef345e341653fad5280b26fdc2f163465f4d",
    "multithreaded-allreduce/endpoints":
        "c209bc465b5ee3fd223d07510acf92c6ea68472a0ec77485d310af67ae8d1ca5",
    "multithreaded-allreduce/partitioned":
        "225bd604899f1712288d109aecca7d0f1bab3b8deed1d83a885874d25a077bf1",
    "stencil-2d-5pt/communicators":
        "1ef63ac8f16d73dfd95580f8ba92a2c59d7814910f301eeb36e86ff3df095fc0",
    "stencil-2d-5pt/communicators-naive":
        "576adcb9025b6d28c5c8517f2f35bf42e8014924172376c4af6976e23e0ce4f0",
    "stencil-2d-5pt/endpoints":
        "835eab1dd19633e461688869aafe964c79e09f5afeb9526aa8d0b02c1b2c8835",
    "stencil-2d-5pt/partitioned":
        "b16f91c99852c8add18c88a8e2d0810f373d6809d9b91e80f6a5c96bc6875936",
    "stencil-2d-5pt/tags":
        "f908ebf07f50bb11799da54076214b04ccd9b55838b0cdeb61c99e94d082f02f",
    "stencil-2d-9pt/communicators":
        "9bbdf0e76d52db88e8434424a16e7fdb7577903c84840fa6db936e88b2867da0",
    "stencil-2d-9pt/communicators-naive":
        "028ba02c6c2217b15067daad1511ba44f0f8dd61e69e2c9368519d96d8ef7a62",
    "stencil-2d-9pt/endpoints":
        "d661d878acf726bb290055a007f2ee60846acc489034a9bd1c35d29c53db05e3",
    "stencil-2d-9pt/partitioned":
        "62dc0d86858e3467a600929f266b73c49199cf1aff240256560ec9ea8e52843a",
    "stencil-2d-9pt/tags":
        "9123aa8339483e12ddd0902e1b1f484d583a17577d2e4fe4f992705af3d5f77a",
    "stencil-3d-27pt/communicators":
        "2b2c1d090621d3d4f3fca9180e9a7101538c327f796e6494327520baac6434be",
    "stencil-3d-27pt/communicators-naive":
        "79f1f0029c9d613a42b8dca22bf9f83c2b7d81247d303d3f903cd75ee1b5002b",
    "stencil-3d-27pt/endpoints":
        "97b3599d27695e1f868042090059a3eb1f704cd986e380dd46225705f413c484",
    "stencil-3d-27pt/partitioned":
        "22c845ab32d0237b6c735db06826562fa4d51abe1692a5f7e76a64384786334a",
    "stencil-3d-27pt/tags":
        "73c4e94c22e7da3d94fad6380d193d0ed8f09bc31b68b432bc12c5fcb85fc081",
}


def test_every_spec_is_pinned():
    assert set(PINS) == set(SPECS)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_assignment_is_pinned(name):
    assert digest(SPECS[name]) == PINS[name]
