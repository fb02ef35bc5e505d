"""The support table: one rule per pattern kind and spec mechanism label.

``patterns.SUPPORT`` gives each (kind, label) its assigner or the reason the
mechanism cannot express the kind.  ``tests/test_reports._MECHANISMS`` states
independently which labels run on which kind; the table must agree with it,
and ``build_assignment`` must do what the table says.
"""

import pytest

from mpxlab.errors import InvalidArgumentError, UnsupportedPatternError
from mpxlab.patterns import (MECHANISMS, SUPPORT, Mechanism, PatternKind,
                             assign_bspmm_windows, assign_communicators_naive,
                             build_assignment)
from mpxlab.patterns import specfile
from mpxlab.patterns.specfile import scenario_from_dict
from test_reports import _GRIDS, _MECHANISMS

# the one label that runs but has no pinned report: on the allreduce,
# communicators-naive builds what communicators builds
_ALIASES = {"multithreaded-allreduce": {"communicators-naive"}}

REFUSALS = [(kind, label) for kind in PatternKind
            for label, rule in SUPPORT[kind].items() if isinstance(rule, str)]


def pattern_of(kind: str):
    process_grid, thread_grid = _GRIDS[kind]
    return scenario_from_dict({"kind": kind, "process_grid": process_grid,
                               "thread_grid": thread_grid}).build_pattern()


def test_every_kind_has_one_rule_per_label_in_label_order():
    assert len(set(MECHANISMS)) == 6
    assert specfile.MECHANISMS == MECHANISMS
    assert set(SUPPORT) == set(PatternKind)
    for row in SUPPORT.values():
        assert tuple(row) == MECHANISMS


@pytest.mark.parametrize("kind", _MECHANISMS)
def test_runnable_labels_are_the_pinned_ones(kind):
    runnable = {label for label, rule in SUPPORT[PatternKind(kind)].items()
                if not isinstance(rule, str)}
    assert runnable == set(_MECHANISMS[kind]) | _ALIASES.get(kind, set())


@pytest.mark.parametrize("kind,alias,label", [
    ("multithreaded-allreduce", "communicators-naive", "communicators"),
    ("legion-polling", "communicators", "communicators-naive"),
    ("dynamic-graph", "communicators", "communicators-naive"),
])
def test_aliases_build_the_same_assignment(kind, alias, label):
    pattern = pattern_of(kind)
    a, b = build_assignment(pattern, alias), build_assignment(pattern, label)
    assert (a.mechanism, a.variant, a.bindings, a.objects_created) == (
        b.mechanism, b.variant, b.bindings, b.objects_created)


@pytest.mark.parametrize("kind,label", REFUSALS,
                         ids=[f"{k.value}/{m}" for k, m in REFUSALS])
def test_each_reason_is_the_refusal_message(kind, label):
    with pytest.raises(UnsupportedPatternError) as refusal:
        build_assignment(pattern_of(kind.value), label)
    assert str(refusal.value) == SUPPORT[kind][label]


# each label's own assigner, called directly: the stencil row's, and the
# window assigner, which no stencil rule names
DIRECT = {**SUPPORT[PatternKind.STENCIL_2D_5PT], "windows": assign_bspmm_windows}


@pytest.mark.parametrize("kind,label", REFUSALS,
                         ids=[f"{k.value}/{m}" for k, m in REFUSALS])
def test_a_direct_assigner_call_refuses_with_the_reason(kind, label):
    with pytest.raises(UnsupportedPatternError) as refusal:
        DIRECT[label](pattern_of(kind.value))
    assert str(refusal.value) == SUPPORT[kind][label]


def test_the_naive_map_refuses_the_allreduce():
    # its collective ops have no peer thread to pick a communicator by
    with pytest.raises(UnsupportedPatternError, match="two-sided"):
        assign_communicators_naive(pattern_of("multithreaded-allreduce"))


@pytest.mark.parametrize("label", ["smoke-signals", Mechanism.COMMUNICATORS],
                         ids=["unknown", "enum"])
def test_a_label_outside_the_table_is_an_invalid_argument(label):
    with pytest.raises(InvalidArgumentError) as refusal:
        build_assignment(pattern_of("fan-in"), label)
    assert not isinstance(refusal.value, KeyError)
    assert all(name in str(refusal.value) for name in MECHANISMS)
