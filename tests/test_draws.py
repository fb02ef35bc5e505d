"""The seeded generators draw each bounded value as ``Random.randrange`` does.

``gen_legion``, ``gen_dynamic_graph`` and ``gen_bspmm`` draw a value below a
bound ``n`` inline, as ``getrandbits(n.bit_length())`` redrawn while it is
``>= n``.  These tests run the generators on a recording ``Random`` and
compare every drawn value, and the generator's state after the last draw,
with ``random.Random(seed).randrange`` in the same order of bounds.
"""

import random
from types import SimpleNamespace

import pytest

from mpxlab.patterns import gen_bspmm, gen_dynamic_graph, gen_legion
from mpxlab.patterns import irregular

SEEDS = range(4)
BOUNDS = range(1, 71)


class Recording(random.Random):
    """A ``Random`` that keeps the width of every ``getrandbits`` call."""

    made: list = []

    def __init__(self, seed):
        super().__init__(seed)
        self.widths = []
        Recording.made.append(self)

    def getrandbits(self, k):
        self.widths.append(k)
        return super().getrandbits(k)


@pytest.fixture
def recording(monkeypatch):
    """The generators draw from ``Recording``; returns the made instances."""
    Recording.made = []
    monkeypatch.setattr(irregular, "random", SimpleNamespace(Random=Recording))
    return Recording.made


def assert_same_state(made, reference):
    (rng,) = made
    assert rng.getrandbits(32) == reference.getrandbits(32)


@pytest.mark.parametrize("seed", SEEDS)
def test_legion_draws_as_randrange(recording, seed):
    # nodes = n + 1, so the bounds nodes, nodes - 1 and task_threads run
    # 2..71, 1..70 and 1..70, interleaved per event as legion draws them
    for n in BOUNDS:
        recording.clear()
        ops = gen_legion(n + 1, n, 12, seed=seed).ops
        ref = random.Random(seed)
        for send in list(ops)[::2]:
            src = ref.randrange(n + 1)
            dst = ref.randrange(n)
            if dst >= src:
                dst += 1
            assert (send.process, send.peer_process, send.thread) == \
                (src, dst, 1 + ref.randrange(n)), (n, send.op_id)
        assert_same_state(recording, ref)


@pytest.mark.parametrize("seed", SEEDS)
def test_dynamic_graph_draws_as_randrange(recording, seed):
    # procs = threads + 1 = n + 1: the bounds procs - 1 and threads are n
    for n in BOUNDS:
        recording.clear()
        ops = gen_dynamic_graph(n + 1, n, rounds=1, seed=seed).ops
        ref = random.Random(seed)
        for send in list(ops)[::2]:
            q = ref.randrange(n)
            if q >= send.process:
                q += 1
            assert (send.peer_process, send.peer_thread) == \
                (q, ref.randrange(n)), (n, send.op_id)
        assert_same_state(recording, ref)


@pytest.mark.parametrize("seed", SEEDS)
def test_bspmm_draws_as_randrange(recording, seed):
    for n in BOUNDS:
        recording.clear()
        ops = gen_bspmm(2, 2, tiles=n, seed=seed).ops
        ref = random.Random(seed)
        assert [op.location for op in ops] == \
            [ref.randrange(n) for _ in range(len(ops))], n
        assert_same_state(recording, ref)


def test_a_bound_of_one_still_draws_one_bit(recording):
    # randrange(1) draws getrandbits(1) until it reads 0, so it moves the
    # state like any other draw
    ops = gen_bspmm(1, 1, tiles=1, seed=5).ops
    (rng,) = recording
    assert set(rng.widths) == {1} and len(rng.widths) >= len(ops) == 6
    ref = random.Random(5)
    for _ in ops:
        ref.randrange(1)
    assert_same_state(recording, ref)
    assert random.Random(5).getrandbits(32) != ref.getrandbits(32)


def test_a_power_of_two_rejects_about_half_its_draws(recording):
    # 64 has bit length 7, so a 7-bit draw falls below it half the time
    ops = gen_bspmm(4, 16, tiles=64, seed=2).ops
    (rng,) = recording
    assert set(rng.widths) == {7}
    assert 1.7 < len(rng.widths) / len(ops) < 2.3
    ref = random.Random(2)
    assert [op.location for op in ops] == [ref.randrange(64) for _ in ops]
    assert_same_state(recording, ref)
