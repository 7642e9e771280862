"""The simulated clock every component reads: it never runs backwards."""

import pytest

from repro.ledger.clock import SimClock


def test_starts_where_told_and_refuses_negative_time():
    assert SimClock().now() == 0.0
    assert SimClock(start=2.5).now() == 2.5
    with pytest.raises(ValueError):
        SimClock(start=-1.0)


def test_advance_adds_and_returns_the_new_time():
    clock = SimClock(start=1.0)
    assert clock.advance(0.5) == 1.5
    assert clock.advance(0.0) == 1.5
    assert clock.now() == 1.5


def test_advance_refuses_to_go_backwards():
    clock = SimClock(start=3.0)
    with pytest.raises(ValueError):
        clock.advance(-0.1)
    assert clock.now() == 3.0


def test_advance_to_moves_forward_only():
    clock = SimClock()
    assert clock.advance_to(4.0) == 4.0
    # An arrival time the clock already passed leaves it where it is.
    assert clock.advance_to(2.0) == 4.0
    assert clock.now() == 4.0
