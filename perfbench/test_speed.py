"""The speed probe takes its own time out and leaves no timer or handler behind."""

import signal

import pytest

from speed import SpeedProbe, kernel


def test_probe_scales_a_run_and_restores_the_signal_state():
    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe(kernel(0.5))
    result, raw, ref = probe.measure(lambda: sum(i * i for i in range(300_000)))
    assert result == sum(i * i for i in range(300_000))
    assert raw > 0.0 and ref > 0.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_probe_lets_an_exception_through_with_the_timer_off():
    before = signal.getsignal(signal.SIGALRM)
    with pytest.raises(ZeroDivisionError):
        SpeedProbe(kernel(0.0)).measure(lambda: 1 / 0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
