"""The speed probe's arithmetic on made-up samples and ticks:

    python3 -m pytest perfbench/test_speed.py -q -p no:cacheprovider
"""
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import speed  # noqa: E402


def _probe(rates_by_cpu: dict[int, list[float]]) -> speed.SpeedProbe:
    """A probe whose samples are given, one per second from t = 0."""
    probe = speed.SpeedProbe(list(rates_by_cpu))
    for cpu, rates in rates_by_cpu.items():
        probe.times[cpu] = [float(i) for i in range(len(rates))]
        probe.rates[cpu] = list(rates)
    return probe


def test_nominal_rate_scales_to_wall_time():
    nominal = 1.0 / speed.NOMINAL_S
    probe = _probe({0: [nominal] * 10})
    m0, m1 = (0.0, {0: (0, 0)}), (9.0, {0: (900, 0)})
    assert probe.scaled(m0, m1) == pytest.approx(9.0)


def test_speed_is_the_mean_rate_of_the_busy_vcpu():
    nominal = 1.0 / speed.NOMINAL_S
    # vCPU 0 runs at half speed and does all the work; vCPU 1 is fast, idle.
    probe = _probe({0: [nominal / 2] * 10, 1: [nominal] * 10})
    m0 = (0.0, {0: (0, 0), 1: (0, 0)})
    m1 = (9.0, {0: (900, 0), 1: (0, 0)})
    assert probe.speed(m0, m1) == pytest.approx(0.5)
    # The same interval with the work split evenly between the two.
    m1 = (9.0, {0: (450, 0), 1: (450, 0)})
    assert probe.speed(m0, m1) == pytest.approx(0.75)


def test_stolen_time_lowers_speed():
    nominal = 1.0 / speed.NOMINAL_S
    probe = _probe({0: [nominal] * 10})
    m0, m1 = (0.0, {0: (0, 0)}), (9.0, {0: (600, 300)})
    assert probe.speed(m0, m1) == pytest.approx(600 / 900)


def test_short_interval_borrows_neighbouring_samples():
    nominal = 1.0 / speed.NOMINAL_S
    probe = _probe({0: [nominal] * 5 + [nominal / 4] * 5})
    # No sample lies inside [7.2, 7.4]; the nearest ones are all slow.
    m0, m1 = (7.2, {0: (0, 0)}), (7.4, {0: (20, 0)})
    assert probe.speed(m0, m1) == pytest.approx(0.25)


def test_live_samplers_measure_and_stop():
    probe = speed.SpeedProbe(sorted(speed.os.sched_getaffinity(0))[:1])
    probe.start()
    m0 = probe.mark()
    speed.time.sleep(10 * speed.PERIOD_S)
    m1 = probe.mark()
    probe.stop()
    assert all(not t.is_alive() for t in probe._threads)
    assert sum(len(r) for r in probe.rates.values()) >= 3
    assert probe.scaled(m0, m1) > 0
