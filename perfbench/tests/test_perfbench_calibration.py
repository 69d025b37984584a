import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from calibration import REF_SAMPLE_S, sample, to_reference  # noqa: E402
from run import BenchError, Calibrator, calibrated  # noqa: E402


def test_to_reference_scales_by_the_sample_time():
    assert to_reference(10.0, REF_SAMPLE_S) == 10.0
    assert to_reference(10.0, 2 * REF_SAMPLE_S) == pytest.approx(5.0)


def test_calibrated_takes_off_and_scales_by_samples_in_the_window():
    samples = [(0.5, 9.0), (1.0, 0.002), (2.0, 0.004), (3.5, 9.0)]
    # Two samples inside, 0.006 s in all, mean 0.003 s.
    expected = (10.006 - 0.006) * REF_SAMPLE_S / 0.003
    assert calibrated(10.006, (1.0, 3.0), samples) == pytest.approx(expected)


def test_calibrated_needs_a_sample_in_the_window():
    with pytest.raises(BenchError):
        calibrated(1.0, (4.0, 5.0), [(0.5, 0.002)])


def test_sample_takes_cpu_time():
    assert 0.0 < sample() < 1.0


def test_calibrator_samples_and_stops():
    with Calibrator() as calibrator:
        samples = calibrator.stop()
    assert calibrator.proc.returncode == 0
    assert all(len(pair) == 2 and pair[1] > 0 for pair in samples)
