"""The summary arithmetic of ``bench/record.py`` on synthetic numbers, without
running the benchmark."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "bench" / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


@pytest.mark.parametrize("values", [[2.0, 1.0], [5.0, 1.0, 4.0, 2.0, 3.0],
                                    [0.7, 0.61, 0.75, 0.66, 0.9, 0.58, 0.64, 0.8, 0.71, 0.69]])
def test_quartiles_match_numpy(values):
    q1, q3 = record.quartiles(values)
    np.testing.assert_allclose([q1, q3], np.percentile(values, [25, 75]), rtol=0.0, atol=1e-15)


def test_quartiles_by_hand():
    # positions 0.25 * 3 and 0.75 * 3 of the sorted 1, 2, 4, 8
    assert record.quartiles([8.0, 1.0, 4.0, 2.0]) == (1.75, 5.0)


def test_pair_wins_count_ties_for_neither_side():
    base = [1.0, 2.0, 3.0, 4.0]
    head = [0.5, 2.0, 3.5, 4.0]  # lower in one pair, higher in one, tied in two
    assert record.pair_wins(base, head, "lower") == 1
    assert record.pair_wins(base, head, "higher") == 1
    assert record.pair_wins(base, base, "lower") == 0
    with pytest.raises(ValueError):
        record.pair_wins(base, head[:3], "lower")


def test_compare_flags_only_a_median_beyond_the_bound():
    base = [1.0, 1.0, 1.0, 1.0]
    within = record.compare(base, [1.2, 1.2, 1.2, 1.2], "lower", 0.25)
    assert not within["worse_than_bound"] and within["head_wins"] == 0
    beyond = record.compare(base, [1.3, 1.3, 1.3, 1.3], "lower", 0.25)
    assert beyond["worse_than_bound"]
    # higher is better: a throughput 30% down is worse, one 30% up is not
    assert record.compare(base, [0.7] * 4, "higher", 0.25)["worse_than_bound"]
    up = record.compare(base, [1.3] * 4, "higher", 0.25)
    assert not up["worse_than_bound"] and up["head_wins"] == 4
    assert (up["base"]["median"], up["head"]["q1"], up["pairs"]) == (1.0, 1.3, 4)
    # the median of an even count is the mean of the middle two
    even = record.compare([4.0, 1.0, 2.0, 8.0], [1.0] * 4, "lower", 0.25)
    assert even["base"]["median"] == 3.0


def test_drift_is_the_later_half_median_minus_the_earlier():
    # a side slowing down from 1.0 to 1.3 s, in run order; medians 1.1 and 1.25
    slowing = [1.0, 1.2, 1.1, 1.3, 1.25, 1.2]
    steady = [1.0, 2.0, 1.5, 9.9, 1.5, 1.0, 2.0]  # the odd count's middle run is left out
    assert record.drift(slowing) == pytest.approx(0.15, rel=0.0, abs=1e-15)
    assert record.drift(steady) == 0.0
    m = record.compare(slowing, slowing[::-1], "lower", 0.25)
    assert m["base"]["drift"] == -m["head"]["drift"] == pytest.approx(0.15, abs=1e-15)


def test_output_hashes_leave_out_metadata():
    requests = [{"problem": "two-body", "files": {"summary.txt": {"sha256": "a"},
                                                  "metadata.txt": {"sha256": "b"},
                                                  "energies.csv": {"sha256": "c"}}},
                {"problem": "scan", "files": {"scan.csv": {"sha256": "d"}}}]
    assert record.output_hashes(requests) == {"0-two-body/energies.csv": "c",
                                              "0-two-body/summary.txt": "a",
                                              "1-scan/scan.csv": "d"}
