"""The repository tools under tools/: bitdiff's comparison."""

import importlib.util
from pathlib import Path

import numpy as np

_SPEC = importlib.util.spec_from_file_location("bitdiff", Path(__file__).resolve().parents[1] / "tools" / "bitdiff.py")
bitdiff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bitdiff)


def test_bitdiff_reports_each_moved_output_once():
    same = {"a": np.arange(3.0), "text": bitdiff._text("exit 0\nline\n"), "neg-zero": np.array([0.0])}
    assert bitdiff.compare(same, dict(same)) == []
    moved = {**same, "a": np.arange(3.0) + [0.0, 0.0, 2.0**-50], "neg-zero": np.array([-0.0]),
             "text": bitdiff._text("exit 1\n"), "new": np.zeros(2)}
    assert bitdiff.compare(same, moved) == [
        "a: max |diff| 8.882e-16",
        # bits moved, values did not
        "neg-zero: max |diff| 0.000e+00",
        "new: only in the change",
        "text: 'exit 0' -> 'exit 1'",
    ]
    error = {"a": bitdiff._text("ValueError: a must be finite")}
    assert bitdiff.compare({"a": np.arange(3.0)}, error) == ["a: 'float64(3,)' -> 'ValueError: a must be finite'"]


def test_bitdiff_probes_give_the_same_names_and_bytes_twice_in_one_process():
    # an undeterministic probe would show as moved against any parent
    first, second = bitdiff.probe(), bitdiff.probe()
    assert list(first) == list(second)
    assert bitdiff.compare(first, second) == []
