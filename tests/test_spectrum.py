import math

import pytest
from hypothesis import given, strategies as st

from qsverify import errors, spectrum


def test_sorting_and_dedup():
    s = spectrum.from_eigenvalues([1.0, 0.5, 0.5, 0.2])
    assert s.eigenvalues == (1.0, 0.5, 0.5, 0.2)
    assert s.distinct == (1.0, 0.5, 0.2)
    assert (s.beta, s.tau, s.nu) == (0.5, 0.2, 0.5)


def test_unsorted_input_is_sorted():
    s = spectrum.from_eigenvalues([0.2, 1.0, 0.5])
    assert s.eigenvalues == (1.0, 0.5, 0.2)


def test_degenerate_top_rejected():
    with pytest.raises(errors.DegenerateTop):
        spectrum.from_eigenvalues([1.0, 1.0, 0.3])


def test_missing_unit_rejected():
    with pytest.raises(errors.MissingUnitEigenvalue):
        spectrum.from_eigenvalues([0.9, 0.5])


def test_out_of_range_rejected():
    with pytest.raises(errors.OutOfRange):
        spectrum.from_eigenvalues([1.0, -0.2])
    with pytest.raises(errors.OutOfRange):
        spectrum.from_eigenvalues([1.2, 0.5])
    with pytest.raises(errors.OutOfRange):
        spectrum.from_eigenvalues([])
    with pytest.raises(errors.OutOfRange):
        spectrum.from_eigenvalues([1.0])


def test_snap_to_unit():
    s = spectrum.from_eigenvalues([1.0 - 1e-13, 0.5])
    assert s.distinct[0] == 1.0


def test_near_duplicates_merge():
    s = spectrum.from_eigenvalues([1.0, 0.5, 0.5 + 1e-13, 0.2])
    assert len(s.distinct) == 3


def test_homogeneous():
    s = spectrum.homogeneous(0.5)
    assert s.distinct == (1.0, 0.5)
    assert (s.beta, s.tau, s.nu) == (0.5, 0.5, 0.5)
    singular = spectrum.homogeneous(0.0)
    assert singular.distinct == (1.0, 0.0)
    assert singular.tau == 0.0 and singular.singular
    with pytest.raises(errors.OutOfRange):
        spectrum.homogeneous(1.0)
    with pytest.raises(errors.OutOfRange):
        spectrum.homogeneous(-0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_rejected(bad):
    # a NaN must not be dropped by the sort/merge and analysed as [1, 0.2]
    with pytest.raises(errors.OutOfRange, match="eigenvalue"):
        spectrum.from_eigenvalues([1.0, bad, 0.2])
    with pytest.raises(errors.OutOfRange, match="lambda"):
        spectrum.homogeneous(bad)
    with pytest.raises(errors.OutOfRange, match="lambda"):
        spectrum.from_json_dict({"homogeneous": {"lambda": bad}})


@pytest.mark.parametrize("bad", ["1,0.5", 0.5, None, [1.0, "0.5"], [1.0, None], [1.0, True]])
def test_ill_typed_eigenvalues_rejected(bad):
    with pytest.raises(errors.OutOfRange, match="eigenvalue"):
        spectrum.from_json_dict({"eigenvalues": bad})


@pytest.mark.parametrize("bad", ["0.5", None, [0.5]])
def test_ill_typed_lambda_rejected(bad):
    with pytest.raises(errors.OutOfRange, match="lambda"):
        spectrum.homogeneous(bad)


def test_json_forms():
    s = spectrum.from_json_dict({"eigenvalues": [1, 0.5, 0.1]})
    assert s.distinct == (1.0, 0.5, 0.1)
    s = spectrum.from_json_dict({"homogeneous": {"lambda": 0.25}})
    assert s.distinct == (1.0, 0.25)
    with pytest.raises(errors.OutOfRange):
        spectrum.from_json_dict({"nope": 1})


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0 - 1e-6, allow_nan=False),
        min_size=1,
        max_size=8,
    )
)
def test_valid_inputs_always_structured(values):
    s = spectrum.from_eigenvalues([1.0, *values])
    assert s.distinct[0] == 1.0
    assert s.tau <= s.beta < 1.0
    assert 0.0 < s.nu <= 1.0
    assert all(a > b for a, b in zip(s.distinct, s.distinct[1:]))
    assert sorted(s.eigenvalues, reverse=True) == list(s.eigenvalues)
