import numpy as np
import pytest


def test_approx_fails_when_its_default_abs_swamps_the_stated_rel():
    # conftest wraps pytest.approx: with abs left out, 1e-12 must not exceed rel * |expected|.
    for expected, rel in ((1e-9, None), (0.5, 1e-12), (np.array([1.0, 1e-7]), None), ({"e": 4.2e-18}, 0.01)):
        with pytest.raises(pytest.fail.Exception, match="leaves abs at its default 1e-12"):
            pytest.approx(expected, rel=rel)


def test_approx_accepts_a_stated_abs_or_a_dominant_rel():
    assert 1.0000000000001e-9 == pytest.approx(1e-9, rel=1e-12, abs=0)
    assert 1.5e-9 != pytest.approx(1e-9, rel=1e-12, abs=0)
    assert 0.0 == pytest.approx(0.0)
    assert 0.5 == pytest.approx(0.5)
    assert [0.0, 2.0] == pytest.approx([0.0, 2.0], rel=1e-9)
    assert {"a": 1.0} == pytest.approx({"a": 1.0})
