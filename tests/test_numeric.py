from fractions import Fraction as F

import pytest

from ammlab.numeric import sqrt_any, sqrt_bounds


class TestSquareRoots:
    @pytest.mark.parametrize("value", [F(-1), -1, -1e-300])
    def test_negative_value_rejected(self, value):
        with pytest.raises(ValueError, match="square root of a negative quantity"):
            sqrt_bounds(value)

    @pytest.mark.parametrize("value, root", [(F(0), F(0)), (0, F(0)), (F(9, 4), F(3, 2)),
                                             (49, F(7))])
    def test_rational_roots_are_exact(self, value, root):
        assert sqrt_bounds(value) == (root, root)
        exact = sqrt_any(value)
        assert exact == root and type(exact) is F
