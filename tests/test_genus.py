import pytest

from classmax.genus import genus_number_cyclic, nongenus_part


class TestGenusNumber:
    def test_examples(self):
        assert genus_number_cyclic(2, 1) == 1
        assert genus_number_cyclic(2, 9) == 256
        assert genus_number_cyclic(3, 2) == 3

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            genus_number_cyclic(2, 0)


class TestNongenusPart:
    def test_examples(self):
        assert nongenus_part(10240, 256) == 40
        assert nongenus_part(1, 1) == 1
        assert nongenus_part(63, 3) == 21

    def test_nondivisibility_is_an_error(self):
        with pytest.raises(ArithmeticError):
            nongenus_part(10, 4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            nongenus_part(0, 1)

