"""The three multiview value classes hold only integers.

``CameraConfiguration``, ``LinearSpaceTuple`` and ``MultifocalTensor``
store integer rows, forms and numerators with their scales; ``cameras``,
``forms``, ``entries`` and ``tensor[index]`` build ``Fraction`` values when
read, and ``to_json`` writes each value from its numerator and denominator.
Building a value from integers constructs no ``Fraction`` at all; the views
equal the ``Fraction`` values the inputs stand for; equality compares values,
not the stored denominators; ``project_point`` divides the image of the
integer rows by the camera's scale.
"""

import re
from fractions import Fraction
from itertools import product

import pytest

from multichow import CameraConfiguration, LinearSpaceTuple, MultifocalTensor, linalg
from multichow import multifocal_tensor, project_point
from multichow.errors import DegenerateInputError, PreconditionError
from multichow.multiview import random_cameras

from helpers import ROW_DENOMINATORS, rational_cameras

PROFILES = {
    k: [beta for beta in product((1, 2), repeat=k) if sum(beta) == 4] for k in (2, 3, 4)
}

INT_FORMS = (((1, 2, 3), (0, 1, -1)), ((4, 0, 1),), ((2, -5, 7),), ((1, 1, 0),))
RATIONAL_FORMS = (
    ((Fraction(1, 2), Fraction(-3, 4), 1), (0, Fraction(2, 3), Fraction(5, 6))),
    ((Fraction(7, 3), 0, Fraction(-1, 9)),),
    ((1, Fraction(1, 5), 2),),
    ((Fraction(-4, 7), 3, Fraction(2, 7)),),
)


def expected_cameras(k, seed):
    """The ``Fraction`` cameras that ``rational_cameras(k, seed)`` stands
    for, from the integer cameras and the denominators."""
    ints = random_cameras(k, seed)._rows
    return tuple(
        tuple(
            tuple(Fraction(x, ROW_DENOMINATORS[(i + r) % 3][c]) for c, x in enumerate(row))
            for r, row in enumerate(cam)
        )
        for i, cam in enumerate(ints)
    )


def expected_entry(cameras, beta, index) -> Fraction:
    """One tensor entry as a ``Fraction`` determinant of the stacked rows."""
    rows, sign = [], 1
    for cam, b, a in zip(cameras, beta, index):
        if b == 2:
            rows.extend(cam[j] for j in range(3) if j != a - 1)
            sign *= (-1) ** (a + 1)
        else:
            rows.append(cam[a - 1])
    return sign * linalg.det(rows)


def all_fractions(values) -> bool:
    return all(
        all_fractions(x) if isinstance(x, tuple) else type(x) is Fraction for x in values
    )


@pytest.fixture
def fraction_count(monkeypatch):
    """A list that grows by one for each ``Fraction`` constructed."""
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return built


@pytest.mark.parametrize("k", [2, 3, 4])
def test_building_from_integers_constructs_no_fraction(k, fraction_count):
    cameras = [[list(row) for row in cam] for cam in random_cameras(k, 50 + k)._rows]
    strings = [[[str(x) for x in row] for row in cam] for cam in cameras]
    forms = [[list(form) for form in factor] for factor in INT_FORMS[:k]]
    for reading in (cameras, strings):
        config = CameraConfiguration.from_json({"cameras": reading})
    spaces = LinearSpaceTuple.from_json(forms)
    LinearSpaceTuple(INT_FORMS[:k])
    for beta in PROFILES[k]:
        written = multifocal_tensor(config, beta).to_json()
        MultifocalTensor.from_json(written)
    assert fraction_count == []
    # The count sees every construction: reading a view builds Fractions.
    assert config.cameras and spaces.forms
    assert len(fraction_count) == 12 * k + 3 * sum(map(len, INT_FORMS[:k]))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_views_equal_the_fraction_values(k):
    config = rational_cameras(k, 60 + k)
    cameras = expected_cameras(k, 60 + k)
    assert config.cameras == cameras and all_fractions(config.cameras)
    spaces = LinearSpaceTuple(RATIONAL_FORMS[:k])
    assert spaces.forms == RATIONAL_FORMS[:k] and all_fractions(spaces.forms)
    for beta in PROFILES[k]:
        tensor = multifocal_tensor(config, beta)
        indices = product((1, 2, 3), repeat=k)
        expected = {index: expected_entry(cameras, beta, index) for index in indices}
        for index, value in expected.items():
            assert tensor[index] == value and type(tensor[index]) is Fraction
        assert tensor.entries == {index: value for index, value in expected.items() if value}
        assert all(type(value) is Fraction for value in tensor.entries.values())
    # A sparse tensor, whose zeros are views too, and an index outside it,
    # refused as the constructor refuses it.
    sparse = MultifocalTensor(PROFILES[k][0], {(1,) * k: "2/6", (3,) * k: -4})
    for index in product((1, 2, 3), repeat=k):
        expected = {(1,) * k: Fraction(1, 3), (3,) * k: Fraction(-4)}.get(index, Fraction(0))
        assert sparse[index] == expected and type(sparse[index]) is Fraction
    with pytest.raises(PreconditionError, match=re.escape(f"bad tensor index {(4,) * k}")):
        sparse[(4,) * k]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_tensors_compare_values_not_denominators(k):
    config = rational_cameras(k, 70 + k)
    differ = 0
    for beta in PROFILES[k]:
        built = multifocal_tensor(config, beta)
        read = MultifocalTensor.from_json(built.to_json())
        assert read == built and built == read and hash(read) == hash(built)
        differ += read._denominator != built._denominator
        changed = dict(read.entries)
        index = next(iter(changed))
        changed[index] += Fraction(1, built._denominator + 1)
        assert MultifocalTensor(beta, changed) != built
        assert MultifocalTensor(beta, read.entries) == built
    # Scaled rational cameras store an unreduced denominator.
    assert differ > 0


def test_tensor_equality_needs_the_same_profile():
    config = random_cameras(3, 80)
    tensor = multifocal_tensor(config, (2, 1, 1))
    other = MultifocalTensor((1, 2, 1), tensor.entries)
    assert other.entries == tensor.entries and other != tensor
    assert tensor != tensor.to_json()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_camera_json_writes_the_fraction_text(k):
    config = rational_cameras(k, 90 + k)
    text = [[[str(x) for x in row] for row in cam] for cam in expected_cameras(k, 90 + k)]
    assert config.to_json() == {"cameras": text}
    assert any("/" in x for cam in text for row in cam for x in row)
    assert CameraConfiguration.from_json(config.to_json()) == config


@pytest.mark.parametrize("k", [2, 3, 4])
def test_project_point_divides_the_integer_image_once(k, monkeypatch):
    config = rational_cameras(k, 100 + k)
    monkeypatch.setattr(linalg, "mat_vec", None)
    for cam, expected in zip(config.cameras, expected_cameras(k, 100 + k)):
        as_text = [[f"{x.numerator}/{x.denominator}" for x in row] for row in cam]
        for point in ((1, -2, 3, 5), (Fraction(1, 3), 0, "-2/7", 1.5)):
            image = tuple(sum(a * Fraction(str(x)) for a, x in zip(row, point)) for row in expected)
            for camera in (cam, as_text):
                assert project_point(camera, point) == image
                assert all(type(x) is Fraction for x in project_point(camera, point))
    for i, cam in enumerate(config.cameras, 1):
        with pytest.raises(DegenerateInputError, match="camera center"):
            project_point(cam, config.center(i))
