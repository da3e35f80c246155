"""Fixtures shared by several test modules: bundled specs and the tent handle."""

import pytest

from xferop import specfile
from xferop import transfer as tr


@pytest.fixture(scope="module")
def tent():
    return specfile.bundled("tent_std")


@pytest.fixture(scope="module")
def tent_half():
    return specfile.bundled("tent_half")


@pytest.fixture(scope="module")
def doubling():
    return specfile.bundled("doubling")


@pytest.fixture(scope="module")
def shift2():
    return specfile.bundled("fullshift2")


@pytest.fixture(scope="module")
def tent_handle(tent):
    return tr.TransferHandle.create(tent.system, tent.potential)
