"""The README's examples run as doctests, so the documented calls stay true,
and the package exports every name it lists as public."""

import doctest
from pathlib import Path

import ryser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_star_import_binds_every_public_name():
    # A stale __all__ entry fails the star import, and factorize must
    # return plain (prime, exponent) pairs.
    namespace = {}
    exec("from ryser import *", namespace)
    assert set(ryser.__all__) <= namespace.keys()
    assert namespace["factorize"](12) == ((2, 2), (3, 1))


def test_readme_library_use_examples():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted and not failed
