import contextlib
import sys

import pytest

from qcartan.coideal import CoidealParams
from qcartan.involutions import build_involution
from qcartan.uqalgebra import Algebra

_ALGEBRAS = {}
_PARAMS = {}


def shared_algebra(family, rank):
    key = (family, rank)
    if key not in _ALGEBRAS:
        _ALGEBRAS[key] = Algebra(family, rank)
    return _ALGEBRAS[key]


def shared_params(pair, n=None, r=None, **kw):
    key = (pair, n, r, repr(sorted(kw.items())))
    if key not in _PARAMS:
        inv = build_involution(pair, n, r)
        alg = shared_algebra(inv.rd.family, inv.rd.rank)
        _PARAMS[key] = CoidealParams(inv, alg, **kw)
    return _PARAMS[key]


@contextlib.contextmanager
def recursion_headroom(frames):
    """Lower the recursion limit to `frames` frames above the caller."""
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


@pytest.fixture
def a2():
    return shared_algebra("A", 2)


@pytest.fixture
def a3():
    return shared_algebra("A", 3)


@pytest.fixture
def a4():
    return shared_algebra("A", 4)
