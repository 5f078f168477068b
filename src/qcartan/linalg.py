"""Sparse exact linear algebra over a fraction field.

Vectors are dicts mapping hashable coordinate keys to field elements; the
field only needs +, -, *, /, unary -, and truthiness for "nonzero"
(fractions.Fraction and qfield.QRat both qualify).  Every linear
combination is formed in place by `add_scaled`.  Pivoting is
deterministic: the smallest key in sort order wins, and `Echelon.add`
returns the dependency relation that `kernel_basis` collects.
"""

from __future__ import annotations


def _accumulate(out: dict, key, c):
    """out[key] += c in place, keeping no zero entries."""
    got = out.get(key)
    s = c if got is None else got + c
    if s:
        out[key] = s
    elif got is not None:
        del out[key]


def add_scaled(out: dict, vec: dict, c=None) -> dict:
    """out += c*vec in place (c=None adds vec unscaled); returns out."""
    if c is None:
        for k, v in vec.items():
            _accumulate(out, k, v)
    elif c:
        for k, v in vec.items():
            _accumulate(out, k, v * c)
    return out


def vec_ratio(a: dict, b: dict):
    """The scalar r with a = r*b, or None when a or b is zero or the two
    are not proportional."""
    if not a or not b or a.keys() != b.keys():
        return None
    ratio = None
    for k, x in a.items():
        r = x / b[k]
        if ratio is None:
            ratio = r
        elif r != ratio:
            return None
    return ratio


class Echelon:
    """Growable echelon basis of a subspace, with optional combination tracking.

    add() reduces a vector against the current rows; a nonzero residual
    becomes a new row.  When track=True each row remembers its expression in
    terms of the vectors passed to add(), so kernels and membership
    certificates can be read off.
    """

    def __init__(self, track: bool = False):
        self.rows: dict = {}        # pivot key -> row vector
        self.combos: dict = {}      # pivot key -> combination dict
        self.track = track
        self._count = 0

    def __len__(self):
        return len(self.rows)

    def _reduce(self, vec: dict, combo: dict | None):
        # every row only involves keys >= its pivot (the pivot is the row's
        # minimal key), so a single pass in pivot order fully reduces
        vec = dict(vec)
        for pivot in sorted(self.rows):
            c = vec.get(pivot)
            if c:
                row = self.rows[pivot]
                c = -(c / row[pivot])
                add_scaled(vec, row, c)
                if combo is not None:
                    add_scaled(combo, self.combos[pivot], c)
        return vec, combo

    def add(self, vec: dict):
        """Insert a vector; returns (is_new, relation).

        Vectors are numbered 0, 1, ... in the order they are added.  For a
        dependent vector with track=True, relation is a combination
        (number -> coeff) of it and earlier vectors that vanishes, with the
        vector's own coefficient 1; otherwise relation is None.
        """
        combo = {self._count: _one_like(vec)} if self.track else None
        self._count += 1
        vec, combo = self._reduce(vec, combo)
        if not vec:
            return False, combo
        pivot = min(vec)
        self.rows[pivot] = vec
        if self.track:
            self.combos[pivot] = combo
        return True, None

    def residual(self, vec: dict) -> dict:
        out, _ = self._reduce(vec, None)
        return out

    def contains(self, vec: dict) -> bool:
        return not self.residual(vec)


def _one_like(vec: dict):
    for v in vec.values():
        return v ** 0
    return 1


def kernel_basis(columns: list[dict]) -> list[dict]:
    """Kernel of the linear map sending unit vector #j to columns[j].

    Returns combination dicts (index -> coefficient) spanning the kernel,
    one per dependent column, with that column's coefficient 1.
    """
    ech = Echelon(track=True)
    return [rel for is_new, rel in map(ech.add, columns) if not is_new]
