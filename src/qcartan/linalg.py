"""Sparse exact linear algebra over a fraction field.

Vectors are dicts mapping hashable coordinate keys to field elements; the
field only needs +, -, *, /, unary -, and truthiness for "nonzero"
(fractions.Fraction and qfield.QRat both qualify).  Pivoting is
deterministic: the smallest key in sort order wins.
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


def vec_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        _accumulate(out, k, v)
    return out


def vec_scale(a: dict, c) -> dict:
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def vec_sub_scaled(a: dict, b: dict, c) -> dict:
    """a - c*b."""
    out = dict(a)
    for k, v in b.items():
        _accumulate(out, k, -(c * v))
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
                c = c / row[pivot]
                vec = vec_sub_scaled(vec, row, c)
                if combo is not None:
                    combo = vec_sub_scaled(combo, self.combos[pivot], c)
        return vec, combo

    def add(self, vec: dict, label=None):
        """Insert a vector; returns (is_new, residual_combo).

        For a dependent vector with track=True, residual_combo expresses the
        vector as a combination of previously added ones (label -> coeff).
        """
        tag = label if label is not None else self._count
        self._count += 1
        combo = {tag: _one_like(vec)} if self.track else None
        vec, combo = self._reduce(vec, combo)
        if not vec:
            if combo is not None and combo.get(tag) is not None:
                one = combo.pop(tag)
                combo = {k: -(v / one) for k, v in combo.items()}
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
        return v / v
    return 1


def kernel_basis(columns: list[dict]) -> list[dict]:
    """Kernel of the linear map sending unit vector #j to columns[j].

    Returns combination dicts (index -> coefficient) spanning the kernel.
    """
    ech = Echelon(track=True)
    out = []
    for lab, col in enumerate(columns):
        is_new, combo = ech.add(col, label=lab)
        if not is_new:
            # combo expresses col over earlier columns: col = sum combo[k]*col_k
            kv = {k: -v for k, v in (combo or {}).items()}
            kv[lab] = _one_like(col)
            out.append(kv)
    return out
