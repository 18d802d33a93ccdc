"""Named payoff landscapes and JSON (de)serialization of game matrices.

One table, _LANDSCAPES, says what each named landscape is: the number of
types it fixes (None if any n works), the parameters it takes, and its
payoffs for n types:

  neutral     all payoffs equal (any n)
  moran       [[r, r], [1, 1]]: constant fitness r for the first type
  hawk_dove   [[1, 2], [2, 1]]: coordination on mixing
  zero_diag   [[0, 1], [1, 0]]
  rsp         rock-scissors-paper [[0, -b, a], [a, 0, -b], [-b, a, 0]]
  custom      any user-supplied square matrix (its size fixes n)

A Landscape is a lightweight description (name plus parameters) that
builds a GameMatrix on demand; sweeps carry the description so output
rows can name what they ran.
"""

import json
from dataclasses import dataclass

import numpy as np

from .dynamics import GameMatrix
from .errors import ValidationError

# name -> (number of types or None, parameters, payoffs(landscape, n))
_LANDSCAPES = {
    "neutral": (None, (), lambda land, n: np.ones((n, n))),
    "moran": (2, ("r",), lambda land, n: [[land.r, land.r], [1.0, 1.0]]),
    "hawk_dove": (2, (), lambda land, n: [[1.0, 2.0], [2.0, 1.0]]),
    "zero_diag": (2, (), lambda land, n: [[0.0, 1.0], [1.0, 0.0]]),
    "rsp": (3, ("a", "b"), lambda land, n: [
        [0.0, -land.b, land.a], [land.a, 0.0, -land.b], [-land.b, land.a, 0.0],
    ]),
    "custom": (None, ("matrix",), lambda land, n: land.matrix.entries),
}
LANDSCAPE_NAMES = tuple(_LANDSCAPES)


@dataclass(frozen=True)
class Landscape:
    """A named payoff landscape with its parameters."""

    name: str
    r: float | None = None
    a: float | None = None
    b: float | None = None
    matrix: GameMatrix | None = None

    def __post_init__(self):
        if self.name not in LANDSCAPE_NAMES:
            raise ValidationError(
                f"unknown landscape {self.name!r}, expected one of {LANDSCAPE_NAMES}"
            )
        uses = _LANDSCAPES[self.name][1]
        for key in ("r", "a", "b", "matrix"):
            given = getattr(self, key) is not None
            if given and key not in uses:
                raise ValidationError(f"the {self.name} landscape takes no parameter {key!r}")
            if not given and key in uses:
                raise ValidationError(f"the {self.name} landscape requires parameter {key!r}")
        for key in ("r", "a", "b"):
            if getattr(self, key) is not None:
                object.__setattr__(self, key, float(getattr(self, key)))
        if self.name == "moran" and not (np.isfinite(self.r) and self.r > 0):
            raise ValidationError(f"relative fitness r must be finite and positive, got {self.r}")
        if self.name == "rsp" and not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValidationError(f"rsp parameters must be finite, got a={self.a}, b={self.b}")

    @classmethod
    def neutral(cls) -> "Landscape":
        return cls("neutral")

    @classmethod
    def moran(cls, r: float) -> "Landscape":
        return cls("moran", r=r)

    @classmethod
    def hawk_dove(cls) -> "Landscape":
        return cls("hawk_dove")

    @classmethod
    def zero_diag(cls) -> "Landscape":
        return cls("zero_diag")

    @classmethod
    def rsp(cls, a: float, b: float) -> "Landscape":
        return cls("rsp", a=a, b=b)

    @classmethod
    def custom(cls, matrix) -> "Landscape":
        game = matrix if isinstance(matrix, GameMatrix) else GameMatrix(matrix)
        return cls("custom", matrix=game)

    def required_n(self) -> int | None:
        """The number of types this landscape fixes, or None if flexible."""
        return self.matrix.n if self.matrix is not None else _LANDSCAPES[self.name][0]

    def build(self, n: int) -> GameMatrix:
        """Materialize the payoff matrix for an n-type process."""
        if n < 2:
            raise ValidationError(f"need at least two types, got n={n}")
        need = self.required_n()
        if need is not None and need != n:
            raise ValidationError(f"landscape {self.name!r} requires n={need}, got n={n}")
        return GameMatrix(_LANDSCAPES[self.name][2](self, n))


def landscape_from_json(doc) -> Landscape:
    """Parse a landscape description from a JSON document.

    Accepts {"name": ..., params} with hyphen or underscore spellings,
    or a bare game-matrix document for custom landscapes.
    """
    if not isinstance(doc, dict):
        raise ValidationError(f"landscape document must be an object, got {type(doc).__name__}")
    if "name" not in doc:
        if "matrix" in doc:
            return Landscape.custom(game_matrix_from_json(doc))
        raise ValidationError("landscape document is missing 'name'")
    name = str(doc["name"]).replace("-", "_")
    if name == "custom":
        return Landscape.custom(game_matrix_from_json(doc))
    known = {"name", "r", "a", "b"}
    extra = set(doc) - known
    if extra:
        raise ValidationError(f"landscape document has unknown keys {sorted(extra)}")
    params = {key: _as_float(doc[key], f"landscape {key!r}") for key in ("r", "a", "b") if key in doc}
    return Landscape(name, **params)


def _as_float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where} must be a number, got {value!r}")
    return float(value)


def _check_square_rows(rows, where: str = "") -> None:
    """Raise ValidationError unless rows is a non-empty square list of number lists."""
    if not isinstance(rows, list) or not rows:
        raise ValidationError(f"{where}'matrix' must be a non-empty list of rows")
    n = len(rows)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ValidationError(f"{where}matrix row {i} must be a list of length {n}")
        for j, value in enumerate(row):
            _as_float(value, f"{where}matrix entry [{i}][{j}]")


def game_matrix_from_json(doc) -> GameMatrix:
    """Parse {"n": ..., "matrix": [[...], ...]} into a GameMatrix.

    The "n" key is optional but must match the matrix shape if present.
    """
    if not isinstance(doc, dict):
        raise ValidationError(f"game matrix document must be an object, got {type(doc).__name__}")
    if "matrix" not in doc:
        raise ValidationError("game matrix document is missing 'matrix'")
    rows = doc["matrix"]
    _check_square_rows(rows)
    n = len(rows)
    if "n" in doc and doc["n"] != n:
        raise ValidationError(f"document says n={doc['n']} but matrix has {n} rows")
    return GameMatrix(rows)


def game_matrix_to_json(game: GameMatrix) -> dict:
    return {"n": game.n, "matrix": game.entries.tolist()}


def load_game_matrix(path) -> GameMatrix:
    """Read a game matrix from a JSON file."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    return game_matrix_from_json(doc)
