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

Every JSON object the package reads, here and in sweep.py, goes through
_block, which refuses unknown keys, missing keys and null values.  The
readers check no numbers: the type that holds one does (dynamics._number),
with the message the Python constructor gives.
"""

import json
from dataclasses import dataclass

import numpy as np

from .dynamics import GameMatrix, _number
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
                object.__setattr__(self, key, _number(getattr(self, key), f"landscape {key!r}"))
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


def _block(doc, what: str, keys, required=()) -> dict:
    """A copy of the JSON object `doc`; ValidationError unless its keys are among
    `keys`, include every one of `required`, and hold no null.

    The types read None as "not given", so a null is refused here rather
    than passed on as a value left out.
    """
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be an object, got {type(doc).__name__}")
    extra = set(doc) - set(keys)
    if extra:
        raise ValidationError(f"{what} has unknown keys {sorted(extra)}")
    for key in required:
        if key not in doc:
            raise ValidationError(f"{what} is missing {key!r}")
    for key, value in doc.items():
        if value is None:
            raise ValidationError(f"{what} {key!r} must not be null")
    return dict(doc)


def _read_json(path):
    """The parsed contents of a JSON file; ValidationError if it is not valid JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from exc


def landscape_from_json(doc) -> Landscape:
    """Parse a landscape description from a JSON document.

    Accepts {"name": ..., params} with hyphen or underscore spellings, or
    a game-matrix document, with or without "name": "custom", for custom
    landscapes.
    """
    if isinstance(doc, dict) and doc.get("name", "custom" if "matrix" in doc else None) == "custom":
        doc = {key: value for key, value in doc.items() if key != "name"}
        return Landscape.custom(game_matrix_from_json(doc))
    doc = _block(doc, "landscape document", ("name", "r", "a", "b"), required=("name",))
    return Landscape(str(doc.pop("name")).replace("-", "_"), **doc)


def _check_square_rows(rows, where: str = "") -> None:
    """Raise ValidationError unless rows is a non-empty square list of number lists."""
    if not isinstance(rows, list) or not rows:
        raise ValidationError(f"{where}'matrix' must be a non-empty list of rows")
    n = len(rows)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ValidationError(f"{where}matrix row {i} must be a list of length {n}")
        for j, value in enumerate(row):
            _number(value, f"{where}matrix entry [{i}][{j}]")


def game_matrix_from_json(doc) -> GameMatrix:
    """Parse {"n": ..., "matrix": [[...], ...]} into a GameMatrix.

    The "n" key is optional but must be an integer matching the matrix shape if present.
    """
    doc = _block(doc, "game matrix document", ("n", "matrix"), required=("matrix",))
    rows = doc["matrix"]
    _check_square_rows(rows)
    n = doc.get("n", len(rows))
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n != len(rows):
        raise ValidationError(f"document says n={n!r} but matrix has {len(rows)} rows")
    return GameMatrix(rows)


def game_matrix_to_json(game: GameMatrix) -> dict:
    return {"n": game.n, "matrix": game.entries.tolist()}


def load_game_matrix(path) -> GameMatrix:
    """Read a game matrix from a JSON file."""
    return game_matrix_from_json(_read_json(path))
