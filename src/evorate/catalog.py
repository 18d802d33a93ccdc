"""Named payoff landscapes and JSON (de)serialization of game matrices.

The landscapes that recur throughout the analysis:

  neutral     all payoffs equal (any n)
  moran       [[r, r], [1, 1]]: constant fitness r for the first type
  hawk_dove   [[1, 2], [2, 1]]: coordination on mixing
  zero_diag   [[0, 1], [1, 0]]
  rsp         rock-scissors-paper [[0, -b, a], [a, 0, -b], [-b, a, 0]]
  custom      any user-supplied square matrix

A Landscape is a lightweight description (name plus parameters) that
builds a GameMatrix on demand; sweeps carry the description so output
rows can name what they ran.
"""

import json
from dataclasses import dataclass

import numpy as np

from .dynamics import GameMatrix
from .errors import ValidationError

LANDSCAPE_NAMES = ("neutral", "moran", "hawk_dove", "zero_diag", "rsp", "custom")


def neutral_landscape(n: int) -> GameMatrix:
    """All-ones payoffs: every type has fitness 1 at every state."""
    if n < 2:
        raise ValidationError(f"need at least two types, got n={n}")
    return GameMatrix(np.ones((n, n)))


def moran_landscape(r: float) -> GameMatrix:
    """Constant fitness r versus 1, the classical two-type selection setup."""
    if not np.isfinite(r) or r <= 0:
        raise ValidationError(f"relative fitness r must be positive, got {r}")
    return GameMatrix([[r, r], [1.0, 1.0]])


def hawk_dove_landscape() -> GameMatrix:
    return GameMatrix([[1.0, 2.0], [2.0, 1.0]])


def zero_diagonal_landscape() -> GameMatrix:
    return GameMatrix([[0.0, 1.0], [1.0, 0.0]])


def rsp_landscape(a: float, b: float) -> GameMatrix:
    """Cyclic rock-scissors-paper payoffs with win value a and loss value -b."""
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValidationError(f"rsp parameters must be finite, got a={a}, b={b}")
    return GameMatrix([[0.0, -b, a], [a, 0.0, -b], [-b, a, 0.0]])


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
        if self.name == "moran" and self.r is None:
            raise ValidationError("moran landscape requires a fitness parameter r")
        if self.name == "rsp" and (self.a is None or self.b is None):
            raise ValidationError("rsp landscape requires parameters a and b")
        if self.name == "custom" and self.matrix is None:
            raise ValidationError("custom landscape requires an explicit matrix")

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
        if self.name in ("moran", "hawk_dove", "zero_diag"):
            return 2
        if self.name == "rsp":
            return 3
        if self.name == "custom":
            return self.matrix.n
        return None

    def build(self, n: int) -> GameMatrix:
        """Materialize the payoff matrix for an n-type process."""
        need = self.required_n()
        if need is not None and need != n:
            raise ValidationError(f"landscape {self.name!r} requires n={need}, got n={n}")
        if self.name == "neutral":
            return neutral_landscape(n)
        if self.name == "moran":
            return moran_landscape(self.r)
        if self.name == "hawk_dove":
            return hawk_dove_landscape()
        if self.name == "zero_diag":
            return zero_diagonal_landscape()
        if self.name == "rsp":
            return rsp_landscape(self.a, self.b)
        return self.matrix


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
