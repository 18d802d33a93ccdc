import json
import re

import pytest

from evorate import Landscape, ValidationError
from evorate.catalog import (
    game_matrix_from_json,
    game_matrix_to_json,
    landscape_from_json,
    load_game_matrix,
)


def test_catalog_matrices():
    assert Landscape.moran(2).build(2).entries.tolist() == [[2, 2], [1, 1]]
    assert Landscape.hawk_dove().build(2).entries.tolist() == [[1, 2], [2, 1]]
    assert Landscape.zero_diag().build(2).entries.tolist() == [[0, 1], [1, 0]]
    assert Landscape.rsp(1, 1).build(3).entries.tolist() == [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]
    assert Landscape.neutral().build(4).entries.tolist() == [[1] * 4] * 4


def test_moran_requires_positive_r():
    with pytest.raises(ValidationError, match="r must be finite and positive, got 0"):
        Landscape.moran(0)
    with pytest.raises(ValidationError, match="r must be finite and positive, got -2"):
        Landscape.moran(-2)


def test_landscape_build_and_n_requirements():
    assert Landscape.neutral().build(5).n == 5
    assert Landscape.moran(3).required_n() == 2
    assert Landscape.rsp(1, 2).required_n() == 3
    assert Landscape.rsp(2, 1).build(3).entries[0, 2] == 2
    with pytest.raises(ValidationError):
        Landscape.rsp(1, 1).build(2)
    with pytest.raises(ValidationError):
        Landscape.hawk_dove().build(3)


def test_landscape_requires_its_parameters():
    with pytest.raises(ValidationError):
        Landscape("moran")
    with pytest.raises(ValidationError):
        Landscape("rsp", a=1.0)
    with pytest.raises(ValidationError):
        Landscape("custom")
    with pytest.raises(ValidationError):
        Landscape("valley")


def test_custom_landscape():
    land = Landscape.custom([[0, 5], [5, 0]])
    assert land.required_n() == 2
    assert land.build(2).entries.tolist() == [[0, 5], [5, 0]]
    with pytest.raises(ValidationError):
        land.build(3)


def test_game_matrix_json_round_trip():
    game = Landscape.rsp(1.5, 0.5).build(3)
    doc = game_matrix_to_json(game)
    assert doc["n"] == 3
    again = game_matrix_from_json(doc)
    assert again.entries.tolist() == game.entries.tolist()


def test_game_matrix_json_errors():
    with pytest.raises(ValidationError, match="missing 'matrix'"):
        game_matrix_from_json({"n": 2})
    with pytest.raises(ValidationError, match="row 1"):
        game_matrix_from_json({"matrix": [[1, 2], [3]]})
    with pytest.raises(ValidationError, match=r"\[0\]\[1\]"):
        game_matrix_from_json({"matrix": [[1, "x"], [3, 4]]})
    with pytest.raises(ValidationError, match="n=3"):
        game_matrix_from_json({"n": 3, "matrix": [[1, 2], [3, 4]]})
    with pytest.raises(ValidationError):
        game_matrix_from_json([[1, 2], [3, 4]])
    with pytest.raises(ValidationError, match=r"game matrix document has unknown keys \['name'\]"):
        game_matrix_from_json({"name": "custom", "matrix": [[1, 2], [3, 4]]})
    for n in ("2", True, 2.0):
        with pytest.raises(ValidationError, match=re.escape(f"document says n={n!r} but")):
            game_matrix_from_json({"n": n, "matrix": [[1, 2], [3, 4]]})


def test_landscape_from_json():
    assert landscape_from_json({"name": "moran", "r": 2}).r == 2.0
    assert landscape_from_json({"name": "hawk-dove"}).name == "hawk_dove"
    custom = landscape_from_json({"name": "custom", "matrix": [[1, 0], [0, 1]]})
    assert custom.matrix.n == 2
    bare = landscape_from_json({"matrix": [[1, 0], [0, 1]]})
    assert bare.name == "custom"
    with pytest.raises(ValidationError):
        landscape_from_json({"name": "moran", "r": 2, "zap": 1})
    with pytest.raises(ValidationError):
        landscape_from_json({"name": "moran", "r": "two"})
    with pytest.raises(ValidationError):
        landscape_from_json({})


def test_load_game_matrix_file(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"n": 2, "matrix": [[0, 3], [1, 0]]}))
    assert load_game_matrix(path).entries.tolist() == [[0, 3], [1, 0]]
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError, match="invalid JSON"):
        load_game_matrix(bad)
